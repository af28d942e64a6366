"""Dictionary constructions, seeded operators, correlation tools, container IO."""

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    coherence,
    gaussian_measurements,
    gram_profile,
    identity_dictionary,
    load_container,
    load_dictionary,
    overcomplete_dft,
    random_orthogonal_dictionary,
    rng_from,
    save_container,
    save_dictionary,
    seed_sequence,
)


class TestSeeding:
    def test_rng_reproducible(self):
        a = rng_from(5, 1, 9).standard_normal(4)
        b = rng_from(5, 1, 9).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_salts_decorrelate(self):
        a = rng_from(5, 1).standard_normal(4)
        b = rng_from(5, 2).standard_normal(4)
        assert not np.array_equal(a, b)

    def test_seed_sequence_entropy_is_positional(self):
        assert seed_sequence(1, 2).entropy != seed_sequence(2, 1).entropy


class TestDictionaryType:
    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            Dictionary(np.zeros(4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Dictionary(np.eye(2), kind="wavelet")

    def test_shape_and_field(self):
        D = Dictionary(np.eye(3))
        assert (D.d, D.n) == (3, 3)
        assert D.field_tag == "real"
        assert overcomplete_dft(4, 2).field_tag == "complex"

    def test_atom_access(self):
        D = identity_dictionary(4)
        assert np.array_equal(D.atom(2), np.eye(4)[:, 2])
        assert np.allclose(D.atom_norms(), np.ones(4))

    def test_correlation_rows_rejects_zero_atom(self):
        D = Dictionary(np.column_stack([np.zeros(3), np.ones(3)]))
        with pytest.raises(ValueError):
            D.correlation_rows(np.array([1]))

    def test_neighbor_table_caches(self):
        D = overcomplete_dft(8, 2)
        t1 = D.neighbor_table(0.3)
        t2 = D.neighbor_table(0.3)
        assert t1 is t2


class TestLayout:
    """Every dictionary stores its matrix column-major; only a column-major
    input is kept without a copy."""

    @staticmethod
    def _inputs():
        rng = rng_from(81)
        real = rng.standard_normal((6, 9))
        wide = rng.standard_normal((12, 27))
        cplx = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
        return {
            "c-order": real,
            "f-order": np.asfortranarray(real),
            "strided": wide[::2, ::3],
            "complex-c-order": cplx,
            "complex-f-order": np.asfortranarray(cplx),
        }

    @pytest.mark.parametrize("name", ["c-order", "f-order", "strided", "complex-c-order",
                                      "complex-f-order"])
    def test_matrix_is_column_major_and_equals_its_input(self, name):
        src = self._inputs()[name]
        D = Dictionary(src)
        assert D.matrix.flags.f_contiguous
        assert D.matrix.dtype == src.dtype
        assert np.array_equal(D.matrix, src)
        assert D.matrix.tobytes(order="F") == src.tobytes(order="F")

    @pytest.mark.parametrize("name", ["f-order", "complex-f-order"])
    def test_a_column_major_input_is_kept_without_a_copy(self, name):
        src = self._inputs()[name]
        assert Dictionary(src).matrix is src

    @pytest.mark.parametrize("name", ["c-order", "strided", "complex-c-order"])
    def test_any_other_input_is_copied(self, name):
        src = self._inputs()[name]
        D = Dictionary(src)
        assert not np.shares_memory(D.matrix, src)
        src[0, 0] += 1.0
        assert not np.array_equal(D.matrix, src)

    def test_overcomplete_dft_builds_without_a_copy(self):
        D = overcomplete_dft(8, 4)
        # the matrix is the transpose view of the array it was computed in
        assert D.matrix.flags.f_contiguous and not D.matrix.flags.owndata
        assert D.matrix.base.shape == (32, 8) and D.matrix.base.flags.c_contiguous


class TestOvercompleteDft:
    def test_atom_formula(self):
        d, r = 8, 4
        D = overcomplete_dft(d, r)
        n = d * r
        t = np.arange(d)
        for j in (0, 1, n - 1, n // 2):
            expected = np.exp(2j * np.pi * t * j / n) / np.sqrt(d)
            assert np.allclose(D.atom(j), expected, atol=1e-12)

    def test_unit_norm_atoms(self):
        D = overcomplete_dft(16, 4)
        assert np.allclose(D.atom_norms(), np.ones(D.n), atol=1e-12)

    def test_redundancy_one_is_unitary(self):
        D = overcomplete_dft(8, 1)
        G = D.matrix.conj().T @ D.matrix
        assert np.allclose(G, np.eye(8), atol=1e-12)

    def test_gram_magnitudes_are_circulant(self):
        # |<d_i, d_j>| depends only on (i - j) mod n
        for d in (4, 16, 64):
            D = overcomplete_dft(d, 2)
            n = D.n
            G = np.abs(D.matrix.conj().T @ D.matrix)
            base = G[0]
            for i in range(1, n):
                assert np.allclose(G[i], np.roll(base, i), atol=1e-10)

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            overcomplete_dft(0, 4)
        with pytest.raises(ValueError):
            overcomplete_dft(8, 0)


class TestOrthogonalFamilies:
    def test_identity(self):
        D = identity_dictionary(5)
        assert np.array_equal(D.matrix, np.eye(5))
        assert D.kind == "identity" and D.unit_norm

    def test_random_orthogonal_is_orthogonal(self):
        D = random_orthogonal_dictionary(12, seed=3)
        assert np.allclose(D.matrix.T @ D.matrix, np.eye(12), atol=1e-10)

    def test_random_orthogonal_reproducible(self):
        A = random_orthogonal_dictionary(6, seed=9).matrix
        B = random_orthogonal_dictionary(6, seed=9).matrix
        C = random_orthogonal_dictionary(6, seed=10).matrix
        assert np.array_equal(A, B)
        assert not np.array_equal(A, C)


class TestGaussianMeasurements:
    def test_reproducible(self):
        A = gaussian_measurements(7, 5, seed=2).matrix
        B = gaussian_measurements(7, 5, seed=2).matrix
        assert np.array_equal(A, B)

    def test_column_energy_near_one(self):
        model = gaussian_measurements(200, 40, seed=4)
        norms = np.linalg.norm(model.matrix, axis=0)
        assert norms.min() > 0.9 and norms.max() < 1.1

    def test_complex_field(self):
        model = gaussian_measurements(200, 10, seed=5, field_tag="complex")
        assert np.iscomplexobj(model.matrix)
        norms = np.linalg.norm(model.matrix, axis=0)
        assert norms.min() > 0.9 and norms.max() < 1.1

    def test_real_entries_have_variance_one_over_m(self):
        m, d = 64, 512
        M = gaussian_measurements(m, d, seed=6).matrix
        assert M.dtype == np.float64 and M.shape == (m, d) and M.flags.c_contiguous
        tol = 6 * np.sqrt(2 / M.size)  # relative sd of a sample second moment
        assert abs(M.mean()) * np.sqrt(m) < 6 / np.sqrt(M.size)
        assert abs(np.mean(M**2) * m - 1) < tol

    def test_complex_entries_are_circular_with_variance_one_over_m(self):
        m, d = 64, 512
        M = gaussian_measurements(m, d, seed=7, field_tag="complex").matrix
        assert M.dtype == np.complex128 and M.shape == (m, d) and M.flags.c_contiguous
        tol = 6 * np.sqrt(2 / M.size)
        assert abs(np.mean(M.real**2) * 2 * m - 1) < tol
        assert abs(np.mean(M.imag**2) * 2 * m - 1) < tol
        assert abs(np.mean(M**2)) * m < tol  # E[z^2] = 0 for a circular z
        assert abs(M.mean()) * np.sqrt(m) < 6 / np.sqrt(M.size)

    def test_validation(self):
        with pytest.raises(ValueError):
            gaussian_measurements(0, 3, seed=1)
        with pytest.raises(ValueError):
            gaussian_measurements(3, 3, seed=1, field_tag="rational")


class TestCorrelationTools:
    def test_profile_sorted_and_sized(self):
        D = overcomplete_dft(16, 4)
        p = gram_profile(D, 5)
        assert p.shape == (D.n - 1,)
        assert np.all(np.diff(p) <= 0)

    def test_profile_max_equals_coherence(self):
        D = overcomplete_dft(16, 4)
        mu = coherence(D)
        tops = [gram_profile(D, i)[0] for i in range(D.n)]
        assert abs(max(tops) - mu) <= 1e-12

    def test_unitary_coherence_zero(self):
        assert coherence(identity_dictionary(6)) <= 1e-12
        assert coherence(overcomplete_dft(8, 1)) <= 1e-9

    def test_profile_bounds(self):
        D = overcomplete_dft(32, 4)
        p = gram_profile(D, 0)
        assert p[0] <= 1.0 + 1e-12
        assert p[-1] >= 0.0

    def test_profile_index_checked(self):
        with pytest.raises(IndexError):
            gram_profile(identity_dictionary(3), 3)


class TestContainer:
    def test_matrix_round_trip(self, tmp_path):
        rng = rng_from(71)
        A = rng.standard_normal((5, 3))
        path = tmp_path / "a.sgc"
        save_container(path, A, kind="custom")
        B, meta = load_container(path)
        assert np.array_equal(A, B)
        assert meta.field_tag == "real"
        assert meta.shape == (5, 3)

    def test_complex_round_trip(self, tmp_path):
        rng = rng_from(72)
        A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        path = tmp_path / "c.sgc"
        save_container(path, A)
        B, meta = load_container(path)
        assert np.array_equal(A, B)
        assert meta.field_tag == "complex"

    def test_vector_saved_as_column(self, tmp_path):
        v = np.array([1.0, -2.0, 3.5])
        path = tmp_path / "v.sgc"
        save_container(path, v)
        B, meta = load_container(path)
        assert B.shape == (3, 1)
        assert np.array_equal(B[:, 0], v)

    def test_dictionary_round_trip(self, tmp_path):
        D = overcomplete_dft(8, 4)
        path = tmp_path / "d.sgc"
        save_dictionary(path, D)
        E = load_dictionary(path)
        assert np.array_equal(D.matrix, E.matrix)
        assert (E.kind, E.redundancy, E.unit_norm) == ("dft", 4, True)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sgc"
        save_container(path, np.eye(2))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            load_container(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "short.sgc"
        save_container(path, np.eye(3))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(ValueError, match="payload"):
            load_container(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "stub.sgc"
        path.write_bytes(b"SGC1")
        with pytest.raises(ValueError, match="header"):
            load_container(path)

    def test_three_dim_payload_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_container(tmp_path / "x.sgc", np.zeros((2, 2, 2)))
