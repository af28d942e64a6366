"""The greedy core's incremental re-fits against the dense SVD projection.

``projections._Residual`` keeps z - P z through an orthonormal basis that
grows by one vector per added column. After every added column its residual
must equal ``z - project(A, picks, z)``, its basis must stay orthonormal, and
a column already in the span (a duplicated atom, any column past the rank of
a rank-deficient dictionary, a zero column) must add no basis vector and no
NaN.

``projections._GramResidual``, the re-fit of every re-fitting pursuit, keeps
only A^H r while the picks are well conditioned and hands a pick near the
span of the earlier ones to a signal-space ``_Residual``. After every added column
its A^H r must equal ``A^H (z - project(A, picks, z))``, its rank must equal
that of the picked columns and never exceed that of A, and an exact
duplicate of a picked atom must add no row. It runs on the random pick
orders of ``_Residual`` and, as extra ids, on OMP's picks past the rank.
The signals of the dense twin of the 16x overcomplete DFT, whose
neighbouring atoms are nearly collinear, are clustered.

Every dictionary feeds the greedy core the Gram columns of its own atoms
(``Dictionary.gram_column``): a dense one caches each column it computes,
the overcomplete DFT keeps one row of its circulant Gram matrix and rolls
it. The measured atoms of ``eps_omp_recover`` compute theirs per pick and
never enter that cache, and eps-thresholding reads none.
"""

import math

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    SupportSet,
    eps_omp_recover,
    eps_omp_select,
    eps_threshold_select,
    load_dictionary,
    omp_select,
    orthonormal_range,
    overcomplete_dft,
    project,
    rank_rcond,
    rng_from,
    save_dictionary,
)
from sigspace import projections
from sigspace.dictionaries import SALT_NOISE, seed_sequence
from sigspace.experiments import add_noise, gen_sparse_signal
from sigspace.linalg import _adjoint_apply

TOL = 1e-12


def _noise(rng, shape, complex_field):
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _unit_columns(A):
    return A / np.linalg.norm(A, axis=0)


def _duplicated(seed):
    A = _unit_columns(rng_from(seed).standard_normal((10, 16)))
    A[:, [11, 12]] = A[:, [5, 5]]
    return A


def _zero_atoms(seed):
    A = _unit_columns(rng_from(seed).standard_normal((10, 14)))
    A[:, [2, 9]] = 0.0
    return A


def _rank_deficient(seed):
    rng = rng_from(seed)
    return _unit_columns(rng.standard_normal((10, 4)) @ rng.standard_normal((4, 20)))


def _rank_deficient_scaled(seed):
    """_rank_deficient with column norms from 1e-3 to 1e3: the rank tests
    are relative to each column's own norm."""
    return _rank_deficient(seed) * np.logspace(-3, 3, 20)[rng_from(seed).permutation(20)]


MATRICES = {
    "real": lambda: _unit_columns(_noise(rng_from(401), (12, 24), False)),
    "complex": lambda: _unit_columns(_noise(rng_from(402), (12, 24), True)),
    "dft4": lambda: overcomplete_dft(16, 4).matrix,
    "duplicated": lambda: _duplicated(403),
    "rank4": lambda: _rank_deficient(404),
    "rank4-scaled": lambda: _rank_deficient_scaled(417),
    "zero": lambda: _zero_atoms(412),
    "dft16": lambda: overcomplete_dft(16, 16).matrix,
}


def _pick_order(A, seed):
    """A random order of more columns than the rank, its first column picked
    again third."""
    d, n = A.shape
    order = [int(i) for i in rng_from(seed).permutation(n)[: min(n, d + 3)]]
    order.insert(2, order[0])
    return order


def _omp_order(A, z):
    """OMP's picks for z past the rank of A, its first pick picked again
    third; OMP runs on the dense residual z - project(A, picks, z)."""
    d, n = A.shape
    picks = []
    for _ in range(min(n, d + 3)):
        corr = np.abs(A.conj().T @ (z - project(A, SupportSet.from_iterable(picks, n), z)))
        corr[picks] = -1.0
        picks.append(int(corr.argmax()))
    picks.insert(2, picks[0])
    return picks


def _clustered_signal(A, complex_signal):
    """A noisy clustered 4-sparse signal of A, or its real part."""
    x, _, _ = gen_sparse_signal(Dictionary(A), 4, "clustered", 416)
    z = add_noise(x, 0.05, seed_sequence(416, SALT_NOISE))
    return z if complex_signal else z.real.copy()


@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize(
    "complex_signal, gram, omp_order",
    [(False, False, False), (True, False, False), (False, True, False), (True, True, False),
     (False, True, True), (True, True, True)],
    ids=["False", "True", "False-gram", "True-gram", "False-gram-omp", "True-gram-omp"],
)
def test_residual_tracks_the_dense_projection(name, complex_signal, gram, omp_order):
    A = MATRICES[name]()
    if name == "dft16":
        z = _clustered_signal(A, complex_signal)
    else:
        z = _noise(rng_from(405), A.shape[0], complex_signal)
    picks = _omp_order(A, z) if omp_order else _pick_order(A, 406)
    if name == "zero":
        assert {2, 9} & set(picks)
    dtype = np.result_type(A, z)
    AH = A.conj().T
    if gram:
        fit = projections._GramResidual(
            z, AH @ z, lambda i: A[:, i], lambda r: AH @ r, dtype, len(picks), rank_rcond(A.shape)
        )
    else:
        fit = projections._Residual(z, dtype, len(picks), rank_rcond(A.shape))
    z_norm = np.linalg.norm(z)
    c_tol = TOL * max(z_norm, 1.0) * np.linalg.norm(A, axis=0).max()
    rank_A = np.linalg.matrix_rank(A)
    for j, i in enumerate(picks, start=1):
        before = fit.rank
        if gram:
            fit.add(i, AH @ A[:, i])
        else:
            fit.add(A[:, i])
        T = SupportSet.from_iterable(picks[:j], A.shape[1])
        r = z - project(A, T, z)
        rank = orthonormal_range(A[:, T.as_array()]).shape[1]
        if gram:
            assert np.isfinite(fit.c).all()
            assert np.linalg.norm(fit.c - AH @ r) <= c_tol
        else:
            assert np.isfinite(fit.r).all()
            assert np.linalg.norm(fit.r - r) <= TOL * z_norm
            Q = fit.basis
            assert Q.shape == (A.shape[0], fit.rank)
            assert np.linalg.norm(Q.conj().T @ Q - np.eye(fit.rank), 2) <= TOL
        assert fit.rank == rank <= rank_A
        if any(A[:, i].tobytes() == A[:, p].tobytes() for p in picks[: j - 1]):
            assert fit.rank == before
        assert fit.rank - before in (0, 1)


def test_gram_column_is_the_analysis_of_the_atom():
    for A in (MATRICES["real"](), MATRICES["complex"]()):
        D = Dictionary(A)
        for i in (0, 7, 7, D.n - 1):
            g = D.gram_column(i)
            assert g.tobytes() == D.analysis(D.matrix[:, i]).tobytes()
            assert not g.flags.writeable


@pytest.mark.parametrize("name", ["real", "complex"])
def test_gram_cache_computes_each_column_once(name):
    D = Dictionary(MATRICES[name]())
    analysis = D.analysis
    computed = []

    def recording_analysis(r):
        if np.shares_memory(r, D.matrix):
            computed.append(next(j for j in range(D.n) if D.matrix[:, j].tobytes() == r.tobytes()))
        return analysis(r)

    D.analysis = recording_analysis
    rng = rng_from(413)
    for _ in range(20):
        z = _noise(rng, D.d, name == "complex")
        omp_select(D, z, 4)
        eps_omp_select(D, z, 4, 0.3)
        assert len(D._gram_cache) <= D.n
    assert len(computed) == len(set(computed)) == len(D._gram_cache) > D.d
    assert set(computed) == set(D._gram_cache)
    for i, g in D._gram_cache.items():
        assert g.tobytes() == analysis(D.matrix[:, i]).tobytes()
        assert not g.flags.writeable


def test_dft_gram_cache_keeps_one_row():
    z = rng_from(414).standard_normal(16)
    D = overcomplete_dft(16, 4)
    omp_select(D, z, 5)
    eps_omp_select(D, z, 5, 0.3)
    assert list(D._gram_cache) == [0]


def test_dft_gram_columns_are_the_analysis_of_the_atoms(tmp_path):
    save_dictionary(tmp_path / "dft.sgc", overcomplete_dft(8, 4))
    loaded = load_dictionary(tmp_path / "dft.sgc")
    assert loaded._fft
    for D in (overcomplete_dft(16, 4), overcomplete_dft(256, 4), loaded):
        for i in range(D.n):
            g = D.gram_column(i)
            assert not g.flags.writeable
            assert np.abs(g - D.analysis(D.matrix[:, i])).max() <= 1e-13
        assert len(D._gram_cache) == 1


def test_dft_gram_columns_are_the_cached_row_rolled():
    for d in (16, 256):
        D = overcomplete_dft(d, 4)
        g0 = D.gram_column(0)
        for i in range(D.n):
            assert D.gram_column(i).tobytes() == np.roll(g0, i).tobytes()


def test_paths_without_gram_columns_leave_the_cache_empty():
    z = rng_from(414).standard_normal(16)
    D = Dictionary(MATRICES["real"]())
    z = z[: D.d]
    eps_threshold_select(D, z, 5, 0.3)
    M = rng_from(415).standard_normal((8, D.d))
    eps_omp_recover(M @ z, M, D, 3, 0.3)
    assert len(D._gram_cache) == 0


def test_dependent_columns_add_no_vector():
    A = MATRICES["duplicated"]()
    z = rng_from(407).standard_normal(A.shape[0])
    fit = projections._Residual(z, A.dtype, 4, rank_rcond(A.shape))
    fit.add(A[:, 5])
    r = fit.r.copy()
    for column in (A[:, 11], A[:, 12], 3.0 * A[:, 5], np.zeros(A.shape[0])):
        fit.add(column)
        assert fit.rank == 1
        assert np.isfinite(fit.r).all()
        assert np.linalg.norm(fit.r - r) <= TOL * np.linalg.norm(z)


@pytest.mark.parametrize("scale", (1e-3, 1.0, 1e3))
def test_rank_cutoffs(scale):
    """The Gram path drops a column within sqrt(rcond) ||a|| of the span,
    hands one ten times farther to the signal-space re-fit, which keeps it
    (its own cutoff is rcond ||a||) and then tracks A^H r as analysis(r), and
    keeps a column at 0.5 ||a|| in coefficient space. The signal-space path
    keeps all three. Every cutoff scales with ||a||."""
    rcond = rank_rcond((3, 2))
    for distance, gram_rank, handed_over in (
        (0.3 * np.sqrt(rcond), 1, False),
        (10.0 * np.sqrt(rcond), 2, True),
        (0.5, 2, False),
    ):
        A = np.zeros((3, 2))
        A[0, 0] = scale
        A[:, 1] = scale * np.array([1.0, distance, 0.0])
        z = np.array([1.0, 2.0, 3.0])
        fit = projections._GramResidual(z, A.T @ z, lambda i: A[:, i], lambda r: A.T @ r, A.dtype, 2, rcond)
        residual = projections._Residual(z, A.dtype, 2, rcond)
        for i in range(2):
            fit.add(i, A.T @ A[:, i])
            residual.add(A[:, i])
        assert fit.rank == gram_rank
        assert residual.rank == 2
        assert (fit._residual is not None) == handed_over
        if handed_over:
            assert fit.c.tobytes() == (A.T @ residual.r).tobytes()


def test_full_span_stops_growing():
    A = MATRICES["real"]()
    z = rng_from(408).standard_normal(A.shape[0])
    d = A.shape[0]
    fit = projections._Residual(z, A.dtype, d, rank_rcond(A.shape))
    for i in range(A.shape[1]):
        fit.add(A[:, i])
    assert fit.rank == d
    assert np.linalg.norm(fit.r) <= TOL * np.linalg.norm(z)


def test_thresholding_builds_no_basis(monkeypatch):
    D = overcomplete_dft(16, 4)
    z = rng_from(409).standard_normal(D.d)

    def no_basis(*args, **kwargs):
        raise AssertionError("refit=False must not build a basis")

    monkeypatch.setattr(projections, "_Residual", no_basis)
    assert len(eps_threshold_select(D, z, 3, 0.0)) >= 3


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_adjoint_apply_matches_the_adjoint(name):
    A = MATRICES[name]()
    r = _noise(rng_from(410), A.shape[0], True)
    got = _adjoint_apply(A, r)
    assert np.linalg.norm(got - A.conj().T @ r) <= TOL * np.linalg.norm(r)


def test_every_scheme_kind_has_a_selector():
    assert set(projections._SELECTORS) == set(projections.SCHEME_KINDS)


@pytest.mark.parametrize("complex_field", (False, True))
def test_add_noise_draws(complex_field):
    v = _noise(rng_from(411), 9, complex_field)
    seed = seed_sequence(7, SALT_NOISE, 3)
    rng = np.random.Generator(np.random.PCG64(seed_sequence(7, SALT_NOISE, 3)))
    if complex_field:
        g = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    else:
        g = rng.standard_normal(9)
    expected = v + 0.25 * g / np.linalg.norm(g)
    assert add_noise(v, 0.25, seed).tobytes() == expected.tobytes()
    assert add_noise(v, 0.0, seed) is v


class _DividingGramResidual(projections._GramResidual):
    """_GramResidual with its previous row update, copied verbatim: the new
    row is written as g, h W is subtracted in place and the row is divided
    by nu."""

    def add(self, i, g):
        fit = self._residual
        if fit is None:
            rank = self.rank
            if rank == self._rows.shape[0]:
                return
            rows = self._rows[:rank]
            wi = rows[:, i]  # conj(h)
            a_sq = float(g[i].real)
            nu_sq = a_sq - float(np.vdot(wi, wi).real)
            if nu_sq <= self._rcond * a_sq:
                return
            if nu_sq >= self.NEAR_SPAN * self.NEAR_SPAN * a_sq:
                nu = math.sqrt(nu_sq)
                w = self._rows[rank]
                w[...] = g
                if rank:
                    w -= wi.conj() @ rows
                w /= nu
                s = self._s[rank] = (self._c0[i] - wi @ self._s[:rank]) / nu
                self.c -= np.multiply(w, s, out=self._ws)
                self._taken.append(i)
                self.rank += 1
                return
            fit = self._residual = projections._Residual(
                self._z, self.c.dtype, self._rows.shape[0], self._rcond)
            for j in self._taken:
                fit.add(self._column(j))
        fit.add(self._column(i))
        self.c = self._analysis(fit.r)
        self.rank = fit.rank


@pytest.mark.parametrize("name", ["real", "complex", "dft4", "dft16", "rank4-scaled"])
@pytest.mark.parametrize("complex_signal", [False, True])
def test_rows_are_scaled_with_the_bytes_of_a_division(name, complex_signal):
    """A complex row is scaled by multiplying its real and imaginary parts
    by 1 / nu, which is what dividing it by the real nu computes: every row,
    scalar and tracked A^H r must equal the dividing form's byte for byte."""
    A = MATRICES[name]()
    z = _noise(rng_from(418), A.shape[0], complex_signal)
    dtype = np.result_type(A, z)
    AH = A.conj().T
    fits = [
        kind(z, AH @ z, lambda i: A[:, i], lambda r: AH @ r, dtype, A.shape[0], rank_rcond(A.shape))
        for kind in (projections._GramResidual, _DividingGramResidual)
    ]
    for i in _omp_order(A, z):
        g = AH @ A[:, i]
        for fit in fits:
            fit.add(i, g)
        got, want = fits
        assert got.rank == want.rank
        assert got.c.tobytes() == want.c.tobytes()
        assert got._rows[: got.rank].tobytes() == want._rows[: want.rank].tobytes()
        assert got._s[: got.rank].tobytes() == want._s[: want.rank].tobytes()
    assert fits[0].rank >= 3
