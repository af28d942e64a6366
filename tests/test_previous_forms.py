"""The paths of a Figure 2 pool job against verbatim copies of their previous forms.

The overcomplete DFT is stored column-major, its Gram columns are views into
a doubled row, TrialConfig's digest reads the fields without
dataclasses.asdict, and SupportSet checks its indices with map. None of these
may change a bit of what they return: each is compared here with a literal
copy of the code it replaced. The copies run
on the same machine as the library, so a BLAS product that rounds differently
elsewhere changes both sides alike.
"""

import hashlib
import json
import re
from dataclasses import asdict

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    HaltingRule,
    SupportSet,
    TrialConfig,
    eps_omp_recover,
    fig_variants,
    gaussian_measurements,
    gen_sparse_signal,
    load_dictionary,
    overcomplete_dft,
    save_dictionary,
    seed_sequence,
)
from sigspace.dictionaries import SALT_MEASUREMENT
from sigspace.experiments import run_variant
from sigspace.linalg import (
    captured_and_residual_sq,
    ls_synthesize,
    project,
    top_k_indices,
)
from sigspace.projections import threshold_select

# ---------------------------------------------------------------------------
# previous forms


def prev_overcomplete_dft_matrix(d, redundancy):
    n = d * redundancy
    t = np.arange(d)[:, None]
    j = np.arange(n)[None, :]
    return np.exp((2j * np.pi / n) * (t * j)) / np.sqrt(d)


def prev_dft_gram_column(D, i):
    g = D.analysis(D.matrix[:, 0])
    g.flags.writeable = False
    cut = D.n - i
    g = np.concatenate((g[cut:], g[:cut]))
    g.flags.writeable = False
    return g


def prev_digest(cfg):
    blob = json.dumps(asdict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def prev_support_indices(indices, universe):
    """The indices the previous SupportSet.__post_init__ kept, or the
    ValueError it raised."""
    idx = indices
    if any(not isinstance(i, int) for i in idx):
        idx = tuple(int(i) for i in idx)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("support indices must be strictly increasing")
    if idx and (idx[0] < 0 or idx[-1] >= universe):
        raise ValueError(f"support indices must lie in [0, {universe}), got {idx[0]}..{idx[-1]}")
    if universe < 0:
        raise ValueError("universe size must be nonnegative")
    return idx


# ---------------------------------------------------------------------------
# the overcomplete DFT


@pytest.mark.parametrize("d", [1, 2, 7, 16, 31, 64, 256])
@pytest.mark.parametrize("redundancy", [1, 2, 3, 4])
def test_dft_has_the_bytes_of_the_previous_formula_column_major(d, redundancy):
    mat = overcomplete_dft(d, redundancy).matrix
    assert mat.flags.f_contiguous
    assert mat.tobytes() == prev_overcomplete_dft_matrix(d, redundancy).tobytes()


def test_dft_atoms_are_contiguous_and_gathers_keep_their_layout():
    D = overcomplete_dft(16, 4)
    prev = prev_overcomplete_dft_matrix(16, 4)
    assert D.atom(5).flags.c_contiguous
    idx = np.array([3, 4, 5, 40])
    cols = D.matrix[:, idx]
    assert cols.strides == prev[:, idx].strides
    assert cols.tobytes() == prev[:, idx].tobytes()


@pytest.mark.parametrize("d", [4, 16])
def test_dft_gram_columns_equal_the_previous_form_and_the_rolled_row(d):
    D = overcomplete_dft(d, 4)
    g0 = D.analysis(D.atom(0))
    for i in range(D.n):
        g = D.gram_column(i)
        assert not g.flags.writeable
        assert g.shape == (D.n,)
        assert g.tobytes() == np.roll(g0, i).tobytes()
        assert g.tobytes() == prev_dft_gram_column(D, i).tobytes()
    with pytest.raises(ValueError):
        D.gram_column(1)[0] = 0.0


@pytest.mark.parametrize("form", ["dft", "dense"])
def test_gram_column_indexes_like_a_matrix_column(form):
    dft = overcomplete_dft(4, 4)
    D = dft if form == "dft" else Dictionary(dft.matrix)
    n = D.n
    for i in (n, n + 1, -n - 1):
        with pytest.raises(IndexError):
            D.gram_column(i)
    for i in (-1, -n):
        assert D.gram_column(i).tobytes() == D.gram_column(n + i).tobytes()
    assert len(D._gram_cache) == (1 if form == "dft" else 2)


# ---------------------------------------------------------------------------
# built and loaded dictionaries


def test_built_and_loaded_dfts_share_a_layout_and_recover_alike(tmp_path):
    built = overcomplete_dft(32, 4)
    save_dictionary(tmp_path / "dft.sgc", built)
    loaded = load_dictionary(tmp_path / "dft.sgc")
    assert loaded._fft
    assert loaded.matrix.flags.f_contiguous and built.matrix.flags.f_contiguous
    assert loaded.matrix.strides == built.matrix.strides
    assert loaded.matrix.tobytes() == built.matrix.tobytes()
    halting = HaltingRule(max_iters=20)
    for trial, mode in enumerate(("clustered", "separated")):
        M = gaussian_measurements(20, 32, seed_sequence(5, SALT_MEASUREMENT, 20, trial)).matrix
        x, _, _ = gen_sparse_signal(built, 3, mode, seed_sequence(5, 1, trial))
        y = M @ x
        for variant in fig_variants():
            a = run_variant(variant, y, M, built, 3, halting)
            b = run_variant(variant, y, M, loaded, 3, halting)
            assert a.estimate.tobytes() == b.estimate.tobytes(), (mode, variant.label)
            assert a.support == b.support
            assert (a.iterations, a.stop_reason, a.residual_norm, a.trace) == (
                b.iterations, b.stop_reason, b.residual_norm, b.trace)


@pytest.mark.parametrize("complex_field", [False, True])
def test_fits_and_projections_keep_their_bytes_on_the_column_major_copy(complex_field):
    # a dense dictionary built from a row-major array now holds its column-major
    # copy; on a given support the fit, the projection and the captured energy
    # must not change a bit (D^H r itself may round differently)
    rng = np.random.default_rng([43, complex_field])

    def draw(shape):
        if complex_field:
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return rng.standard_normal(shape)

    for _ in range(20):
        d, n = (int(v) for v in rng.integers(8, 200, size=2))
        m = int(rng.integers(2, d + 1))
        rows = draw((d, n))
        cols = Dictionary(rows).matrix
        assert cols.flags.f_contiguous and not rows.flags.f_contiguous
        M, y, z = rng.standard_normal((m, d)), draw(m), draw(d)
        T = SupportSet.from_iterable(rng.choice(n, int(rng.integers(1, min(n, 40) + 1)),
                                                replace=False), n)
        assert ls_synthesize(M, cols, T, y).tobytes() == ls_synthesize(M, rows, T, y).tobytes()
        assert project(cols, T, z).tobytes() == project(rows, T, z).tobytes()
        assert captured_and_residual_sq(cols, T, z) == captured_and_residual_sq(rows, T, z)


@pytest.mark.parametrize("complex_field", [False, True])
def test_built_and_loaded_dense_dictionaries_recover_alike(tmp_path, complex_field):
    # a row-major input is stored column-major, the layout a container loads in
    rng = np.random.default_rng([41, complex_field])
    atoms = rng.standard_normal((32, 64))
    if complex_field:
        atoms = atoms + 1j * rng.standard_normal((32, 64))
    atoms /= np.linalg.norm(atoms, axis=0)
    built = Dictionary(atoms, unit_norm=True)
    save_dictionary(tmp_path / "dense.sgc", built)
    loaded = load_dictionary(tmp_path / "dense.sgc")
    assert not loaded._fft
    assert loaded.matrix.strides == built.matrix.strides
    assert loaded.matrix.tobytes() == built.matrix.tobytes()
    halting = HaltingRule(max_iters=20)
    for trial in range(2):
        M = gaussian_measurements(20, 32, seed_sequence(6, SALT_MEASUREMENT, 20, trial)).matrix
        support = np.sort(rng.choice(64, size=3, replace=False))
        x = built.matrix[:, support] @ rng.standard_normal(3)
        y = M @ x
        for variant in fig_variants():
            a = run_variant(variant, y, M, built, 3, halting)
            b = run_variant(variant, y, M, loaded, 3, halting)
            assert a.estimate.tobytes() == b.estimate.tobytes(), (trial, variant.label)
            assert a.support == b.support
            assert (a.iterations, a.stop_reason, a.residual_norm, a.trace) == (
                b.iterations, b.stop_reason, b.residual_norm, b.trace)
        for eps in (0.0, float(np.sqrt(0.1))):
            xa, sa = eps_omp_recover(y, M, built, 3, eps)
            xb, sb = eps_omp_recover(y, M, loaded, 3, eps)
            assert xa.tobytes() == xb.tobytes() and sa == sb


# ---------------------------------------------------------------------------
# trial digests and supports


def _configs():
    for variant in fig_variants():
        for mode in ("clustered", "separated"):
            yield TrialConfig(d=256, redundancy=4, k=8, m=96, variant=variant, mode=mode,
                              noise_level=0.25, base_seed=2**40 + 3, trial_index=11,
                              success_tol=1e-3, max_iters=30)


def test_digest_equals_the_asdict_form_for_every_fig2_variant():
    for cfg in _configs():
        assert cfg.digest() == prev_digest(cfg)


def test_digest_is_pinned():
    # recorded with the asdict form; a record's config_hash must not move
    cfg = TrialConfig(d=256, redundancy=4, k=8, m=64, variant=fig_variants()[0],
                      mode="clustered", noise_level=0.0, base_seed=7, trial_index=0)
    assert cfg.digest() == "cee517b0bb08be3e"


@pytest.mark.parametrize("indices", [
    (), (0,), (3,), (0, 1, 2), (2, 5, 9), tuple(range(72)),
    (np.int64(1), np.int64(4)), (np.intp(0), 3, np.int32(7)), (True, 2),
    (np.uint8(9),), (2, 1), (1, 1), (0, 4, 4, 6), (-1, 0), (0, 10), (np.int64(10),),
    (3, np.int64(2)),
])
def test_support_checks_equal_the_generator_form(indices):
    try:
        want = prev_support_indices(indices, 10)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            SupportSet(indices, 10)
        return
    got = SupportSet(indices, 10).indices
    assert got == want
    assert [type(i) for i in got] == [type(i) for i in want]
    assert all(type(i) is int for i in got if not isinstance(i, bool))


def test_threshold_supports_hold_python_ints():
    D = overcomplete_dft(16, 4)
    z = np.cos(np.arange(16) * 0.7) + 0.1 * np.arange(16)
    T = threshold_select(D, z, 5)
    assert all(type(i) is int for i in T.indices)
    assert T.indices == tuple(int(i) for i in top_k_indices(np.abs(D.analysis(z)), 5))
