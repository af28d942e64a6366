"""The greedy core's incremental re-fit against the dense SVD projection.

``projections._Residual`` keeps z - P z through an orthonormal basis that
grows by one vector per added column. After every added column its residual
must equal ``z - project(A, picks, z)``, its basis must stay orthonormal, and
a column already in the span (a duplicated atom, any column past the rank of
a rank-deficient dictionary, a zero column) must add no basis vector and no
NaN. Given Gram columns, the correlations it tracks must equal A^H r.

Dense dictionaries feed the greedy core their cached Gram columns
(``Dictionary.gram_column``); the overcomplete DFT, the measured atoms of
``eps_omp_recover`` and eps-thresholding do not.
"""

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    SupportSet,
    eps_omp_recover,
    eps_omp_select,
    eps_threshold_select,
    omp_select,
    orthonormal_range,
    overcomplete_dft,
    project,
    rank_rcond,
    rng_from,
)
from sigspace import projections
from sigspace.dictionaries import SALT_NOISE, seed_sequence
from sigspace.experiments import add_noise
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


MATRICES = {
    "real": lambda: _unit_columns(_noise(rng_from(401), (12, 24), False)),
    "complex": lambda: _unit_columns(_noise(rng_from(402), (12, 24), True)),
    "dft4": lambda: overcomplete_dft(16, 4).matrix,
    "duplicated": lambda: _duplicated(403),
    "rank4": lambda: _rank_deficient(404),
    "zero": lambda: _zero_atoms(412),
}


def _pick_order(A, seed):
    """A random order of more columns than the rank, its first column picked
    again third."""
    d, n = A.shape
    order = [int(i) for i in rng_from(seed).permutation(n)[: min(n, d + 3)]]
    order.insert(2, order[0])
    return order


@pytest.mark.parametrize("name", sorted(MATRICES))
@pytest.mark.parametrize(
    "complex_signal, gram",
    [(False, False), (True, False), (False, True), (True, True)],
    ids=["False", "True", "False-gram", "True-gram"],
)
def test_residual_tracks_the_dense_projection(name, complex_signal, gram):
    A = MATRICES[name]()
    rng = rng_from(405)
    z = _noise(rng, A.shape[0], complex_signal)
    picks = _pick_order(A, 406)
    if name == "zero":
        assert {2, 9} & set(picks)
    dtype = np.result_type(A, z)
    AH = A.conj().T
    if gram:
        fit = projections._Residual(z, dtype, len(picks), rank_rcond(A.shape), AH @ z)
    else:
        fit = projections._Residual(z, dtype, len(picks), rank_rcond(A.shape))
        assert fit.c is None
    z_norm = np.linalg.norm(z)
    c_tol = TOL * max(z_norm, 1.0) * np.linalg.norm(A, axis=0).max()
    for j, i in enumerate(picks, start=1):
        before = fit.rank
        fit.add(A[:, i], AH @ A[:, i] if gram else None)
        T = SupportSet.from_iterable(picks[:j], A.shape[1])
        assert np.isfinite(fit.r).all()
        assert np.linalg.norm(fit.r - (z - project(A, T, z))) <= TOL * z_norm
        if gram:
            assert np.isfinite(fit.c).all()
            assert np.linalg.norm(fit.c - AH @ fit.r) <= c_tol
        Q = fit.basis
        assert Q.shape == (A.shape[0], fit.rank)
        assert np.linalg.norm(Q.conj().T @ Q - np.eye(fit.rank), 2) <= TOL
        rank = orthonormal_range(A[:, T.as_array()]).shape[1]
        assert fit.rank == rank
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
        assert D._norm_cache[i] == np.linalg.norm(D.matrix[:, i])


def test_paths_without_gram_columns_leave_the_cache_empty():
    z = rng_from(414).standard_normal(16)
    D = overcomplete_dft(16, 4)
    omp_select(D, z, 5)
    eps_omp_select(D, z, 5, 0.3)
    assert len(D._gram_cache) == 0
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
