"""Eps pursuits on dictionaries whose every eps-closure is the atom alone.

Below coherence 1 - eps^2 no atom has a neighbour, so zeta = 1 and the
closure of a set of picks is the picks themselves. The masked pursuit then
excludes exactly its own picks, which is what OMP's table-free pursuit does:
eps-OMP, eps-thresholding and eps_omp_recover return its supports, and
sscosamp with eps-OMP repeats sscosamp with OMP bit for bit. On a
dictionary with a neighbour (a duplicated atom, zeta = 2, or the 4x DFT,
zeta = 3) the closures hold the neighbours.
"""

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    HaltingRule,
    SelectionScheme,
    SSCoSaMPConfig,
    coherence,
    eps_omp_recover,
    eps_omp_select,
    eps_threshold_select,
    ls_synthesize,
    omp_select,
    overcomplete_dft,
    rng_from,
    sscosamp,
    threshold_select,
    zeta_factor,
)
from sigspace.linalg import _adjoint_apply, _matmul
from sigspace.projections import _greedy, _greedy_over_atoms

EPS = float(np.sqrt(0.1))


def _draw(rng, shape, complex_field):
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _incoherent(seed, complex_field, d=48, n=96):
    atoms = _draw(rng_from(seed), (d, n), complex_field)
    atoms /= np.linalg.norm(atoms, axis=0)
    D = Dictionary(atoms, unit_norm=True)
    assert coherence(D) < 1.0 - EPS**2
    return D


def _duplicated(seed):
    atoms = _draw(rng_from(seed), (16, 24), False)
    atoms /= np.linalg.norm(atoms, axis=0)
    atoms[:, 17] = atoms[:, 6]
    return Dictionary(atoms, unit_norm=True)


def _problem(D, seed):
    """A 4-sparse signal of D, its measurements by a Gaussian M and a little noise."""
    rng = rng_from(seed)
    complex_field = D.field_tag == "complex"
    m = D.d // 2
    support = np.sort(rng.choice(D.n, size=4, replace=False))
    x = D.matrix[:, support] @ _draw(rng, 4, complex_field)
    M = rng.standard_normal((m, D.d)) / np.sqrt(m)
    y = _matmul(M, x) + 1e-3 * _draw(rng, m, complex_field)
    return x, M, y


CASES = [(seed, complex_field) for seed in (11, 12, 13) for complex_field in (False, True)]


@pytest.mark.parametrize("seed,complex_field", CASES)
def test_incoherent_tables_are_singletons(seed, complex_field):
    D = _incoherent(seed, complex_field)
    table = D.neighbor_table(EPS)
    assert all(hits.tolist() == [i] for i, hits in enumerate(table))
    assert table.zeta == 1
    assert zeta_factor(SelectionScheme("eps-omp", 2, eps=EPS), D) == 1


@pytest.mark.parametrize("seed,complex_field", CASES)
def test_eps_selections_return_the_table_free_supports(seed, complex_field):
    D = _incoherent(seed, complex_field)
    rng = rng_from(seed + 100)
    table = D.neighbor_table(EPS)
    for k in (1, 3, 8, 24):
        z = _draw(rng, D.d, complex_field)
        omp = omp_select(D, z, k)
        assert eps_omp_select(D, z, k, EPS) == omp
        # the masked pursuit over the singleton table: the same picks and closure
        picks, closure = _greedy_over_atoms(D, z, k, table)
        assert picks == closure == omp
        thr = eps_threshold_select(D, z, k, EPS)
        assert thr == threshold_select(D, z, k)
        picks, closure = _greedy_over_atoms(D, z, k, table, refit=False)
        assert picks == closure == thr


@pytest.mark.parametrize("seed,complex_field", CASES)
def test_eps_omp_recover_returns_the_table_free_pursuit(seed, complex_field):
    D = _incoherent(seed, complex_field)
    _, M, y = _problem(D, seed + 200)
    x_hat, support = eps_omp_recover(y, M, D, 6, EPS)
    pursuit = (
        (M.shape[0], D.n),
        lambda i: _matmul(M, D.matrix[:, i]),
        lambda r: D.analysis(_adjoint_apply(M, r)),
        y,
        6,
    )
    plain = _greedy(*pursuit)
    masked = _greedy(*pursuit, D.neighbor_table(EPS))
    assert support == plain[0] == plain[1] == masked[0] == masked[1]
    assert x_hat.tobytes() == ls_synthesize(M, D.matrix, support, y).tobytes()


@pytest.mark.parametrize("seed,complex_field", CASES)
def test_sscosamp_with_eps_omp_repeats_omp_bit_for_bit(seed, complex_field):
    D = _incoherent(seed, complex_field)
    x, M, y = _problem(D, seed + 300)
    halting = HaltingRule(max_iters=12)
    runs = [
        sscosamp(y, M, D, SSCoSaMPConfig.for_selector(selector, 4, eps=EPS, halting=halting), x)
        for selector in ("omp", "eps-omp")
    ]
    a, b = runs
    assert a.estimate.tobytes() == b.estimate.tobytes()
    assert a.support == b.support
    assert (a.iterations, a.stop_reason, a.residual_norm, a.trace) == (
        b.iterations, b.stop_reason, b.residual_norm, b.trace)


def test_a_duplicated_atom_keeps_its_closure():
    D = _duplicated(21)
    assert zeta_factor(SelectionScheme("eps-omp", 1, eps=EPS), D) == 2
    z = D.atom(6) + 0.01 * D.atom(2)
    for select in (eps_omp_select, eps_threshold_select):
        assert {6, 17} <= set(select(D, z, 2, EPS).indices)
    M = rng_from(22).standard_normal((32, 16)) / np.sqrt(32)
    _, support = eps_omp_recover(M @ z, M, D, 2, EPS)
    assert {6, 17} <= set(support.indices)


def test_the_dft_closures_hold_the_neighbours():
    D = overcomplete_dft(32, 4)
    assert zeta_factor(SelectionScheme("eps-threshold", 1, eps=EPS), D) == 3
    j = 77
    for select in (eps_omp_select, eps_threshold_select):
        assert set(select(D, D.atom(j), 1, EPS).indices) == {j - 1, j, j + 1}
    # whichever atom the measured pursuit picks, its closure is three adjacent atoms
    M = rng_from(23).standard_normal((24, 32)) / np.sqrt(24)
    _, support = eps_omp_recover(_matmul(M, D.atom(j)), M, D, 1, EPS)
    lo = support.indices[0]
    assert support.indices == (lo, lo + 1, lo + 2)


def test_zeta_factor_reads_the_closure_size_decided_with_the_table():
    cases = ((_incoherent(31, False), 1), (_duplicated(32), 2), (overcomplete_dft(16, 4), 3))
    for D, zeta in cases:
        for kind in ("eps-omp", "eps-threshold"):
            assert zeta_factor(SelectionScheme(kind, 2, eps=EPS), D) == zeta
        table = D.neighbor_table(EPS)
        assert table.zeta == zeta == max(len(hits) for hits in table)
        assert D.neighbor_table(EPS) is table
        assert zeta_factor(SelectionScheme("omp", 2), D) == 1
