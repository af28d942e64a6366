"""The shared greedy-pursuit core against hand-written reference loops.

The reference functions below are literal copies of the four loops that the
core replaced: OMP, eps-OMP and eps-thresholding with their own masking and
closure update, OMP-style schemes re-fitting through a fresh ``project`` per
pick, and the one-shot eps-OMP recovery re-fitting with ``lstsq``.

The core re-fits through an orthonormal basis that grows by one vector per
pick, so its residual differs from the references' in the last bits. While
the reference residual before a pick has a correlation above rounding level,
that does not change the pick, and the outputs must agree bit for bit. Once
the picked atoms span z (or y), or the whole range of the dictionary, every
remaining correlation is rounding noise and later picks may differ. Past that
point the picks made before it must still agree, and so must the residual of
z (or the fit to y) on the returned support, to within 1e-12 max(||z||, 1).
eps-thresholding does not re-fit and is always compared bit for bit.
"""

import sys

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    SupportSet,
    eps_omp_recover,
    eps_omp_select,
    eps_threshold_select,
    gaussian_measurements,
    ls_synthesize,
    omp_select,
    overcomplete_dft,
    project,
    rank_rcond,
    rng_from,
    seed_sequence,
)
from sigspace.dictionaries import SALT_MEASUREMENT

EPS_VALUES = (0.0, float(np.sqrt(0.1)))


# ---------------------------------------------------------------------------
# reference loops


def ref_omp_select(D, z, k):
    selected = []
    taken = np.zeros(D.n, dtype=bool)
    r = z
    for _ in range(k):
        corr = np.abs(D.matrix.conj().T @ r)
        corr[taken] = -1.0
        i = int(np.argmax(corr))
        selected.append(i)
        taken[i] = True
        T = SupportSet.from_iterable(selected, D.n)
        r = z - project(D.matrix, T, z)
    return SupportSet.from_iterable(selected, D.n)


def ref_extension_union(table, picked, n):
    mask = np.zeros(n, dtype=bool)
    for i in picked:
        mask[table[i]] = True
    return mask


def ref_eps_omp_select(D, z, k, eps):
    table = D.neighbor_table(eps)
    picked = []
    excluded = np.zeros(D.n, dtype=bool)
    r = z
    for _ in range(k):
        if excluded.all():
            break
        corr = np.abs(D.matrix.conj().T @ r)
        corr[excluded] = -1.0
        i = int(np.argmax(corr))
        picked.append(i)
        T_hat = SupportSet.from_iterable(picked, D.n)
        r = z - project(D.matrix, T_hat, z)
        excluded = ref_extension_union(table, picked, D.n)
    return SupportSet.from_iterable(np.flatnonzero(excluded), D.n)


def ref_eps_threshold_select(D, z, k, eps):
    table = D.neighbor_table(eps)
    corr = np.abs(D.matrix.conj().T @ z)
    picked = []
    excluded = np.zeros(D.n, dtype=bool)
    for _ in range(k):
        if excluded.all():
            break
        masked = np.where(excluded, -1.0, corr)
        i = int(np.argmax(masked))
        picked.append(i)
        excluded = ref_extension_union(table, picked, D.n)
    return SupportSet.from_iterable(np.flatnonzero(excluded), D.n)


def ref_eps_omp_recover(y, M, D, k, eps):
    composite = M @ D.matrix
    table = D.neighbor_table(eps)
    picked = []
    excluded = np.zeros(D.n, dtype=bool)
    dtype = np.result_type(composite, y)
    r = y.astype(dtype, copy=True)
    for _ in range(k):
        if excluded.all():
            break
        corr = np.abs(composite.conj().T @ r)
        corr[excluded] = -1.0
        i = int(np.argmax(corr))
        picked.append(i)
        excluded[table[i]] = True
        cols = composite[:, sorted(picked)]
        coef, _, _, _ = np.linalg.lstsq(cols, y, rcond=rank_rcond(cols.shape))
        r = y - cols @ coef
    support = SupportSet.from_iterable(np.flatnonzero(excluded), D.n)
    x = ls_synthesize(M, D.matrix, support, y)
    return x, support


# ---------------------------------------------------------------------------
# instances


def _noise(rng, shape, complex_field):
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _unit_columns(A):
    return A / np.linalg.norm(A, axis=0)


def gaussian_dictionary(seed, complex_field):
    return Dictionary(_unit_columns(_noise(rng_from(seed), (12, 24), complex_field)))


def duplicated_atom_dictionary(seed):
    A = _unit_columns(rng_from(seed).standard_normal((10, 16)))
    A[:, 11] = A[:, 5]
    return Dictionary(A)


def rank_deficient_dictionary(seed):
    rng = rng_from(seed)
    return Dictionary(_unit_columns(rng.standard_normal((10, 4)) @ rng.standard_normal((4, 20))))


DICTIONARIES = {
    "real": lambda: gaussian_dictionary(201, False),
    "complex": lambda: gaussian_dictionary(202, True),
    "dft4": lambda: overcomplete_dft(16, 4),
    "duplicated": lambda: duplicated_atom_dictionary(203),
    "rank4": lambda: rank_deficient_dictionary(204),
}


def signals(D, seed):
    """A zero signal, a Gaussian one, and sparse syntheses with and without noise."""
    rng = rng_from(seed)
    complex_field = D.field_tag == "complex"
    out = [np.zeros(D.d, dtype=D.matrix.dtype), _noise(rng, D.d, complex_field)]
    for sigma in (0.0, 0.05):
        support = np.sort(rng.choice(D.n, size=3, replace=False))
        z = D.matrix[:, support] @ _noise(rng, 3, complex_field)
        out.append(z + sigma * _noise(rng, D.d, complex_field))
    return out


# ---------------------------------------------------------------------------
# comparisons

TOL = 1e-12


def _clean_picks(A, residuals, z):
    """How many leading picks a reference made while some correlation of its
    residual was above rounding level; residuals[j] is its residual before
    pick j + 1. Past that point z, or all of range(A), is spanned. Exactly
    zero correlations are not rounding noise: they leave exact ties, which
    both sides break toward the lowest index."""
    level = TOL * max(np.linalg.norm(z), 1.0)
    for j, r in enumerate(residuals):
        if 0.0 < np.abs(A.conj().T @ r).max() <= level:
            return j
    return len(residuals)


def run_recording_project(monkeypatch, ref, D, z, *args):
    """ref(D, z, *args) with its residual before each of its picks.

    The reference re-fits through this module's ``project`` once after every
    pick, so the recorded residuals are exactly the ones it correlated.
    """
    fit = project
    residuals = [z]

    def recording_project(A, T, v):
        p = fit(A, T, v)
        residuals.append(v - p)
        return p

    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "project", recording_project)
        out = ref(D, z, *args)
    return out, residuals[:-1]


def run_recording_lstsq(monkeypatch, y, M, D, k, eps):
    """ref_eps_omp_recover with its residual before each of its picks.

    The reference re-fits with one ``lstsq`` after every pick, and its final
    ``ls_synthesize`` makes one more call, which is dropped.
    """
    solve = np.linalg.lstsq
    residuals = [y]

    def recording_lstsq(A, b, rcond=None):
        out = solve(A, b, rcond=rcond)
        residuals.append(b - A @ out[0])
        return out

    with monkeypatch.context() as m:
        m.setattr(np.linalg, "lstsq", recording_lstsq)
        out = ref_eps_omp_recover(y, M, D, k, eps)
    return out, residuals[:-2]


def residual(D, T, z):
    return np.linalg.norm(z - project(D.matrix, T, z))


def assert_select_matches(monkeypatch, core, ref, D, z, k, *args):
    expected, residuals = run_recording_project(monkeypatch, ref, D, z, k, *args)
    clean = _clean_picks(D.matrix, residuals, z)
    got = core(D, z, k, *args)
    if clean == len(residuals):
        assert got == expected
        return
    if clean:
        assert core(D, z, clean, *args) == ref(D, z, clean, *args)
    assert abs(residual(D, got, z) - residual(D, expected, z)) <= TOL * max(
        np.linalg.norm(z), 1.0
    )


@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_omp_matches_reference(name, monkeypatch):
    D = DICTIONARIES[name]()
    for z in signals(D, 301):
        for k in (1, 3, 5):
            assert_select_matches(monkeypatch, omp_select, ref_omp_select, D, z, k)


@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_eps_schemes_match_reference(name, eps, monkeypatch):
    D = DICTIONARIES[name]()
    for z in signals(D, 302):
        for k in (1, 3, 5, D.n):
            assert_select_matches(monkeypatch, eps_omp_select, ref_eps_omp_select, D, z, k, eps)
            assert eps_threshold_select(D, z, k, eps) == ref_eps_threshold_select(D, z, k, eps)


def assert_recovery_bits_match(y, M, D, k, eps):
    x_hat, support = eps_omp_recover(y, M, D, k, eps)
    x_ref, support_ref = ref_eps_omp_recover(y, M, D, k, eps)
    assert support == support_ref
    assert x_hat.dtype == x_ref.dtype
    assert x_hat.tobytes() == x_ref.tobytes()


@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_eps_omp_recover_matches_reference(name, eps, monkeypatch):
    D = DICTIONARIES[name]()
    field_tag = D.field_tag
    M = gaussian_measurements(8, D.d, seed_sequence(305, SALT_MEASUREMENT), field_tag).matrix
    for x in signals(D, 303):
        y = M @ x
        for k in (1, 2, 3):
            (x_ref, _), residuals = run_recording_lstsq(monkeypatch, y, M, D, k, eps)
            clean = _clean_picks(M @ D.matrix, residuals, y)
            if clean == len(residuals):
                assert_recovery_bits_match(y, M, D, k, eps)
                continue
            if clean:
                assert_recovery_bits_match(y, M, D, clean, eps)
            x_hat, _ = eps_omp_recover(y, M, D, k, eps)
            fit, fit_ref = np.linalg.norm(y - M @ x_hat), np.linalg.norm(y - M @ x_ref)
            assert abs(fit - fit_ref) <= TOL * max(np.linalg.norm(y), 1.0)


@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_eps_omp_recover_past_the_signal_fits_as_well(name):
    D = DICTIONARIES[name]()
    M = gaussian_measurements(8, D.d, seed_sequence(305, SALT_MEASUREMENT), D.field_tag).matrix
    for x in signals(D, 303):
        y = M @ x
        for k in (4, 5, 6):
            x_hat, _ = eps_omp_recover(y, M, D, k, 0.0)
            x_ref, _ = ref_eps_omp_recover(y, M, D, k, 0.0)
            fit, fit_ref = np.linalg.norm(y - M @ x_hat), np.linalg.norm(y - M @ x_ref)
            assert abs(fit - fit_ref) <= 1e-12 * max(np.linalg.norm(y), 1.0)
