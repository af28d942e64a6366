"""The greedy core's pick loop against a verbatim copy of its earlier form.

``_Residual`` and ``_greedy`` below are the loop as it stood before it
orthogonalized each new column in place in its own basis row, read the rank
test's atom norm from ``Dictionary.atom_norm``, masked picks by index when
there is no exclusion table and took ``corr.argmax()``. Those changes do no
arithmetic of their own, so both loops compute the same bits: the picks, the
closures and the final residual r, correlations c and basis must be equal
byte for byte, on every instance.

The instances cover real and complex dictionaries, duplicated atoms, a
rank-deficient dictionary, zero atoms and the overcomplete DFT (its FFT
analysis), with and without Gram columns, with and without exclusion tables,
with and without the re-fit, on generic, exactly sparse and zero signals,
for k from 1 to past the rank. The measured atoms of eps_omp_recover, which
have no cached norms, are covered too.
"""

import math
import sys
from typing import Callable

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    SupportSet,
    eps_omp_recover,
    eps_omp_select,
    eps_threshold_select,
    omp_select,
    overcomplete_dft,
    rank_rcond,
    rng_from,
)
from sigspace import projections
from sigspace.linalg import _adjoint_apply, _norm

# ---------------------------------------------------------------------------
# reference loop


class _Residual:
    def __init__(
        self,
        z: np.ndarray,
        dtype: np.dtype,
        capacity: int,
        rcond: float,
        c: np.ndarray | None = None,
    ) -> None:
        self.r = z.astype(dtype, copy=True)
        self._complex = self.r.dtype.kind == "c"
        self._rows = np.empty((capacity, z.shape[0]), dtype=dtype)
        self._rcond = rcond
        self.rank = 0
        self.c = None if c is None else c.astype(dtype, copy=True)
        self._crows = None if c is None else np.empty((capacity, c.shape[0]), dtype=dtype)

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal basis, one vector per column."""
        return self._rows[: self.rank].T

    def add(self, a: np.ndarray, g: np.ndarray | None = None) -> None:
        rank = self.rank
        if rank == self._rows.shape[0]:
            return
        q = a.astype(self.r.dtype, copy=True)
        if rank:
            rows = self._rows[:rank]
            h = []  # the coefficients of both passes
            for _ in range(2):
                h.append((rows @ q.conj()).conj() if self._complex else rows @ q)
                q -= h[-1] @ rows
        norm = _norm(q)
        if norm <= self._rcond * _norm(a):
            return
        q /= norm
        self._rows[rank] = q
        step = np.vdot(q, self.r)
        self.r -= q * step
        if self.c is not None:
            crow = self._crows[rank]
            crow[...] = g
            if rank:
                crow -= (h[0] + h[1]) @ self._crows[:rank]
            crow /= norm
            self.c -= crow * step
        self.rank += 1


def _greedy(
    shape: tuple[int, int],
    column: Callable[[int], np.ndarray],
    analysis: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    k: int,
    table: tuple[np.ndarray, ...] | None = None,
    refit: bool = True,
    gram: Callable[[int], np.ndarray] | None = None,
) -> tuple[SupportSet, SupportSet]:
    d, n = shape
    c = analysis(z)
    corr = np.abs(c)
    excluded = np.zeros(n, dtype=bool)
    left = n  # columns not excluded yet
    picks: list[int] = []
    fit = None
    if refit:
        # only the picks before the last are re-fitted, and at most d directions exist
        dtype = np.result_type(c, z)
        fit = _Residual(z, dtype, min(k - 1, d), rank_rcond(shape), c if gram else None)
    for _ in range(k):
        if not left:
            break
        if fit is not None and picks:
            fit.add(column(picks[-1]), gram(picks[-1]) if gram else None)
            np.abs(fit.c if gram else analysis(fit.r), out=corr)
        corr[excluded] = -1.0
        i = int(np.argmax(corr))
        picks.append(i)
        if table is None:
            left -= 1
            excluded[i] = True
        else:
            left -= table[i].size - int(np.count_nonzero(excluded[table[i]]))
            excluded[table[i]] = True
    return SupportSet.from_iterable(picks, n), SupportSet.from_iterable(np.flatnonzero(excluded), n)


def _greedy_over_atoms(D, z, k, table=None, refit=True):
    gram = None if D._fft else D.gram_column
    return _greedy(D.matrix.shape, D.atom, D.analysis, z, k, table, refit, gram)


# ---------------------------------------------------------------------------
# instances


def _noise(rng, shape, complex_field):
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _unit_columns(A):
    norms = np.linalg.norm(A, axis=0)
    return A / np.where(norms == 0, 1.0, norms)


def _duplicated():
    A = _unit_columns(rng_from(521).standard_normal((10, 16)))
    A[:, [11, 12]] = A[:, [5, 5]]
    A[:, 3] = -A[:, 8]
    return Dictionary(A)


def _rank_deficient():
    rng = rng_from(522)
    return Dictionary(_unit_columns(rng.standard_normal((10, 4)) @ rng.standard_normal((4, 20))))


def _zero_atoms():
    A = _unit_columns(_noise(rng_from(523), (9, 15), True))
    A[:, [2, 9]] = 0.0
    return Dictionary(A)


DICTIONARIES = {
    "real": lambda: Dictionary(_unit_columns(rng_from(524).standard_normal((12, 24)))),
    "complex": lambda: Dictionary(_unit_columns(_noise(rng_from(525), (12, 24), True))),
    "duplicated": _duplicated,
    "rank4": _rank_deficient,
    "zero": _zero_atoms,
    "dft4": lambda: overcomplete_dft(16, 4),
}

# (table eps or None, refit)
MODES = {
    "omp": (None, True),
    "eps-omp-0": (0.0, True),
    "eps-omp": (math.sqrt(0.1), True),
    "eps-omp-wide": (0.6, True),
    "threshold": (None, False),
    "eps-threshold": (math.sqrt(0.1), False),
}


def _signals(D, seed):
    """Generic real and complex signals, exactly 2- and 5-sparse ones and zero."""
    rng = rng_from(seed)
    out = [_noise(rng, D.d, False), _noise(rng, D.d, True)]
    for size in (2, 5):
        support = rng.choice(D.n, size=size, replace=False)
        out.append(D.matrix[:, support] @ _noise(rng, size, D.field_tag == "complex"))
    out.append(np.zeros(D.d))
    return out


def _ks(D):
    return sorted({1, 2, 3, D.d - 1, D.d, D.d + 2})


def _run(monkeypatch, owner, greedy, *args):
    """greedy(*args) and the _Residual it re-fitted with (None without re-fit)."""
    made = []

    class Recording(owner._Residual):
        def __init__(self, *init_args):
            super().__init__(*init_args)
            made.append(self)

    with monkeypatch.context() as m:
        m.setattr(owner, "_Residual", Recording)
        picks, closure = greedy(*args)
    assert len(made) <= 1
    return picks, closure, made[0] if made else None


def _assert_same(got, expected):
    picks, closure, fit = got
    ref_picks, ref_closure, ref_fit = expected
    assert picks == ref_picks
    assert closure == ref_closure
    assert (fit is None) == (ref_fit is None)
    if fit is None:
        return
    assert fit.rank == ref_fit.rank
    assert fit.r.dtype == ref_fit.r.dtype
    assert fit.r.tobytes() == ref_fit.r.tobytes()
    assert fit.basis.tobytes() == ref_fit.basis.tobytes()
    assert (fit.c is None) == (ref_fit.c is None)
    if fit.c is not None:
        assert fit.c.tobytes() == ref_fit.c.tobytes()


# ---------------------------------------------------------------------------
# tests


# a zero atom has no normalized correlations, so no exclusion table
CASES = [
    (name, mode)
    for name in sorted(DICTIONARIES)
    for mode in sorted(MODES)
    if name != "zero" or MODES[mode][0] is None
]


@pytest.mark.parametrize("use_gram", (False, True), ids=("analysis", "gram"))
@pytest.mark.parametrize("name, mode", CASES)
def test_pick_loop_matches_the_reference(name, mode, use_gram, monkeypatch):
    D = DICTIONARIES[name]()
    if use_gram and D._fft:
        D = Dictionary(D.matrix)  # the DFT's dense twin lends Gram columns
    eps, refit = MODES[mode]
    table = None if eps is None else D.neighbor_table(eps)
    gram = D.gram_column if use_gram else None
    if table is None and not refit:
        ks = [1, 2, 3]  # thresholding without a table is only ever called with refit
    else:
        ks = _ks(D)
    compared = 0
    for z in _signals(D, 530 + len(name)):
        for k in ks:
            if table is None and k > min(D.d, D.n):
                continue
            args = (D.matrix.shape, D.atom, D.analysis, z, k, table, refit, gram)
            expected = _run(monkeypatch, sys.modules[__name__], _greedy, *args)
            got = _run(monkeypatch, projections, projections._greedy, *args, D.atom_norm)
            _assert_same(got, expected)
            _assert_same(_run(monkeypatch, projections, projections._greedy, *args), expected)
            compared += 1
    assert compared >= 15


@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_selections_match_the_reference(name):
    D = DICTIONARIES[name]()
    for z in _signals(D, 540 + len(name)):
        for k in (1, 3, min(D.d, D.n)):
            assert omp_select(D, z, k) == _greedy_over_atoms(D, z, k)[0]
        for eps in () if name == "zero" else (0.0, math.sqrt(0.1)):
            table = D.neighbor_table(eps)
            for k in (1, 3, D.d + 2):
                assert eps_omp_select(D, z, k, eps) == _greedy_over_atoms(D, z, k, table)[1]
                assert eps_threshold_select(D, z, k, eps) == _greedy_over_atoms(D, z, k, table, False)[1]


@pytest.mark.parametrize("name", ("real", "complex", "duplicated", "dft4"))
def test_measured_atoms_match_the_reference(name, monkeypatch):
    """eps_omp_recover's pursuit over M d_i: no Gram columns, no cached norms."""
    D = DICTIONARIES[name]()
    rng = rng_from(550 + len(name))
    M = _noise(rng, (D.d - 3, D.d), D.field_tag == "complex") / math.sqrt(D.d)
    for y in (M @ z for z in _signals(D, 551)):
        for eps in (0.0, math.sqrt(0.1)):
            table = D.neighbor_table(eps)
            for k in (1, 3, M.shape[0] + 2):
                args = (
                    (M.shape[0], D.n),
                    lambda i: M @ D.matrix[:, i],
                    lambda r: D.analysis(_adjoint_apply(M, r)),
                    y,
                    k,
                    table,
                )
                expected = _run(monkeypatch, sys.modules[__name__], _greedy, *args)
                _assert_same(_run(monkeypatch, projections, projections._greedy, *args), expected)
                assert eps_omp_recover(y, M, D, k, eps)[1] == expected[1]
