"""The greedy core's pick loop against a verbatim copy of its earlier form.

``_Residual`` and ``_greedy`` below are the loop as it stood before it
orthogonalized each new column in place in its own basis row, masked picks
by index when there is no exclusion table, took ``corr.argmax()`` and
re-fitted in coefficient space. Without the re-fit both loops compute A^H z
once and do no other arithmetic, so their picks and closures must be equal
byte for byte on every instance.

The core's re-fit keeps no r and no basis (``_GramResidual``) until a pick
near the span hands it to signal space, and its correlations round
differently from the reference's. On a dense dictionary its pick t must
equal the reference's pick t whenever the reference's max|A^H r| before that
pick exceeds 1e-9 max(||z||, 1) max||a_i||: only a rounding-level residual
may decide a pick differently. The overcomplete DFT also has ties that are
exact only in exact arithmetic (the mirrored atoms j and n - j of a real
signal), so there each pick is checked against the exact correlations
instead: while the exact peak max|a_i^H r| over the atoms not excluded
exceeds 1e-9 max(||z||, 1) max||a_i||, the pick's exact |a_i^H r| must be
within 1e-12 max(||z||, 1) max||a_i|| of it, r = z - P z for the picks
before it. After every re-fitted pick, the tracked A^H r must equal the
dense A^H (z - P z), P the SVD projection onto its picks so far, within
1e-12 max(||z||, 1) max||a_i||.

The instances cover real and complex dictionaries, duplicated atoms, a
rank-deficient dictionary, zero atoms and the overcomplete DFT (its FFT
analysis and its rolled Gram row), with and without exclusion tables, with
and without the re-fit, on generic, exactly sparse and zero signals, for k
from 1 to past the rank. The measured atoms M d_i of eps_omp_recover are
covered too: the core reads their Gram columns D^H M^H (M d_i) by one
analysis per pick, and they are checked by the same rule against the dense
twin M D, with at least one instance handed over to signal space.

End to end, on seeded noisy problems whose residuals stay above rounding
level, sscosamp and eps_omp_recover must give the same outputs bit for bit
whether they run on the core or on the reference loop.
"""

import math
import sys
from typing import Callable

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    SSCoSaMPConfig,
    SupportSet,
    eps_omp_recover,
    eps_omp_select,
    eps_threshold_select,
    gaussian_measurements,
    omp_select,
    overcomplete_dft,
    project,
    rank_rcond,
    rng_from,
    sscosamp,
)
from sigspace import projections, recovery
from sigspace.dictionaries import SALT_NOISE, seed_sequence
from sigspace.experiments import add_noise
from sigspace.linalg import _adjoint_apply, _norm

PICK_TOL = 1e-9  # a reference correlation peak below this scale decides a pick by rounding
C_TOL = 1e-12

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
    return _greedy(D.matrix.shape, D.atom, D.analysis, z, k, table, refit, D.gram_column)


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


def _gram_runs(monkeypatch, args, ref_args):
    """The core's run of args and the reference's run of ref_args, which
    must pass Gram columns.

    For the core: its picks in pick order, the A^H r it tracked after each
    re-fitted pick and its (picks, closure); for the reference: its picks in
    pick order, its closure and its max|A^H r| before each pick.
    """
    gram = ref_args[7]
    peaks = [float(np.abs(ref_args[2](ref_args[3])).max())]
    order, ref_order, cs = [], [], []

    class Reference(_Residual):
        def add(self, a, g=None):
            super().add(a, g)
            peaks.append(float(np.abs(self.c).max()))

    class Core(projections._GramResidual):
        def add(self, i, g):
            order.append(i)
            super().add(i, g)
            cs.append(self.c.copy())

    def recording_gram(i):
        ref_order.append(i)
        return gram(i)

    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "_Residual", Reference)
        m.setattr(projections, "_GramResidual", Core)
        ref_picks, ref_closure = _greedy(*ref_args[:7], recording_gram)
        got = projections._greedy(*args)
    order += sorted(set(got[0]) - set(order))  # the last pick is never re-fitted
    ref_order += sorted(set(ref_picks) - set(ref_order))
    return order, cs, got, (ref_order, ref_closure), peaks


def _assert_picks_reach_the_exact_peak(D, z, table, order, scale):
    """While the exact max|a_i^H r| over the atoms not excluded exceeds
    PICK_TOL scale, each pick's exact |a_i^H r| is within C_TOL scale of it."""
    A = D.matrix
    excluded = np.zeros(D.n, dtype=bool)
    for t, pick in enumerate(order):
        r = z - project(A, SupportSet.from_iterable(order[:t], D.n), z)
        corr = np.abs(_adjoint_apply(A, r))
        peak = corr[~excluded].max()
        if peak <= PICK_TOL * scale:
            break
        assert not excluded[pick]
        assert corr[pick] >= peak - C_TOL * scale
        excluded[pick if table is None else table[pick]] = True


def _assert_gram_matches(monkeypatch, D, args, ref_args=None):
    """A re-fitted instance's picks and tracked A^H r, A = D.matrix, against
    the reference's run of ref_args (args by default; on the DFT, its picks
    against the exact correlations). Returns the core's picks and closure."""
    runs = _gram_runs(monkeypatch, args, ref_args or args)
    order, cs, (picks, closure), (ref_order, ref_closure), peaks = runs
    z = args[3]
    A = D.matrix
    scale = max(_norm(z), 1.0) * D.atom_norms().max()
    if D._fft:
        _assert_picks_reach_the_exact_peak(D, z, args[5], order, scale)
    else:
        for pick, ref_pick, peak in zip(order, ref_order, peaks):
            if peak > PICK_TOL * scale:
                assert pick == ref_pick
    if order == ref_order:
        assert closure == ref_closure
    assert len(cs) == len(order) - 1
    for t, c in enumerate(cs, start=1):
        r = z - project(A, SupportSet.from_iterable(order[:t], D.n), z)
        assert np.linalg.norm(c - _adjoint_apply(A, r)) <= C_TOL * scale
    return picks, closure


# ---------------------------------------------------------------------------
# tests


# (dictionary, mode); a zero atom has no normalized correlations, so no
# exclusion table. Every case passes D's Gram columns, as every selection
# does (a loop without the re-fit never reads one), hence the ids' "-gram".
CASES = [
    (name, mode)
    for name in sorted(DICTIONARIES)
    for mode in sorted(MODES)
    if name != "zero" or MODES[mode][0] is None
]


@pytest.mark.parametrize("name, mode", CASES, ids=[f"{name}-{mode}-gram" for name, mode in CASES])
def test_pick_loop_matches_the_reference(name, mode, monkeypatch):
    D = DICTIONARIES[name]()
    eps, refit = MODES[mode]
    table = None if eps is None else D.neighbor_table(eps)
    if table is None and not refit:
        ks = [1, 2, 3]  # thresholding without a table is only ever called with refit
    else:
        ks = _ks(D)
    compared = 0
    for z in _signals(D, 530 + len(name)):
        for k in ks:
            if table is None and k > min(D.d, D.n):
                continue
            args = (D.matrix.shape, D.atom, D.analysis, z, k, table, refit, D.gram_column)
            compared += 1
            if refit:
                _assert_gram_matches(monkeypatch, D, args)
            else:
                assert projections._greedy(*args) == _greedy(*args)
    assert compared >= 15


@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_selections_match_the_reference(name, monkeypatch):
    """The public selections: byte for byte without the re-fit, by the Gram
    rule of _assert_gram_matches with it."""
    D = DICTIONARIES[name]()

    def refitted(z, k, table=None):
        args = (D.matrix.shape, D.atom, D.analysis, z, k, table, True, D.gram_column)
        return _assert_gram_matches(monkeypatch, D, args)

    for z in _signals(D, 540 + len(name)):
        for k in (1, 3, min(D.d, D.n)):
            assert omp_select(D, z, k) == refitted(z, k)[0]
        for eps in () if name == "zero" else (0.0, math.sqrt(0.1)):
            table = D.neighbor_table(eps)
            for k in (1, 3, D.d + 2):
                assert eps_omp_select(D, z, k, eps) == refitted(z, k, table)[1]
                assert eps_threshold_select(D, z, k, eps) == _greedy_over_atoms(D, z, k, table, False)[1]


@pytest.mark.parametrize("name", ("real", "complex", "duplicated", "dft4"))
def test_measured_atoms_match_the_reference(name, monkeypatch):
    """eps_omp_recover's pursuit over M d_i, whose Gram columns the core reads
    as analysis(column(i)) = D^H M^H (M d_i), by the rule of
    _assert_gram_matches against the reference on the dense twin M D;
    eps_omp_recover returns the core's closure."""
    D = DICTIONARIES[name]()
    rng = rng_from(550 + len(name))
    M = _noise(rng, (D.d - 3, D.d), D.field_tag == "complex") / math.sqrt(D.d)
    twin = Dictionary(M @ D.matrix)
    handovers = []

    class Handover(projections._Residual):
        def __init__(self, *init_args):
            super().__init__(*init_args)
            handovers.append(k)

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
                ref_args = (twin.matrix.shape, twin.atom, twin.analysis, y, k, table, True,
                            twin.gram_column)
                with monkeypatch.context() as m:
                    m.setattr(projections, "_Residual", Handover)
                    closure = _assert_gram_matches(monkeypatch, twin, args, ref_args)[1]
                assert eps_omp_recover(y, M, D, k, eps)[1] == closure
    if name in ("complex", "dft4"):
        # two of their pursuits past the rank pick within 0.1 ||M d_i|| of
        # the span of the earlier picks, and the re-fit hands over
        assert handovers


def _badly_conditioned(seed):
    """A 10 x n dictionary of rank 2 to 7 whose column norms spread from 1e-2
    to 1e2, a Gaussian 8 x 10 M, a generic signal and a 3-atom one."""
    rng = rng_from(seed)
    n, rank = int(rng.integers(12, 25)), int(rng.integers(2, 8))
    A = rng.standard_normal((10, rank)) @ rng.standard_normal((rank, n))
    D = Dictionary(A / np.linalg.norm(A, axis=0) * 10.0 ** rng.uniform(-2, 2, n))
    M = rng.standard_normal((8, 10)) / math.sqrt(8)
    generic = rng.standard_normal(10)
    sparse = D.matrix[:, rng.choice(n, 3, replace=False)] @ rng.standard_normal(3)
    return D, M, (generic, sparse)


def test_a_measured_pick_near_the_span_hands_over_and_adds_a_direction(monkeypatch):
    """eps_omp_recover's pursuit on a badly conditioned dictionary: for both
    signals a pick within 0.1 ||M d_i|| of the span of the earlier picks,
    made while max|A^H r| is above 1e-3 max|A^H y|, hands the re-fit over to
    signal space and adds a direction there. Every tracked A^H r, before and
    after the hand-over, must match the dense twin's by the rule of
    _assert_gram_matches."""
    D, M, signals = _badly_conditioned(900021)
    twin = Dictionary(M @ D.matrix)
    handovers = []

    class Handover(projections._GramResidual):
        def add(self, i, g):
            rank, peak = self.rank, float(np.abs(self.c).max())
            handed = self._residual is None
            super().add(i, g)
            if handed and self._residual is not None:
                handovers.append((self.rank - rank, peak / float(np.abs(self._c0).max())))

    table = D.neighbor_table(0.0)
    for z in signals:
        y = M @ z
        args = ((M.shape[0], D.n), lambda i: M @ D.matrix[:, i],
                lambda r: D.analysis(_adjoint_apply(M, r)), y, 10, table)
        ref_args = (twin.matrix.shape, twin.atom, twin.analysis, y, 10, table, True,
                    twin.gram_column)
        handovers.clear()
        with monkeypatch.context() as m:
            m.setattr(projections, "_GramResidual", Handover)
            closure = _assert_gram_matches(monkeypatch, twin, args, ref_args)[1]
        assert eps_omp_recover(y, M, D, 10, 0.0)[1] == closure
        assert [added for added, peak in handovers if peak > 1e-3] == [1]


@pytest.mark.parametrize("field_tag", ("real", "complex"))
def test_recoveries_match_the_reference_loop(field_tag, monkeypatch):
    """sscosamp with omp and eps-omp and eps_omp_recover, on the core and on
    the reference loop: equal estimate bytes, supports, iterations, stop
    reasons and traces. Runs in-process, so it holds on any BLAS."""
    d, n, m, k, eps = 64, 128, 40, 4, 0.8
    complex_field = field_tag == "complex"
    D = Dictionary(_unit_columns(_noise(rng_from(560), (d, n), complex_field)))
    configs = [SSCoSaMPConfig.for_selector(kind, k, eps) for kind in ("omp", "eps-omp")]
    problems = []
    for seed in range(561, 567):
        M = gaussian_measurements(m, d, seed, field_tag).matrix
        support = rng_from(seed).choice(n, size=k, replace=False)
        x = D.matrix[:, support] @ _noise(rng_from(seed, 1), k, complex_field)
        y = M @ x
        problems.append((add_noise(y, 0.05 * _norm(y), seed_sequence(seed, SALT_NOISE)), M, x))

    def outputs():
        out = []
        for y, M, x in problems:
            for config in configs:
                report = sscosamp(y, M, D, config, x_true=x)
                out.append((report.estimate.tobytes(), report.support, report.iterations,
                            report.stop_reason, report.residual_norm, report.trace))
            x_hat, support = eps_omp_recover(y, M, D, k, eps)
            out.append((x_hat.tobytes(), support))
        return out

    fits = []

    class Core(projections._GramResidual):
        def __init__(self, *args):
            super().__init__(*args)
            fits.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(projections, "_GramResidual", Core)
        got = outputs()
    assert fits  # the core re-fitted on the Gram path
    references = []

    def reference_greedy(*args, greedy=_greedy):
        references.append(args)
        return greedy(*args)

    with monkeypatch.context() as patch:
        patch.setattr(projections, "_greedy_over_atoms", _greedy_over_atoms)
        patch.setattr(sys.modules[__name__], "_greedy", reference_greedy)
        patch.setattr(recovery, "_greedy", reference_greedy)
        expected = outputs()
    assert references
    assert got == expected
