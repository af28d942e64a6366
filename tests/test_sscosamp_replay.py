"""sscosamp's replay of revisited merged supports against the plain loop.

``ref_sscosamp`` below is a verbatim copy of the sscosamp loop as it was
before the replay: every iteration runs the proxy, both selections, the fit
and the projection. What an iteration computes after its expand step depends
only on the merged support, so once the run revisits a merged support it is
in an exact cycle, and ``sscosamp`` replays the recorded iterations instead.
The two must agree bit for bit: estimate bytes, support, iteration count,
stop reason, residual norm and every trace entry.

Each instance family below is chosen so that the path under test runs: the
reference's merged supports (recorded through its ``ls_synthesize``) must
repeat with the named period, and ``sscosamp`` must make fewer fits than
iterations.
"""

import sys
import time

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    HaltingRule,
    RecoveryReport,
    SSCoSaMPConfig,
    SupportSet,
    gaussian_measurements,
    ls_synthesize,
    overcomplete_dft,
    project,
    recovery,
    rng_from,
    seed_sequence,
    select,
    sscosamp,
)
from sigspace.dictionaries import SALT_MEASUREMENT
from sigspace.experiments import gen_sparse_signal
from sigspace.linalg import _adjoint_apply
from sigspace.recovery import (
    STOP_MAX_ITERS,
    STOP_RESIDUAL,
    STOP_STAGNATION,
    TraceEntry,
    _checked_measurements,
    _stagnated,
)


# ---------------------------------------------------------------------------
# reference loop


def ref_sscosamp(y, M, D, config, x_true=None):
    y, M = _checked_measurements(y, M, D)
    start = time.perf_counter()
    halting = config.halting
    dtype = np.result_type(M, D.matrix, y)
    x = np.zeros(D.d, dtype=dtype)
    support = SupportSet.empty(D.n)
    y_norm = float(np.linalg.norm(y))
    residual = y.astype(dtype, copy=True)
    res_norm = y_norm
    history = [res_norm]
    trace = []
    stop_reason = STOP_MAX_ITERS
    iterations = 0
    if res_norm <= halting.residual_tol * max(y_norm, 1.0):
        stop_reason = STOP_RESIDUAL
    else:
        for it in range(1, halting.max_iters + 1):
            proxy = _adjoint_apply(M, residual)
            expand = select(config.scheme_expand, D, proxy)
            merged = support.union(expand)
            x_fit = ls_synthesize(M, D.matrix, merged, y)
            support = select(config.scheme_shrink, D, x_fit)
            x = project(D.matrix, support, x_fit)
            residual = y - M @ x
            res_norm = float(np.linalg.norm(residual))
            history.append(res_norm)
            iterations = it
            err = float(np.linalg.norm(x - x_true)) if x_true is not None else None
            trace.append(TraceEntry(it, len(support), len(merged), res_norm, err))
            if res_norm <= halting.residual_tol * max(y_norm, 1.0):
                stop_reason = STOP_RESIDUAL
                break
            if _stagnated(history, halting.stagnation_tol):
                stop_reason = STOP_STAGNATION
                break
    wall = time.perf_counter() - start
    return RecoveryReport(
        estimate=x,
        support=support,
        iterations=iterations,
        stop_reason=stop_reason,
        residual_norm=res_norm,
        trace=tuple(trace),
        wall_time=wall,
    )


# ---------------------------------------------------------------------------
# helpers


def reference_run(monkeypatch, y, M, D, config, x_true):
    """ref_sscosamp's report and the period of its first revisited merged
    support (None when no merged support repeats)."""
    fit = ls_synthesize
    merged = []

    def recording_ls_synthesize(M_, D_, T, y_):
        merged.append(T)
        return fit(M_, D_, T, y_)

    with monkeypatch.context() as m:
        m.setattr(sys.modules[__name__], "ls_synthesize", recording_ls_synthesize)
        report = ref_sscosamp(y, M, D, config, x_true)
    for t, T in enumerate(merged):
        if T in merged[:t]:
            return report, t - merged.index(T)
    return report, None


def counted_run(monkeypatch, y, M, D, config, x_true):
    """sscosamp's report and its number of ls_synthesize, project and select calls."""
    calls = {"ls_synthesize": 0, "project": 0, "select": 0}

    def counting(name):
        call = getattr(recovery, name)

        def counted(*args):
            calls[name] += 1
            return call(*args)

        return counted

    with monkeypatch.context() as m:
        for name in calls:
            m.setattr(recovery, name, counting(name))
        report = sscosamp(y, M, D, config, x_true)
    return report, calls


def assert_same_report(got, expected):
    assert got.estimate.dtype == expected.estimate.dtype
    assert got.estimate.tobytes() == expected.estimate.tobytes()
    assert got.support == expected.support
    assert got.iterations == expected.iterations
    assert got.stop_reason == expected.stop_reason
    assert got.residual_norm == expected.residual_norm
    assert got.trace == expected.trace


def check_instance(monkeypatch, y, M, D, config, x_true):
    """Compare sscosamp with the reference; returns the reference report, the
    period of its cycle and sscosamp's number of fits.

    A run that enters a cycle fits fewer times than it iterates, and after
    the expand step that finds the cycle it makes no selection at all.
    """
    expected, period = reference_run(monkeypatch, y, M, D, config, x_true)
    got, calls = counted_run(monkeypatch, y, M, D, config, x_true)
    assert_same_report(got, expected)
    assert all(t.error_norm is not None for t in got.trace)
    fits = calls["ls_synthesize"]
    assert calls["project"] == fits
    if period is None:
        assert fits == got.iterations
        assert calls["select"] == 2 * fits
    else:
        assert fits < got.iterations
        assert calls["select"] == 2 * fits + 1
    return expected, period, fits


# ---------------------------------------------------------------------------
# instances


def gaussian_problem(seed, d=48, n=96, m=32, k=4, noise=0.05):
    rng = rng_from(seed)
    atoms = rng.standard_normal((d, n))
    D = Dictionary(atoms / np.linalg.norm(atoms, axis=0), unit_norm=True)
    M = rng.standard_normal((m, d)) / np.sqrt(m)
    x = D.matrix[:, rng.choice(n, size=k, replace=False)] @ rng.standard_normal(k)
    x /= np.linalg.norm(x)
    y0 = M @ x
    e = rng.standard_normal(m)
    return D, M, x, y0 + noise * np.linalg.norm(y0) * e / np.linalg.norm(e)


DFT = overcomplete_dft(64, 4)


def clustered_dft_problem(seed, m=24, k=4):
    M = gaussian_measurements(m, DFT.d, seed_sequence(seed, SALT_MEASUREMENT), "complex").matrix
    x, _, _ = gen_sparse_signal(DFT, k, "clustered", seed)
    return DFT, M, x, M @ x


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("selector", ("omp", "eps-omp"))
def test_noisy_gaussian_fixed_points(selector, monkeypatch):
    periods = []
    for seed in range(12):
        D, M, x, y = gaussian_problem(seed)
        config = SSCoSaMPConfig.for_selector(selector, 4, eps=0.3)
        expected, period, _ = check_instance(monkeypatch, y, M, D, config, x)
        assert expected.stop_reason == STOP_STAGNATION
        periods.append(period)
    # seeds 1, 2, 6 and 11 reach a fixed point; the rest never revisit one
    assert set(periods) <= {None, 1}
    assert periods.count(1) >= 3


def test_clustered_dft_omp_cycles(monkeypatch):
    periods = {}
    for seed in range(33):
        D, M, x, y = clustered_dft_problem(seed)
        config = SSCoSaMPConfig.for_selector("omp", 4)
        periods[seed] = check_instance(monkeypatch, y, M, D, config, x)[1]
    assert periods[32] == 2
    assert list(periods.values()).count(1) >= 3


@pytest.mark.parametrize("seed", (32, 35))
def test_clustered_dft_omp_period_two(seed, monkeypatch):
    D, M, x, y = clustered_dft_problem(seed)
    config = SSCoSaMPConfig.for_selector("omp", 4)
    expected, period, _ = check_instance(monkeypatch, y, M, D, config, x)
    assert period == 2
    assert expected.stop_reason == STOP_STAGNATION


def test_clustered_dft_omp_period_three(monkeypatch):
    # the first clustered instance whose cycle is longer than two iterations
    D, M, x, y = clustered_dft_problem(16)
    config = SSCoSaMPConfig.for_selector("omp", 4)
    expected, period, _ = check_instance(monkeypatch, y, M, D, config, x)
    assert period == 3
    assert expected.stop_reason == STOP_STAGNATION


@pytest.mark.parametrize("max_iters", (8, 9))
def test_cycle_cut_short_by_max_iters(max_iters, monkeypatch):
    # unbounded, this run fits 7 times, enters its period-2 cycle at
    # iteration 8 and stops by stagnation at iteration 10
    D, M, x, y = clustered_dft_problem(433)
    config = SSCoSaMPConfig.for_selector("omp", 4, halting=HaltingRule(max_iters=max_iters))
    expected, period, fits = check_instance(monkeypatch, y, M, D, config, x)
    assert (period, fits) == (2, 7)
    assert expected.stop_reason == STOP_MAX_ITERS
    assert expected.iterations == max_iters


def test_residual_floor_stops(monkeypatch):
    stops = []
    for seed in range(6):
        D, M, x, y = gaussian_problem(seed, noise=0.0)
        config = SSCoSaMPConfig.for_selector("omp", 4)
        stops.append(check_instance(monkeypatch, y, M, D, config, x)[0].stop_reason)
    assert stops.count(STOP_RESIDUAL) >= 3


def test_zero_measurements_stop_before_the_loop(monkeypatch):
    D, M, x, _ = gaussian_problem(0)
    config = SSCoSaMPConfig.for_selector("omp", 4)
    expected, period, fits = check_instance(monkeypatch, np.zeros(M.shape[0]), M, D, config, x)
    assert (expected.iterations, expected.stop_reason, period, fits) == (0, STOP_RESIDUAL, None, 0)
