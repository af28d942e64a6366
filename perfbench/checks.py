"""Output checks of the benchmark workloads.

Every check compares a program output with a computation made apart from the
program (numpy ``lstsq``/``svd`` on the inputs) or with a property the method
must have. None compares with a stored copy of earlier output. Each function
returns a list of faults; an empty list means the output passed.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

# recover-incoherent: ||x_hat - x|| <= ERROR_FACTOR * ||e||, the form of the
# paper's noisy-recovery bound. Observed ratios stay below 0.5 on the
# workload's problems; a wrong support gives ratios near 100.
ERROR_FACTOR = 2.0
# sscosamp's stagnation rule: relative residual drop over this many iterations.
STAGNATION_WINDOW = 3
SPAN_RTOL = 1e-8
RESIDUAL_RTOL = 1e-9


def expected_stop(y_norm: float, residuals: list[float], halting) -> tuple[str | None, int]:
    """The stop reason and iteration that the halting rule gives for a trace.

    Walks the residual history [||y||, r_1, r_2, ...] and returns the first
    rule that fires: the residual floor, then the stagnation window, then the
    iteration cap. Returns (None, len(residuals)) when none fires.
    """
    floor = halting.residual_tol * max(y_norm, 1.0)
    if y_norm <= floor:
        return "residual", 0
    history = [y_norm]
    for it, res in enumerate(residuals, start=1):
        history.append(res)
        if res <= floor:
            return "residual", it
        if len(history) > STAGNATION_WINDOW:
            old = history[-1 - STAGNATION_WINDOW]
            if old <= 0.0 or (old - res) / old < halting.stagnation_tol:
                return "stagnation", it
        if it == halting.max_iters:
            return "max_iters", it
    return None, len(residuals)


def recovery_faults(problem, M, D_matrix, k, estimate, support, report=None, halting=None):
    """Faults of one recovery of problem = (x, y, e_norm)."""
    x, y, e_norm = problem
    faults = []
    estimate = np.asarray(estimate)
    if not np.all(np.isfinite(estimate)):
        return ["estimate is not finite"]
    err = float(np.linalg.norm(estimate - x))
    if not err <= ERROR_FACTOR * e_norm:
        faults.append(f"error {err:.3g} exceeds {ERROR_FACTOR} * ||e|| = {ERROR_FACTOR * e_norm:.3g}")
    idx = np.asarray(list(support), dtype=np.intp)
    if idx.size > k:
        faults.append(f"support has {idx.size} atoms, more than k = {k}")
    est_norm = float(np.linalg.norm(estimate))
    if idx.size:
        cols = D_matrix[:, idx]
        coef = np.linalg.lstsq(cols, estimate, rcond=None)[0]
        off_span = float(np.linalg.norm(cols @ coef - estimate))
    else:
        off_span = est_norm
    if off_span > SPAN_RTOL * max(est_norm, 1e-300):
        faults.append(f"estimate is off its support's span by {off_span:.3g}")
    if report is not None:
        res = float(np.linalg.norm(y - M @ estimate))
        if abs(res - report.residual_norm) > RESIDUAL_RTOL * max(res, 1.0):
            faults.append(f"residual_norm {report.residual_norm!r} != ||y - M x_hat|| = {res!r}")
        residuals = [t.residual_norm for t in report.trace]
        reason, stop_at = expected_stop(float(np.linalg.norm(y)), residuals, halting)
        if report.stop_reason != reason or report.iterations != stop_at:
            faults.append(
                f"stop_reason {report.stop_reason!r} after {report.iterations} iterations; "
                f"the trace gives {reason!r} after {stop_at}"
            )
    return faults


def reference_rip(A: np.ndarray, k: int) -> float:
    """Exact RIP constant by a plain loop over supports with numpy's SVD."""
    delta = 0.0
    for T in combinations(range(A.shape[1]), k):
        s = np.linalg.svd(A[:, T], compute_uv=False)
        smin = s[-1] if len(s) == k else 0.0
        delta = max(delta, s[0] ** 2 - 1.0, 1.0 - smin**2)
    return float(delta)


def residual_sq(D_matrix: np.ndarray, support, z: np.ndarray) -> float:
    """||z - P_T z||^2 by numpy least squares over the support's atoms."""
    idx = np.asarray(list(support), dtype=np.intp)
    if idx.size == 0:
        return float(np.vdot(z, z).real)
    cols = D_matrix[:, idx]
    coef = np.linalg.lstsq(cols, z, rcond=None)[0]
    r = z - cols @ coef
    return float(np.vdot(r, r).real)


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def certificate_faults(inst, out) -> list[str]:
    """Faults of one certify-small instance (the criterion 5 properties).

    inst holds the inputs (D, M, z, k, and ``single``: k_id columns of M,
    whose exact_rip has one support only); out holds what the program
    returned for them.
    """
    faults = []
    D = inst.D.matrix
    k, k_id = inst.k, min(inst.k, inst.M.shape[1])
    if not _close(out["drip_identity"], out["rip_M"], 1e-10):
        faults.append(f"exact_drip(M, I, k) = {out['drip_identity']!r} != exact_rip(M, k) = {out['rip_M']!r}")
    for key, A, kk in (("rip_M", inst.M, k_id), ("rip_D", D, k), ("rip_single", inst.M[:, inst.single], k_id)):
        ref = reference_rip(A, kk)
        if not _close(out[key], ref, 1e-9):
            faults.append(f"exact_rip ({key}) = {out[key]!r}, the loop over supports gives {ref!r}")
    suite = out["suite"]
    if not suite.min_slack >= -1e-9:
        faults.append(f"drip_invariant_suite min_slack {suite.min_slack!r} < -1e-9")
    n = D.shape[1]
    supports = sum(math.comb(n, s) for s in range(1, k + 1))
    if suite.supports_checked != supports:
        faults.append(f"drip_invariant_suite checked {suite.supports_checked} supports, not {supports}")
    delta = out["rip_D"]
    if delta < 1.0:
        bound = (1.0 - delta) / (1.0 + delta)
        if not out["estimate"].ctilde_hat >= bound - 1e-9:
            faults.append(f"ctilde_hat {out['estimate'].ctilde_hat!r} < (1 - delta)/(1 + delta) = {bound!r}")
    z = inst.z
    tol = 1e-9 * max(1.0, float(np.vdot(z, z).real))
    opt_support, _, opt_res = out["oracle"]
    if abs(residual_sq(D, opt_support, z) - opt_res) > tol:
        faults.append("oracle residual does not match its own support")
    for kind, T in out["plain"].items():
        if residual_sq(D, T, z) < opt_res - tol:
            faults.append(f"{kind} beats the oracle at size {k}")
    for kind, (T, ext) in out["extended"].items():
        if ext is not None and residual_sq(D, T, z) < ext[2] - tol:
            faults.append(f"{kind} beats the oracle at size {len(T)}")
    return faults


def sweep_row_faults(row: dict, trials: int, max_iters: int) -> list[str]:
    """Faults of one (variant, m) row of a sweep CSV."""
    faults = []
    if row["trials"] != trials:
        faults.append(f"trials {row['trials']} != {trials}")
    if not 0 <= row["successes"] <= row["trials"]:
        faults.append(f"successes {row['successes']} outside [0, trials]")
    if row["trials"] and row["rate"] != row["successes"] / row["trials"]:
        faults.append(f"rate {row['rate']!r} != successes / trials")
    if not 1.0 <= row["mean_iters"] <= max_iters:
        faults.append(f"mean_iters {row['mean_iters']!r} outside [1, {max_iters}]")
    if row["variant"] == "eps-omp-direct" and row["mean_iters"] != 1.0:
        faults.append(f"eps-omp-direct mean_iters {row['mean_iters']!r} != 1")
    return faults


def figure2_faults(rates: dict, m_grid: tuple[int, ...]) -> list[tuple[str, str, int]]:
    """Rows that break the paper's Figure 2 orderings (acceptance criterion 7).

    rates maps (mode, variant, m) to a success rate. Clustered: eps-OMP beats
    OMP by at least 0.3 at the two largest m. Separated: OMP is no worse than
    eps-OMP minus 0.1 at the smallest m where either succeeds.
    """
    omp, eps = "sscosamp-omp", "sscosamp-eps-omp"
    bad = []
    for m in m_grid[-2:]:
        if rates[("clustered", eps, m)] - rates[("clustered", omp, m)] < 0.3:
            bad += [("clustered", omp, m), ("clustered", eps, m)]
    live = [m for m in m_grid if max(rates[("separated", omp, m)], rates[("separated", eps, m)]) > 0]
    if live and rates[("separated", omp, live[0])] < rates[("separated", eps, live[0])] - 0.1:
        bad += [("separated", omp, live[0]), ("separated", eps, live[0])]
    return bad
