"""Signal-space CoSaMP over a redundant dictionary.

The estimate lives in signal space: each iteration expands the support with a
selection scheme applied to the back-projected residual, solves a min-norm
least-squares fit of y against the measured atoms of the merged support,
shrinks back with a second scheme, and re-projects. Plain schemes give the
classical behaviour; the eps extension schemes trade support size for
robustness to strongly correlated atoms.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from itertools import cycle

import numpy as np

from .dictionaries import Dictionary
from .linalg import SupportSet, _adjoint_apply, _matmul, _require_finite, ls_synthesize, project
from .projections import _EPS_KINDS, SelectionScheme, _greedy, select

STOP_RESIDUAL = "residual"
STOP_STAGNATION = "stagnation"
STOP_MAX_ITERS = "max_iters"

# Stagnation looks at the relative residual drop over this many iterations.
STAGNATION_WINDOW = 3


@dataclass(frozen=True)
class HaltingRule:
    """When to stop iterating: residual floor, stagnation floor, iteration cap."""

    max_iters: int = 50
    residual_tol: float = 1e-6
    stagnation_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        _require_finite(residual_tol=self.residual_tol, stagnation_tol=self.stagnation_tol)
        if self.residual_tol < 0 or self.stagnation_tol < 0:
            raise ValueError("tolerances must be nonnegative")


@dataclass(frozen=True)
class SSCoSaMPConfig:
    """Sparsity k, expansion factor a, and the two selection schemes.

    scheme_expand picks new atoms from the residual proxy and must target a*k
    atoms; scheme_shrink prunes the merged fit back to k atoms.
    """

    k: int
    scheme_expand: SelectionScheme
    scheme_shrink: SelectionScheme
    a: int = 2
    halting: HaltingRule = field(default_factory=HaltingRule)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.a < 1:
            raise ValueError("a must be >= 1")
        if self.scheme_expand.k != self.a * self.k:
            raise ValueError("scheme_expand must target a*k atoms")
        if self.scheme_shrink.k != self.k:
            raise ValueError("scheme_shrink must target k atoms")

    @classmethod
    def for_selector(
        cls, selector: str, k: int, eps: float = 0.0, a: int = 2,
        halting: HaltingRule = HaltingRule(),
    ) -> "SSCoSaMPConfig":
        """Config that expands to a*k and shrinks to k atoms with one selector.

        eps reaches the schemes only for the eps kinds; the others drop it.
        """
        eps = eps if selector in _EPS_KINDS else 0.0
        return cls(
            k=k,
            scheme_expand=SelectionScheme(selector, a * k, eps=eps),
            scheme_shrink=SelectionScheme(selector, k, eps=eps),
            a=a,
            halting=halting,
        )


@dataclass(frozen=True)
class TraceEntry:
    """Per-iteration sizes and norms (error_norm only when the truth is known)."""

    iteration: int
    support_size: int
    merged_size: int
    residual_norm: float
    error_norm: float | None = None


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of a recovery run."""

    estimate: np.ndarray
    support: SupportSet
    iterations: int
    stop_reason: str
    residual_norm: float
    trace: tuple[TraceEntry, ...]
    wall_time: float

    def to_dict(self, include_estimate: bool = True) -> dict:
        """JSON-friendly view; complex entries become [real, imag] pairs."""
        out: dict = {
            "support": list(self.support.indices),
            "iterations": self.iterations,
            "stop_reason": self.stop_reason,
            "residual_norm": self.residual_norm,
            "wall_time": self.wall_time,
            "trace": [
                {k: v for k, v in asdict(t).items() if k != "error_norm" or v is not None}
                for t in self.trace
            ],
        }
        if include_estimate:
            x = self.estimate
            if np.iscomplexobj(x):
                out["estimate"] = [[float(v.real), float(v.imag)] for v in x]
            else:
                out["estimate"] = [float(v) for v in x]
        return out


def _stagnated(history: list[float], tol: float) -> bool:
    if len(history) < STAGNATION_WINDOW + 1:
        return False
    old = history[-1 - STAGNATION_WINDOW]
    new = history[-1]
    if old <= 0.0:
        return True
    return (old - new) / old < tol


def _checked_measurements(
    y: np.ndarray, M: np.ndarray, D: Dictionary
) -> tuple[np.ndarray, np.ndarray]:
    """y and M as arrays, checked against each other and D, and finite."""
    y = np.asarray(y)
    M = np.asarray(M)
    if M.ndim != 2 or y.shape != (M.shape[0],):
        raise ValueError("y must be a vector with one entry per measurement row")
    if M.shape[1] != D.d:
        raise ValueError("measurement columns must match the dictionary signal dimension")
    if not (np.isfinite(y).all() and np.isfinite(M).all()):
        raise ValueError("measurements y and M must be finite")
    return y, M


def sscosamp(
    y: np.ndarray,
    M: np.ndarray,
    D: Dictionary,
    config: SSCoSaMPConfig,
    x_true: np.ndarray | None = None,
) -> RecoveryReport:
    """Recover x from y = M x + e, assuming x is spanned by k dictionary atoms.

    Returns the projected estimate, its support, and a per-iteration trace.
    Stop reasons: "residual" (relative residual under the floor), "stagnation"
    (relative residual drop over a short window under the floor), "max_iters".

    What an iteration computes after its expand step (the fit, the shrunk
    support, the estimate and its residual) depends only on the merged
    support. So once an expand step yields a merged support that an earlier
    iteration of the same call already fitted, every later iteration repeats
    one of the recorded ones, in a cycle of period one or more. The loop then
    replays the recorded iterations through the same halting checks, with the
    same trace entries, instead of computing them again. Different merged
    supports often shrink to the same support, so its orthonormal basis is
    kept for the rest of the call and projected onto without another SVD.
    """
    y, M = _checked_measurements(y, M, D)
    if x_true is not None:
        x_true = np.asarray(x_true)
        if x_true.shape != (D.d,) or not np.isfinite(x_true).all():
            raise ValueError("x_true must be a finite vector of length d")
    start = time.perf_counter()
    halting = config.halting
    dtype = np.result_type(M, D.matrix, y)
    x = np.zeros(D.d, dtype=dtype)
    support = SupportSet.empty(D.n)
    y_norm = float(np.linalg.norm(y))
    residual = y.astype(dtype, copy=True)
    res_norm = y_norm
    history = [res_norm]
    trace: list[TraceEntry] = []
    stop_reason = STOP_MAX_ITERS
    iterations = 0
    fitted: list[tuple] = []  # (support, x, residual, res_norm, merged size, error) per fit
    bases: dict = {}  # shrunk support -> its orthonormal basis, for project
    position: dict[tuple[int, ...], int] = {}  # merged support -> its entry in fitted
    replay = None  # the recorded cycle, once the run has entered one
    if res_norm <= halting.residual_tol * max(y_norm, 1.0):
        stop_reason = STOP_RESIDUAL
    else:
        for it in range(1, halting.max_iters + 1):
            if replay is None:
                proxy = _adjoint_apply(M, residual)
                expand = select(config.scheme_expand, D, proxy)
                merged = support.union(expand)
                seen = position.get(merged.indices)
                if seen is None:
                    x_fit = ls_synthesize(M, D.matrix, merged, y)
                    support = select(config.scheme_shrink, D, x_fit)
                    x = project(D.matrix, support, x_fit, bases)
                    residual = y - _matmul(M, x)
                    res_norm = float(np.linalg.norm(residual))
                    err = float(np.linalg.norm(x - x_true)) if x_true is not None else None
                    position[merged.indices] = len(fitted)
                    fitted.append((support, x, residual, res_norm, len(merged), err))
                else:
                    replay = cycle(fitted[seen:])
            step = next(replay) if replay is not None else fitted[-1]
            support, x, residual, res_norm, merged_size, err = step
            history.append(res_norm)
            iterations = it
            trace.append(TraceEntry(it, len(support), merged_size, res_norm, err))
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


def eps_omp_recover(
    y: np.ndarray,
    M: np.ndarray,
    D: Dictionary,
    k: int,
    eps: float,
) -> tuple[np.ndarray, SupportSet]:
    """One-shot eps-OMP on the measured atoms M d_i.

    Selection correlates against the measured atoms through D.analysis (so
    by FFT for the overcomplete DFT): D^H (M^H y) once, then the re-fit's
    Gram column D^H M^H (M d_i) of each pick, so the m x n product M D is
    never built. Exclusion uses the dictionary's own
    correlation closure, and the final estimate is a min-norm fit of y over
    the measured atoms of the closure.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    y, M = _checked_measurements(y, M, D)
    support = _greedy(
        (M.shape[0], D.n),
        lambda i: _matmul(M, D.matrix[:, i]),
        lambda r: D.analysis(_adjoint_apply(M, r)),
        y,
        k,
        D.neighbor_table(eps),
    )[1]
    x = ls_synthesize(M, D.matrix, support, y)
    return x, support


def iteration_invariant_check(
    errors: list[float] | tuple[float, ...],
    rho: float,
    eta: float,
    e_norm: float,
    tol: float = 1e-9,
) -> bool:
    """True when every step satisfies err_t <= rho * err_{t-1} + eta * ||e||.

    errors[0] is the initial error ||x - x^0||; subsequent entries follow the
    iterates. tol absorbs floating-point slack.
    """
    if len(errors) < 2:
        return True
    bound_add = eta * e_norm + tol
    return all(errors[t] <= rho * errors[t - 1] + bound_add for t in range(1, len(errors)))
