"""Monte-Carlo recovery-rate experiments over overcomplete DFT dictionaries.

A sweep runs paired trials: for each trial index, every variant sees exactly
the same measurement matrix, signal and noise, so curves are comparable
point by point. Trial inputs derive from (base_seed, salt, m, trial) seed
sequences only, never from execution order, and every sweep runs through a
spawned worker pool even for one worker, so results are identical no matter
how many processes are used. The measurement matrix's seed does not depend on
the support mode, so both geometries of a sweep see the same M at each
(m, trial).

Success means relative signal error at most success_tol (default 1e-2), which
in practice separates exact-support recoveries from misses by orders of
magnitude. Clustered supports are contiguous circular blocks; separated
supports keep every circular pairwise gap at least floor(n / 2k).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context
from pathlib import Path
from xml.sax.saxutils import escape

import numpy as np

from .dictionaries import (
    SALT_MEASUREMENT,
    SALT_NOISE,
    SALT_SIGNAL,
    Dictionary,
    gaussian_measurements,
    overcomplete_dft,
    seed_sequence,
)
from .linalg import SupportSet
from .projections import SCHEME_KINDS
from .recovery import HaltingRule, RecoveryReport, SSCoSaMPConfig, eps_omp_recover, sscosamp

SIGNAL_MODES = ("clustered", "separated")
ALGORITHMS = ("sscosamp", "eps-omp-direct")

# A success-rate drop larger than this between adjacent m values is flagged.
RATE_DROP_ALARM = 0.3

CSV_HEADER = "variant,m,trials,successes,rate,mean_rel_error,mean_iters"

# BLAS thread counts every sweep worker starts with (see _worker_pool).
_WORKER_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_SEPARATED_ATTEMPTS = 100_000
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")


@dataclass(frozen=True)
class VariantSpec:
    """One curve of a sweep: which algorithm, which selection scheme, which eps."""

    label: str
    algorithm: str
    selector: str = "threshold"
    eps: float = 0.0
    a: int = 2

    def __post_init__(self) -> None:
        if not self.label or any(c in self.label for c in ",\n\r"):
            raise ValueError("label must be nonempty and free of commas/newlines")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "sscosamp" and self.selector not in SCHEME_KINDS:
            raise ValueError(f"unknown selector {self.selector!r}")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        if self.a < 1:
            raise ValueError("a must be >= 1")


def fig_variants(eps: float = math.sqrt(0.1)) -> tuple[VariantSpec, ...]:
    """The five standard curves: four selection schemes inside the signal-space
    iteration plus the one-shot extension pursuit."""
    return (
        VariantSpec("sscosamp-threshold", "sscosamp", "threshold"),
        VariantSpec("sscosamp-eps-threshold", "sscosamp", "eps-threshold", eps=eps),
        VariantSpec("sscosamp-omp", "sscosamp", "omp"),
        VariantSpec("sscosamp-eps-omp", "sscosamp", "eps-omp", eps=eps),
        VariantSpec("eps-omp-direct", "eps-omp-direct", "eps-omp", eps=eps),
    )


@dataclass(frozen=True)
class TrialConfig:
    """Everything one trial depends on; hashable to a digest for records."""

    d: int
    redundancy: int
    k: int
    m: int
    variant: VariantSpec
    mode: str
    noise_level: float
    base_seed: int
    trial_index: int
    success_tol: float = 1e-2
    max_iters: int = 50

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.m <= self.d:
            raise ValueError("need 1 <= k <= m <= d")
        if self.redundancy < 1:
            raise ValueError("redundancy must be >= 1")
        if self.mode not in SIGNAL_MODES:
            raise ValueError(f"unknown signal mode {self.mode!r}")
        if self.noise_level < 0:
            raise ValueError("noise_level must be nonnegative")
        if self.success_tol <= 0:
            raise ValueError("success_tol must be positive")
        if self.base_seed < 0 or self.trial_index < 0:
            raise ValueError("seeds and trial indices must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")

    def digest(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one (variant, m, trial). stop_reason is the report's
    ("single_pass" for eps-omp-direct). stop_reason and wall_time never enter
    the CSV; wall_time is informational only and is excluded from
    equality-of-results comparisons."""

    config_hash: str
    variant_label: str
    m: int
    trial_index: int
    success: bool
    relative_error: float
    iterations: int
    stop_reason: str
    wall_time: float


@dataclass(frozen=True)
class RecoveryCurve:
    """Aggregated success rates of one variant across the m grid.

    rates[i] is exactly successes[i] / trials. alarms lists adjacent m pairs
    where the rate dropped by more than RATE_DROP_ALARM (a sanity flag, not a
    failure). mode is the support geometry of the trials (run_sweep always
    sets it; "" means not recorded).
    """

    label: str
    base_seed: int
    m_values: tuple[int, ...]
    trials: int
    successes: tuple[int, ...]
    rates: tuple[float, ...]
    mean_rel_errors: tuple[float, ...]
    mean_iters: tuple[float, ...]
    alarms: tuple[tuple[int, int], ...] = field(default=())
    mode: str = ""


_DICT_CACHE: dict[tuple[int, int], Dictionary] = {}


def _dictionary_for(d: int, redundancy: int) -> Dictionary:
    key = (d, redundancy)
    if key not in _DICT_CACHE:
        _DICT_CACHE[key] = overcomplete_dft(d, redundancy)
    return _DICT_CACHE[key]


def _separated_support(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    spacing = n // (2 * k)
    if spacing < 1:
        raise ValueError(f"separation infeasible: n={n} too small for k={k}")
    for _ in range(_SEPARATED_ATTEMPTS):
        draw = np.sort(rng.choice(n, size=k, replace=False))
        gaps = np.diff(draw, append=draw[0] + n)
        if (gaps >= spacing).all():
            return draw
    raise RuntimeError("separated support sampling did not converge")


def gen_sparse_signal(
    D: Dictionary, k: int, mode: str, seed: int | np.random.SeedSequence
) -> tuple[np.ndarray, np.ndarray, SupportSet]:
    """Draw a unit-norm signal spanned by k atoms with the requested support
    geometry. Returns (x, coefficients over the full dictionary, support).

    k = 1 consumes the generator identically in both modes, so the two
    geometries coincide there.
    """
    if mode not in SIGNAL_MODES:
        raise ValueError(f"unknown signal mode {mode!r}")
    if not 1 <= k <= D.n:
        raise ValueError("need 1 <= k <= n")
    if isinstance(seed, np.random.SeedSequence):
        rng = np.random.Generator(np.random.PCG64(seed))
    else:
        rng = np.random.Generator(np.random.PCG64(seed_sequence(seed, SALT_SIGNAL)))
    n = D.n
    if k == 1:
        support = np.array([rng.integers(n)], dtype=np.intp)
    elif mode == "clustered":
        start = int(rng.integers(n))
        support = np.sort((start + np.arange(k)) % n)
    else:
        support = _separated_support(rng, n, k)
    T = SupportSet.from_iterable(support, n)
    cols = D.matrix[:, T.as_array()]
    for _ in range(100):
        if D.field_tag == "complex":
            coeffs = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)
        else:
            coeffs = rng.standard_normal(k)
        x = cols @ coeffs
        nrm = float(np.linalg.norm(x))
        if nrm > 1e-12:
            break
    else:  # pragma: no cover - probability zero
        raise RuntimeError("signal generator kept drawing degenerate coefficients")
    coeffs = coeffs / nrm
    x = cols @ coeffs
    alpha = np.zeros(n, dtype=coeffs.dtype)
    alpha[T.as_array()] = coeffs
    return x, alpha, T


def add_noise(v: np.ndarray, level: float, seed: np.random.SeedSequence) -> np.ndarray:
    """v plus a noise vector of norm level (v itself when level is 0).

    The noise is g * level / ||g|| for g a standard normal draw of v's length,
    seeded by seed: real, or real part then imaginary part when v is complex.
    """
    if level <= 0.0:
        return v
    rng = np.random.Generator(np.random.PCG64(seed))
    size = v.shape[0]
    if np.iscomplexobj(v):
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    else:
        g = rng.standard_normal(size)
    return v + level * g / np.linalg.norm(g)


def _measurement_matrix(cfg: TrialConfig) -> np.ndarray:
    """The trial's M; its seed depends on (base_seed, m, trial), not the mode."""
    meas_seed = seed_sequence(cfg.base_seed, SALT_MEASUREMENT, cfg.m, cfg.trial_index)
    return gaussian_measurements(cfg.m, cfg.d, meas_seed).matrix


def _trial_inputs(
    cfg: TrialConfig, M: np.ndarray | None = None
) -> tuple[Dictionary, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic (D, M, x, y) for a trial; independent of the variant.

    M, when given, must be _measurement_matrix(cfg); it is built otherwise.
    """
    D = _dictionary_for(cfg.d, cfg.redundancy)
    sig_seed = seed_sequence(cfg.base_seed, SALT_SIGNAL, cfg.trial_index)
    x, _, _ = gen_sparse_signal(D, cfg.k, cfg.mode, sig_seed)
    if M is None:
        M = _measurement_matrix(cfg)
    noise_seed = seed_sequence(cfg.base_seed, SALT_NOISE, cfg.m, cfg.trial_index)
    y = add_noise(M @ x, cfg.noise_level, noise_seed)
    return D, M, x, y


def run_variant(
    variant: VariantSpec, y: np.ndarray, M: np.ndarray, D: Dictionary, k: int,
    halting: HaltingRule, x_true: np.ndarray | None = None,
) -> RecoveryReport:
    """Recover a k-sparse signal from y = M x + e with one variant's algorithm.

    sscosamp iterates with the variant's selector under halting (x_true, when
    given, adds error norms to the trace). eps-omp-direct is one pass of
    eps_omp_recover: iterations 1, stop_reason "single_pass", an empty trace.
    """
    if variant.algorithm == "sscosamp":
        config = SSCoSaMPConfig.for_selector(
            variant.selector, k, eps=variant.eps, a=variant.a, halting=halting
        )
        return sscosamp(y, M, D, config, x_true=x_true)
    start = time.perf_counter()
    x_hat, support = eps_omp_recover(y, M, D, k, variant.eps)
    return RecoveryReport(
        estimate=x_hat,
        support=support,
        iterations=1,
        stop_reason="single_pass",
        residual_norm=float(np.linalg.norm(y - M @ x_hat)),
        trace=(),
        wall_time=time.perf_counter() - start,
    )


def _execute_variant(
    cfg: TrialConfig, D: Dictionary, M: np.ndarray, x: np.ndarray, y: np.ndarray
) -> TrialRecord:
    report = run_variant(cfg.variant, y, M, D, cfg.k, HaltingRule(max_iters=cfg.max_iters))
    rel = float(np.linalg.norm(report.estimate - x) / np.linalg.norm(x))
    return TrialRecord(
        config_hash=cfg.digest(),
        variant_label=cfg.variant.label,
        m=cfg.m,
        trial_index=cfg.trial_index,
        success=rel <= cfg.success_tol,
        relative_error=rel,
        iterations=max(report.iterations, 1),
        stop_reason=report.stop_reason,
        wall_time=report.wall_time,
    )


def run_trial(cfg: TrialConfig) -> TrialRecord:
    """Build the trial's inputs from its seeds and run its variant once."""
    D, M, x, y = _trial_inputs(cfg)
    return _execute_variant(cfg, D, M, x, y)


@dataclass(frozen=True)
class SweepSettings:
    """Shared geometry of every trial in a sweep."""

    d: int
    redundancy: int
    k: int
    mode: str
    noise_level: float = 0.0
    success_tol: float = 1e-2
    max_iters: int = 50


def _point_configs(
    settings: SweepSettings, variants: tuple[VariantSpec, ...], m: int, trial: int, base_seed: int,
    mode: str,
) -> list[TrialConfig]:
    return [
        TrialConfig(
            d=settings.d,
            redundancy=settings.redundancy,
            k=settings.k,
            m=m,
            variant=variant,
            mode=mode,
            noise_level=settings.noise_level,
            base_seed=base_seed,
            trial_index=trial,
            success_tol=settings.success_tol,
            max_iters=settings.max_iters,
        )
        for variant in variants
    ]


_WORKER_ENV: tuple[SweepSettings, tuple[VariantSpec, ...], int] | None = None

# The last measurement matrix a worker built, keyed by (base_seed, d, m, trial).
_LAST_M: tuple[tuple[int, int, int, int], np.ndarray] | None = None


def _pool_init(settings: SweepSettings, variants: tuple[VariantSpec, ...], base_seed: int) -> None:
    global _WORKER_ENV
    _WORKER_ENV = (settings, variants, base_seed)


def _shared_measurement(cfg: TrialConfig) -> np.ndarray:
    """The trial's M, read-only, reused while consecutive jobs share it.

    Jobs run mode innermost, so the jobs of both geometries at one (m, trial)
    draw M once; a miss rebuilds it from its seeds.
    """
    global _LAST_M
    key = (cfg.base_seed, cfg.d, cfg.m, cfg.trial_index)
    if _LAST_M is None or _LAST_M[0] != key:
        M = _measurement_matrix(cfg)
        M.flags.writeable = False
        _LAST_M = (key, M)
    return _LAST_M[1]


def _pool_job(job: tuple[int, int, str]) -> list[TrialRecord]:
    """Every variant on one (m, trial, mode) point's inputs, which are read-only
    so that no variant can change what the next one sees."""
    assert _WORKER_ENV is not None
    settings, variants, base_seed = _WORKER_ENV
    m, trial, mode = job
    configs = _point_configs(settings, variants, m, trial, base_seed, mode)
    D, M, x, y = _trial_inputs(configs[0], _shared_measurement(configs[0]))
    x.flags.writeable = y.flags.writeable = False
    return [_execute_variant(cfg, D, M, x, y) for cfg in configs]


@contextmanager
def _worker_pool(workers: int, initargs: tuple):
    """A spawned pool of sweep workers whose BLAS runs on one thread.

    BLAS reads its thread count when numpy loads, which a spawned worker does
    before any initializer runs, so the count is set in the environment the
    workers start from and the parent's values are restored on exit. One
    thread for every worker count keeps results independent of the number of
    workers, and workers do not compete with each other's BLAS threads.
    """
    saved = {name: os.environ.get(name) for name in _WORKER_THREAD_VARS}
    os.environ.update(dict.fromkeys(_WORKER_THREAD_VARS, "1"))
    try:
        with ProcessPoolExecutor(
            max_workers=workers,
            mp_context=get_context("spawn"),
            initializer=_pool_init,
            initargs=initargs,
        ) as pool:
            yield pool
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def resolve_threads(threads: int) -> int:
    if threads < 0:
        raise ValueError("threads must be >= 0")
    if threads == 0:
        return os.cpu_count() or 1
    return threads


def run_sweep(
    settings: SweepSettings,
    variants: tuple[VariantSpec, ...] | list[VariantSpec],
    m_grid: tuple[int, ...] | list[int],
    trials: int,
    base_seed: int,
    threads: int = 1,
    progress=None,
    modes: tuple[str, ...] | list[str] | None = None,
) -> list[RecoveryCurve]:
    """Paired-trial sweep over the m grid; one curve per (mode, variant).

    modes defaults to (settings.mode,). Every (m, trial, mode) point is a pool
    job that runs all variants on identical inputs, and all jobs of the sweep
    share one pool. Jobs always execute in spawned worker processes
    (threads = 1 uses a single-worker pool) with single-threaded BLAS and are
    aggregated in fixed (mode, variant, m, trial) order, so the output never
    depends on the degree of parallelism. Curves come back mode-major; each
    records its mode. progress(done, total) is called once per job.
    """
    variants = tuple(variants)
    m_grid = tuple(int(m) for m in m_grid)
    modes = (settings.mode,) if modes is None else tuple(modes)
    if not variants:
        raise ValueError("variants must be nonempty")
    if not m_grid:
        raise ValueError("m grid must be nonempty")
    if list(m_grid) != sorted(set(m_grid)):
        raise ValueError("m grid must be strictly increasing")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not modes:
        raise ValueError("modes must be nonempty")
    if len(set(modes)) != len(modes):
        raise ValueError(f"duplicate signal mode in {modes!r}")
    seen = set()
    for v in variants:
        if v.label in seen:
            raise ValueError(f"duplicate variant label {v.label!r}")
        seen.add(v.label)
    for mode in modes:
        for m in m_grid:
            _point_configs(settings, variants, m, 0, base_seed, mode)  # validates mode, k <= m <= d
    jobs = [(m, trial, mode) for m in m_grid for trial in range(trials) for mode in modes]
    workers = resolve_threads(threads)
    # The chunk size counts the jobs of one mode, not of the whole sweep. A
    # chunk's results arrive together, so a larger chunk bunches the progress
    # calls: near-zero gaps, then one long one. Those gaps are what times one
    # job (the fig2 benchmark's op latency), and its chunk stays 1.
    chunk = max(1, len(jobs) // len(modes) // (workers * 8))
    by_job: dict[tuple[int, int, str], list[TrialRecord]] = {}
    with _worker_pool(workers, (settings, variants, base_seed)) as pool:
        for done, (job, records) in enumerate(
            zip(jobs, pool.map(_pool_job, jobs, chunksize=chunk)), start=1
        ):
            by_job[job] = records
            if progress is not None:
                progress(done, len(jobs))
    return [
        _curve(variant.label, mode, base_seed, m_grid, trials,
               [[by_job[(m, t, mode)][vi] for t in range(trials)] for m in m_grid])
        for mode in modes
        for vi, variant in enumerate(variants)
    ]


def _curve(
    label: str, mode: str, base_seed: int, m_grid: tuple[int, ...], trials: int,
    records: list[list[TrialRecord]],
) -> RecoveryCurve:
    """One variant's curve from its records, one list of trials per m."""
    successes, rates, mres, mits = [], [], [], []
    for recs in records:
        wins = sum(1 for r in recs if r.success)
        successes.append(wins)
        rates.append(wins / trials)
        mres.append(sum(r.relative_error for r in recs) / trials)
        mits.append(sum(r.iterations for r in recs) / trials)
    alarms = tuple(
        (m_grid[i], m_grid[i + 1])
        for i in range(len(m_grid) - 1)
        if rates[i] - rates[i + 1] > RATE_DROP_ALARM
    )
    return RecoveryCurve(
        label=label,
        base_seed=base_seed,
        m_values=m_grid,
        trials=trials,
        successes=tuple(successes),
        rates=tuple(rates),
        mean_rel_errors=tuple(mres),
        mean_iters=tuple(mits),
        alarms=alarms,
        mode=mode,
    )


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_curves_csv(curves: list[RecoveryCurve], path: str | Path) -> Path:
    """One row per (variant, m); UTF-8, LF, 17 significant digits."""
    path = Path(path)
    lines = [CSV_HEADER]
    for curve in curves:
        for i, m in enumerate(curve.m_values):
            lines.append(
                ",".join(
                    (
                        curve.label,
                        str(m),
                        str(curve.trials),
                        str(curve.successes[i]),
                        _fmt(curve.rates[i]),
                        _fmt(curve.mean_rel_errors[i]),
                        _fmt(curve.mean_iters[i]),
                    )
                )
            )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_curves_csv(path: str | Path) -> list[dict]:
    """Parse a sweep CSV back into typed row dicts (inverse of write_curves_csv)."""
    rows = []
    with open(path, encoding="utf-8", newline="") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 7:
                raise ValueError(f"malformed CSV row {line!r}")
            rows.append(
                {
                    "variant": parts[0],
                    "m": int(parts[1]),
                    "trials": int(parts[2]),
                    "successes": int(parts[3]),
                    "rate": float(parts[4]),
                    "mean_rel_error": float(parts[5]),
                    "mean_iters": float(parts[6]),
                }
            )
    return rows


def _x_positions(xs, log_x: bool, x0: float, x1: float, left: float, width: float):
    span = (x1 - x0) or 1.0
    out = []
    for x in xs:
        v = math.log10(x) if log_x else float(x)
        out.append(left + (v - x0) / span * width)
    return out


def svg_line_chart(
    series: list[tuple[str, list[float], list[float]]],
    path: str | Path,
    *,
    title: str = "",
    x_label: str = "m",
    y_label: str = "rate",
    log_x: bool = False,
    width: int = 800,
    height: int = 600,
) -> Path:
    """Static SVG line chart with a fixed [0, 1] y range, one polyline per series."""
    path = Path(path)
    left, right, top, bottom = 70.0, 30.0, 45.0, 60.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    xs_all = [x for _, xs, _ in series for x in xs]
    if not xs_all:
        raise ValueError("chart needs at least one point")
    if log_x and min(xs_all) <= 0:
        raise ValueError("log axis needs positive x values")
    x0 = math.log10(min(xs_all)) if log_x else float(min(xs_all))
    x1 = math.log10(max(xs_all)) if log_x else float(max(xs_all))
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5

    def ypix(v: float) -> float:
        return top + (1.0 - v) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{width / 2:.1f}" y="26" text-anchor="middle" '
            f'font-family="sans-serif" font-size="17">{escape(title)}</text>'
        )
    for j in range(6):
        v = j / 5.0
        y = ypix(v)
        out.append(
            f'<line x1="{left:.1f}" y1="{y:.1f}" x2="{left + plot_w:.1f}" y2="{y:.1f}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{v:.1f}</text>'
        )
    if log_x:
        ticks = [10.0**j for j in range(math.floor(x0), math.ceil(x1) + 1) if x0 <= j <= x1]
    else:
        ticks = sorted(set(xs_all))
        if len(ticks) > 12:
            idx = np.linspace(0, len(ticks) - 1, 8).round().astype(int)
            ticks = [ticks[i] for i in sorted(set(idx.tolist()))]
    for t in ticks:
        (tx,) = _x_positions([t], log_x, x0, x1, left, plot_w)
        out.append(
            f'<line x1="{tx:.1f}" y1="{top + plot_h:.1f}" x2="{tx:.1f}" '
            f'y2="{top + plot_h + 5:.1f}" stroke="black" stroke-width="1"/>'
        )
        label = f"{t:g}"
        out.append(
            f'<text x="{tx:.1f}" y="{top + plot_h + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{escape(label)}</text>'
        )
    out.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{top + plot_h:.1f}" '
        f'stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<line x1="{left:.1f}" y1="{top + plot_h:.1f}" x2="{left + plot_w:.1f}" '
        f'y2="{top + plot_h:.1f}" stroke="black" stroke-width="1.5"/>'
    )
    out.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{height - 14:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(x_label)}</text>'
    )
    out.append(
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">{escape(y_label)}</text>'
    )
    for si, (label, xs, ys) in enumerate(series):
        color = _PALETTE[si % len(_PALETTE)]
        px = _x_positions(xs, log_x, x0, x1, left, plot_w)
        pts = " ".join(f"{x:.2f},{ypix(min(max(y, 0.0), 1.0)):.2f}" for x, y in zip(px, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        if len(xs) <= 64:
            for x, y in zip(px, ys):
                out.append(
                    f'<circle cx="{x:.2f}" cy="{ypix(min(max(y, 0.0), 1.0)):.2f}" r="3" '
                    f'fill="{color}"/>'
                )
        ly = top + 16 + 18 * si
        lx = left + plot_w - 220
        out.append(
            f'<line x1="{lx:.1f}" y1="{ly - 4:.1f}" x2="{lx + 26:.1f}" y2="{ly - 4:.1f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 32:.1f}" y="{ly:.1f}" font-family="sans-serif" '
            f'font-size="12">{escape(label)}</text>'
        )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")
    return path


def emit_outputs(
    curves: list[RecoveryCurve], out_dir: str | Path, stem: str = "sweep"
) -> tuple[Path, Path]:
    """Write {stem}.csv and {stem}.svg under out_dir; returns both paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_curves_csv(curves, out_dir / f"{stem}.csv")
    series = [(c.label, [float(m) for m in c.m_values], list(c.rates)) for c in curves]
    svg_path = svg_line_chart(
        series, out_dir / f"{stem}.svg", title=stem, x_label="measurements m", y_label="recovery rate"
    )
    return csv_path, svg_path
