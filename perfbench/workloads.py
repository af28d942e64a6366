"""The benchmark workloads: set-up, one round of ops, and the checks of each op.

A workload is built from its seed (the set-up), then run in whole rounds. A
round runs the same operations every time, so the share of failed ops never
depends on how long a run lasts. ``Round`` holds what the run loop needs to
compute the end-to-end metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sigspace as ss
from sigspace import cli

from . import checks

EPS = math.sqrt(0.1)


@dataclass
class Round:
    """Ops of one round: counts, per-op latencies, busy wall and CPU seconds."""

    ops: int = 0
    failed: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    busy_s: float = 0.0
    cpu_s: float = 0.0
    faults: list[str] = field(default_factory=list)


def _run_op(out: Round, label: str, call, check) -> None:
    """Time one in-process op, check its result and count it in out.

    The CPU time is the process's, all threads included.
    """
    out.ops += 1
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # an op that raises is a failed op
        out.failed += 1
        out.faults.append(f"{label}: {exc!r}")
        return
    t1, c1 = time.perf_counter(), time.process_time()
    out.latencies_ms.append(1000.0 * (t1 - t0))
    out.busy_s += t1 - t0
    out.cpu_s += c1 - c0
    faults = check(result)
    if faults:
        out.failed += 1
        out.faults += [f"{label}: {f}" for f in faults]


# ---------------------------------------------------------------------------
# recover-incoherent


class RecoverIncoherent:
    """Single recoveries on a real dictionary of unit-norm Gaussian atoms.

    Set-up draws D (d x n), M (m x d) and PROBLEMS noisy k-sparse problems
    with numpy's own generator, then runs one op of each method once (first
    calls build the eps neighbor table). A round is one problem recovered by
    the three methods; rounds cycle through the problems.
    """

    name = "recover-incoherent"
    d, n, m, k = 512, 1024, 256, 8
    NOISE = 0.01
    PROBLEMS = 256
    TRACE_ROUNDS = 64

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        atoms = rng.standard_normal((self.d, self.n))
        atoms /= np.linalg.norm(atoms, axis=0)
        self.D = ss.Dictionary(atoms, unit_norm=True)
        self.M = rng.standard_normal((self.m, self.d)) / math.sqrt(self.m)
        gram = np.abs(atoms.T @ atoms)
        np.fill_diagonal(gram, 0.0)
        self.coherence = float(gram.max())
        if self.coherence >= 1.0 - EPS**2:
            raise RuntimeError(f"coherence {self.coherence:.3f} makes zeta > 1")
        self.problems = [self._problem(rng) for _ in range(self.PROBLEMS)]
        self.halting = ss.HaltingRule()

        def config(kind: str, eps: float) -> ss.SSCoSaMPConfig:
            return ss.SSCoSaMPConfig(
                k=self.k,
                scheme_expand=ss.SelectionScheme(kind, 2 * self.k, eps=eps),
                scheme_shrink=ss.SelectionScheme(kind, self.k, eps=eps),
                halting=self.halting,
            )

        self.configs = {"sscosamp-omp": config("omp", 0.0), "sscosamp-eps-omp": config("eps-omp", EPS)}
        self.round(0)  # warm-up, part of set-up

    def _problem(self, rng):
        support = rng.choice(self.n, size=self.k, replace=False)
        x = self.D.matrix[:, support] @ rng.standard_normal(self.k)
        x /= np.linalg.norm(x)
        y0 = self.M @ x
        g = rng.standard_normal(self.m)
        e = self.NOISE * np.linalg.norm(y0) * g / np.linalg.norm(g)
        return x, y0 + e, float(np.linalg.norm(e))

    def run_method(self, method: str, y):
        """(estimate, support, report or None) of one method on y."""
        if method == "eps-omp-recover":
            x_hat, support = ss.eps_omp_recover(y, self.M, self.D, self.k, EPS)
            return x_hat, support, None
        report = ss.sscosamp(y, self.M, self.D, self.configs[method])
        return report.estimate, report.support, report

    def round(self, index: int) -> Round:
        problem = self.problems[index % self.PROBLEMS]
        out = Round()
        for method in ("sscosamp-omp", "sscosamp-eps-omp", "eps-omp-recover"):
            _run_op(
                out,
                f"{method} round {index}",
                lambda: self.run_method(method, problem[1]),
                lambda result: checks.recovery_faults(
                    problem, self.M, self.D.matrix, self.k, *result, self.halting
                ),
            )
        return out

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


# ---------------------------------------------------------------------------
# certify-small


@dataclass
class Instance:
    D: ss.Dictionary
    M: np.ndarray
    z: np.ndarray
    k: int
    single: tuple[int, ...]
    seed: int


class CertifySmall:
    """Exhaustive certificates on tiny random unit-norm dictionaries.

    A round is one instance of each shape in SHAPES, in order; the seed only
    draws their entries, so every run sees the same mix of sizes.
    """

    name = "certify-small"
    # (d, n, k, m - d). Costs run from about 3 ms to 100 ms with no wide gap
    # between neighbours, so the latency quantiles never sit in a gap
    # between two sizes.
    SHAPES = (
        (4, 6, 1, 0),
        (7, 9, 1, 2),
        (5, 8, 2, -1),
        (6, 8, 2, 1),
        (8, 10, 2, 0),
        (9, 12, 2, -1),
        (10, 14, 2, 0),
        (5, 8, 3, 0),
        (6, 9, 3, 1),
        (7, 9, 3, 0),
        (6, 10, 3, 0),
        (7, 11, 3, -2),
        (8, 12, 3, 1),
        (10, 12, 3, 0),
        (9, 13, 3, 2),
        (10, 14, 3, -1),
    )
    PLAIN = ("threshold", "omp", "cosamp-rep", "iht-rep", "oracle")
    EXTENDED = ("eps-omp", "eps-threshold")
    # eps schemes are compared with the oracle at their own size when the
    # oracle enumerates at most this many supports
    EXT_ORACLE_SUPPORTS = 1500
    TRACE_ROUNDS = 10

    def __init__(self, seed: int):
        self.seed = seed
        self._op(self.instance(-1))  # warm-up, part of set-up

    def instance(self, index: int) -> Instance:
        d, n, k, dm = self.SHAPES[index % len(self.SHAPES)]
        rng = np.random.default_rng([self.seed, 2, index + 1])
        atoms = rng.standard_normal((d, n))
        m = d + dm
        return Instance(
            D=ss.Dictionary(atoms / np.linalg.norm(atoms, axis=0), unit_norm=True),
            M=rng.standard_normal((m, d)) / math.sqrt(m),
            z=rng.standard_normal(d),
            k=k,
            single=tuple(sorted(rng.choice(d, size=min(k, d), replace=False).tolist())),
            seed=index + 1,
        )

    def _op(self, inst: Instance) -> dict:
        D, M, z, k = inst.D, inst.M, inst.z, inst.k
        k_id = min(k, inst.D.d)
        out = {
            "drip_identity": ss.exact_drip(M, ss.identity_dictionary(D.d), k_id),
            "rip_M": ss.exact_rip(M, k_id),
            "suite": ss.drip_invariant_suite(M, D, k),
            "rip_D": ss.exact_rip(D.matrix, k),
            "rip_single": ss.exact_rip(M[:, inst.single], k_id),
            "estimate": ss.estimate_near_optimality(
                ss.SelectionScheme("threshold", k), D, trials=6, seed=inst.seed
            ),
            "oracle": ss.oracle_stats(D, z, k),
        }
        with warnings.catch_warnings():
            # cosamp-rep / iht-rep warn when they stop at their iteration cap
            warnings.simplefilter("ignore", RuntimeWarning)
            out["plain"] = {
                kind: ss.select(ss.SelectionScheme(kind, k_id if kind == "omp" else k), D, z)
                for kind in self.PLAIN
            }
            out["extended"] = {}
            for kind in self.EXTENDED:
                T = ss.select(ss.SelectionScheme(kind, k, eps=EPS), D, z)
                size = max(len(T), 1)
                small = sum(math.comb(D.n, j) for j in range(1, size + 1)) <= self.EXT_ORACLE_SUPPORTS
                out["extended"][kind] = (T, ss.oracle_stats(D, z, size) if small else None)
        return out

    def round(self, index: int) -> Round:
        out = Round()
        for j in range(len(self.SHAPES)):
            inst = self.instance(index * len(self.SHAPES) + j)
            _run_op(out, f"instance {inst.seed}", lambda: self._op(inst),
                    lambda result: checks.certificate_faults(inst, result))
        return out

    def finish(self) -> tuple[int, list[str]]:
        return 0, []


# ---------------------------------------------------------------------------
# fig2-sweep


def _rusage_cpu_s() -> tuple[float, float]:
    """(CPU seconds of this process, of its reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Fig2Sweep:
    """The paper's Figure 2 study through ``sigspace sweep``, in-process.

    Each round runs ``cli.main(["sweep", ...])`` at one worker on the
    fig2_desk geometry (d = 256, 4x DFT, k = 8, both support modes, the five
    fig_variants) with M_GRID and TRIALS, under a base seed drawn from the
    benchmark seed and the round index. One op is one variant-trial.

    Op latency is taken per pool job (one (m, trial) point, all five
    variants): the gap between successive results of run_sweep's progress
    callback, without the first result of each sweep, which also carries the
    pool start.
    """

    name = "fig2-sweep"
    GEOMETRY = {"d": 256, "redundancy": 4, "k": 8, "noise_level": 0.0, "success_tol": 0.01}
    M_GRID = (96, 160)
    TRIALS = 7
    MODES = ("clustered", "separated")
    MAX_ITERS = 50
    TRACE_ROUNDS = 1

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir / "fig2"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.out_dir / "config.json"
        self.keys = [(mode, v.label, m) for mode in self.MODES for v in ss.fig_variants()
                     for m in self.M_GRID]
        self.successes: dict[tuple[str, str, int], int] = {}
        self.failed_rows: set[tuple[int, str, str, int]] = set()
        self.rounds = 0
        self.last_round_csv: dict[tuple[str, str, int], dict] = {}
        self._arrivals: list[list[float]] = []
        sweep = cli.run_sweep

        def timed_sweep(*args, progress=None, **kwargs):
            times = [time.perf_counter()]
            self._arrivals.append(times)

            def record(done: int, total: int) -> None:
                times.append(time.perf_counter())
                if progress is not None:
                    progress(done, total)

            return sweep(*args, progress=record, **kwargs)

        cli.run_sweep = timed_sweep

    def base_seed(self, index: int) -> int:
        return int(np.random.SeedSequence([self.seed, 3, index]).generate_state(1)[0])

    def round(self, index: int) -> Round:
        base = self.base_seed(index)
        config = dict(self.GEOMETRY, m_grid=list(self.M_GRID), trials=self.TRIALS,
                      modes=list(self.MODES), seed=base, variants="default")
        self.config_path.write_text(json.dumps(config), encoding="utf-8")
        for mode in self.MODES:  # a sweep that writes nothing must not pass on old files
            (self.out_dir / f"sweep_{mode}.csv").unlink(missing_ok=True)
        out = Round(ops=len(self.keys) * self.TRIALS)
        self._arrivals.clear()
        argv = ["sweep", "--config", str(self.config_path), "--out", str(self.out_dir),
                "--quiet", "--threads", "1"]
        c0 = _rusage_cpu_s()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except Exception as exc:
            code = repr(exc)
        t1 = time.perf_counter()
        c1 = _rusage_cpu_s()
        out.busy_s = t1 - t0
        out.cpu_s = (c1[0] - c0[0]) + (c1[1] - c0[1])
        for times in self._arrivals:
            out.latencies_ms += [1000.0 * (b - a) for a, b in zip(times[1:], times[2:])]
        self.rounds += 1
        if code != 0:
            out.faults.append(f"round {index}: sigspace sweep returned {code!r}")
            self.failed_rows.update((index,) + key for key in self.keys)
        else:
            self._check_csvs(index, out)
        out.failed = self.TRIALS * sum(1 for row in self.failed_rows if row[0] == index)
        return out

    def _check_csvs(self, index: int, out: Round) -> None:
        rows: dict[tuple[str, str, int], list[dict]] = {}
        for mode in self.MODES:
            try:
                parsed = ss.read_curves_csv(self.out_dir / f"sweep_{mode}.csv")
            except (OSError, ValueError) as exc:
                out.faults.append(f"round {index}: {mode} CSV unreadable: {exc!r}")
                parsed = []
            for row in parsed:
                rows.setdefault((mode, row["variant"], row["m"]), []).append(row)
        self.last_round_csv = {}
        for key in self.keys:
            found = rows.get(key, [])
            faults = [f"{len(found)} rows"] if len(found) != 1 else checks.sweep_row_faults(
                found[0], self.TRIALS, self.MAX_ITERS
            )
            if faults:
                out.faults += [f"round {index} {key}: {f}" for f in faults]
                self.failed_rows.add((index,) + key)
                continue
            self.last_round_csv[key] = found[0]
            self.successes[key] = self.successes.get(key, 0) + found[0]["successes"]

    def finish(self) -> tuple[int, list[str]]:
        """Check the Figure 2 orderings on the successes of all rounds.

        Returns the ops newly failed by the check (all rounds of the rows that
        break it) and the faults.
        """
        trials = self.rounds * self.TRIALS
        rates = {key: self.successes.get(key, 0) / trials for key in self.keys}
        bad = checks.figure2_faults(rates, self.M_GRID)
        new = {(r,) + key for key in bad for r in range(self.rounds)} - self.failed_rows
        self.failed_rows |= new
        faults = [f"Figure 2 ordering broken at {key}: rate {rates[key]:.3f}" for key in sorted(set(bad))]
        return self.TRIALS * len(new), faults

    def replay(self, index: int) -> list[str]:
        """Re-run round index in-process through run_trial; its successes must
        equal the pool's (the determinism contract)."""
        base = self.base_seed(index)
        faults = []
        for mode in self.MODES:
            for variant in ss.fig_variants():
                for m in self.M_GRID:
                    wins = sum(
                        ss.run_trial(
                            ss.TrialConfig(m=m, variant=variant, mode=mode, base_seed=base,
                                           trial_index=t, max_iters=self.MAX_ITERS, **self.GEOMETRY)
                        ).success
                        for t in range(self.TRIALS)
                    )
                    row = self.last_round_csv.get((mode, variant.label, m))
                    if row is None or row["successes"] != wins:
                        faults.append(f"replay of {(mode, variant.label, m)}: {wins} successes, "
                                      f"pool gave {None if row is None else row['successes']}")
        return faults

    def pool_startup_ms(self) -> float:
        """Median wall time of three run_sweep calls whose only trial is trivially small."""
        settings = ss.SweepSettings(d=4, redundancy=1, k=1, mode="clustered")
        variant = (ss.VariantSpec("threshold", "sscosamp", "threshold"),)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            ss.run_sweep(settings, variant, (1,), 1, 0, threads=1)
            times.append(1000.0 * (time.perf_counter() - t0))
        return sorted(times)[len(times) // 2]


def build(name: str, seed: int, out_dir: Path):
    if name == RecoverIncoherent.name:
        return RecoverIncoherent(seed)
    if name == CertifySmall.name:
        return CertifySmall(seed)
    if name == Fig2Sweep.name:
        return Fig2Sweep(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (Fig2Sweep.name, RecoverIncoherent.name, CertifySmall.name)
