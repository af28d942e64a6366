"""Benchmark of sigspace: three workloads, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recover-incoherent --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the end-to-end
ones (see README.md); with --trace 1 a separate, traced run reports the
per-layer ones. Every run starts in a fresh interpreter and keeps numpy's
default BLAS threading.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 4
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "SIGSPACE_THREADS",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only time the set-up in this interpreter and print the seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def machine_record(args) -> dict:
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # older numpy has no dict mode; the record stays usable
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def setup_probe_seconds(args) -> float:
    """Set-up time of this workload in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Larger of this process's and its reaped children's peak RSS (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the resource tracker that a spawned worker pool starts,
    so no process of the run outlives it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)  # Python >= 3.11
    if stop is not None:
        stop()


def run(args, started: float) -> dict:
    from perfbench import layers, workloads

    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
    workload = workloads.build(args.workload, args.seed, OUT_DIR)
    setup_s = time.perf_counter() - started
    if args.setup_probe:
        return {"setup_s": setup_s}

    attempted = failed = 0
    latencies: list[float] = []
    busy = cpu = 0.0
    faults: list[str] = []
    rounds = workload.TRACE_ROUNDS if tracer else None
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        r = workload.round(index)
        index += 1
        attempted += r.ops
        failed += r.failed
        latencies += r.latencies_ms
        busy += r.busy_s
        cpu += r.cpu_s
        faults += r.faults
        if (index >= rounds) if tracer else (time.perf_counter() >= deadline):
            break
    extra_failed, extra_faults = workload.finish()
    failed += extra_failed
    faults += extra_faults
    run_faults: list[str] = []

    if tracer:
        pool_ms = 0.0
        if args.workload == workloads.Fig2Sweep.name:
            run_faults += workload.replay(0)
            pool_ms = workload.pool_startup_ms()
        tracer.uninstall()
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = tracer.metrics(attempted, pool_startup_ms=pool_ms)
        details = {"rounds": index, "traced_wall_s": busy}
    else:
        setup_samples = [setup_s] + [setup_probe_seconds(args) for _ in range(SETUP_PROBES)]
        latencies.sort()
        done = attempted - failed

        def metric(value, unit):
            return {"value": value, "unit": unit}

        metrics = {
            "setup_s": metric(statistics.median(setup_samples), "s"),
            "ops_per_s": metric(done / busy, "1/s"),
            "op_p50_ms": metric(statistics.median(latencies), "ms"),
            "op_p90_ms": metric(statistics.quantiles(latencies, n=10)[-1], "ms"),
            "cpu_ms_per_op": metric(1000.0 * cpu / attempted, "ms"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        }
        details = {"rounds": index, "latency_samples": len(latencies), "busy_s": busy,
                   "setup_samples_s": setup_samples}
    return {
        "correct": not run_faults,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "details": details,
        "faults": faults + run_faults,
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (ROOT / "src" / "sigspace" / "__init__.py").is_file():
        print(f"perfbench: no sigspace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2
    try:
        out = run(args, started)
    finally:
        stop_resource_tracker()
    if args.setup_probe:
        print(repr(out["setup_s"]))
        return 0
    record = {"machine": machine_record(args), **out}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for fault in out["faults"][:20]:
        print(f"perfbench: fault: {fault}", file=sys.stderr)
    print("machine: " + json.dumps(record["machine"]))
    print(json.dumps({key: out[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
