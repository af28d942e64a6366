"""In-process probe of the fig2-sweep pool jobs: outputs, job times and work counts.

Run from the root of a checkout, on that checkout or on another tree:

    python3 tools/fig2_probe.py [--tree DIR] [--seed 1] [--rounds 4]

It runs the pool jobs of the tree's perfbench fig2-sweep rounds 0 .. --rounds-1
(each round: every (m, trial, mode) point of its M_GRID, TRIALS and MODES under
the round's base seed, all five fig_variants per job) in this process, one job
after another on one BLAS thread, as a sweep worker runs them. It prints one
JSON object: a sha256 over every TrialRecord field except wall_time, the mean
and p50 job time in ms, and per job the support gathers (linalg.subdict
calls), the Gram-column lookups, the least-squares fits (ls_synthesize) and
the SVDs of orthonormal_range. Two trees with the same digest made the same
records bit for bit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=4)
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    # BLAS reads its thread count when numpy loads: one thread, as in a sweep worker
    os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"), "1"))
    from perfbench import workloads
    from sigspace import dictionaries, experiments, linalg, recovery

    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.build("fig2-sweep", args.seed, Path(tmp))
    geometry = workload.GEOMETRY
    settings = experiments.SweepSettings(
        d=geometry["d"], redundancy=geometry["redundancy"], k=geometry["k"],
        mode=workload.MODES[0], noise_level=geometry["noise_level"],
        success_tol=geometry["success_tol"], max_iters=workload.MAX_ITERS,
    )
    variants = experiments.fig_variants()
    counts = {"subdict": 0, "gram_lookups": 0, "fits": 0, "svd": 0}
    subdict = linalg.subdict
    gram_column = dictionaries.Dictionary.gram_column
    ls_synthesize = recovery.ls_synthesize
    orthonormal_range = linalg.orthonormal_range

    def counting_subdict(*call):
        counts["subdict"] += 1
        return subdict(*call)

    def counting_gram_column(self, i):
        counts["gram_lookups"] += 1
        return gram_column(self, i)

    def counting_ls_synthesize(*call):
        counts["fits"] += 1
        return ls_synthesize(*call)

    def counting_orthonormal_range(A):
        counts["svd"] += 1
        return orthonormal_range(A)

    linalg.subdict = counting_subdict
    dictionaries.Dictionary.gram_column = counting_gram_column
    recovery.ls_synthesize = counting_ls_synthesize
    linalg.orthonormal_range = counting_orthonormal_range
    digest = hashlib.sha256()
    job_ms = []
    for index in range(args.rounds):
        base_seed = workload.base_seed(index)
        for m in workload.M_GRID:
            for trial in range(workload.TRIALS):
                for mode in workload.MODES:
                    start = time.perf_counter()
                    records = experiments._pool_job(settings, variants, base_seed, (m, trial, mode))
                    job_ms.append(1000.0 * (time.perf_counter() - start))
                    for record in records:
                        fields = [(k, v) for k, v in record.__dict__.items() if k != "wall_time"]
                        digest.update(repr(fields).encode())
    jobs = len(job_ms)
    print(json.dumps({
        "seed": args.seed,
        "rounds": args.rounds,
        "jobs": jobs,
        "digest": digest.hexdigest(),
        "job_ms_mean": round(statistics.fmean(job_ms), 3),
        "job_ms_p50": round(statistics.median(job_ms), 3),
        **{f"{name}_per_job": round(count / jobs, 3) for name, count in counts.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
