"""In-process probe of the recover-incoherent workload: outputs and work counts.

Run from the root of a checkout, on that checkout or on another tree:

    python3 tools/recover_probe.py [--tree DIR] [--seed 1] [--rounds 256]

It builds the perfbench recover-incoherent workload of the tree (set-up and
warm-up included, as perfbench does), runs its three methods on the next
--rounds problems and prints one JSON object: a sha256 over every estimate,
support and sscosamp report (stop reason, iterations, residual, trace), a
sha256 over the supports and stop reasons only, the mean op time, and per op the Gram-column lookups, the Gram columns computed
(lookups that missed the dictionary's cache), the hand-overs of a re-fit to
signal space (projections._Residual constructions), the project calls and the
SVDs of orthonormal_range. Two trees with the same digest gave the same
outputs bit for bit; two with the same supports_digest chose the same supports
and stopped for the same reasons, which is what a change that only rounds
differently has to keep.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=str(Path(__file__).resolve().parent.parent))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=256)
    args = parser.parse_args(argv)
    tree = Path(args.tree).resolve()
    sys.path[:0] = [str(tree / "src"), str(tree)]
    from perfbench import workloads
    from sigspace import dictionaries, linalg, projections, recovery

    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.build("recover-incoherent", args.seed, Path(tmp))
    counts = {"gram_lookups": 0, "gram_computed": 0, "handovers": 0, "project": 0, "svd": 0}
    gram_column = dictionaries.Dictionary.gram_column
    project = recovery.project
    orthonormal_range = linalg.orthonormal_range

    def counting_gram_column(self, i):
        counts["gram_lookups"] += 1
        counts["gram_computed"] += i not in self._gram_cache
        return gram_column(self, i)

    class CountingResidual(projections._Residual):
        def __init__(self, *init_args):
            counts["handovers"] += 1
            super().__init__(*init_args)

    def counting_project(*call):
        counts["project"] += 1
        return project(*call)

    def counting_orthonormal_range(A):
        counts["svd"] += 1
        return orthonormal_range(A)

    dictionaries.Dictionary.gram_column = counting_gram_column
    projections._Residual = CountingResidual
    recovery.project = counting_project
    linalg.orthonormal_range = counting_orthonormal_range
    digest = hashlib.sha256()
    supports_digest = hashlib.sha256()
    ops = 0
    busy = 0.0
    for index in range(args.rounds):
        y = workload.problems[index % workload.PROBLEMS][1]
        for method in ("sscosamp-omp", "sscosamp-eps-omp", "eps-omp-recover"):
            start = time.perf_counter()
            x_hat, support, report = workload.run_method(method, y)
            busy += time.perf_counter() - start
            ops += 1
            digest.update(x_hat.tobytes())
            digest.update(repr(support.indices).encode())
            supports_digest.update(repr(support.indices).encode())
            if report is not None:
                digest.update(repr((report.stop_reason, report.iterations,
                                    report.residual_norm, report.trace)).encode())
                supports_digest.update(report.stop_reason.encode())
    per_op = {f"{name}_per_op": round(count / ops, 3) for name, count in counts.items()}
    print(json.dumps({
        "seed": args.seed,
        "ops": ops,
        "digest": digest.hexdigest(),
        "supports_digest": supports_digest.hexdigest(),
        "op_ms": round(1000.0 * busy / ops, 3),
        **per_op,
        "gram_cache_columns": len(workload.D._gram_cache),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
