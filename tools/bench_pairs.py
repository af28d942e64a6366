"""Alternating parent/change benchmark pairs, written as one BENCH JSON file.

Run from the root of a checkout:

    python3 tools/bench_pairs.py --parent HEAD --out BENCH_n.json \\
        --pairs recover-incoherent=10 --pairs fig2-sweep=5 --pairs certify-small=5 \\
        --title "..." --claim "..."

The parent is a `git archive` of the given revision, unpacked in a temporary
directory; the change is the working tree. Each side runs the command that
BENCHMARK.json declares (its own, unchanged `perfbench/run.py`) from its own
root, one seed per pair and the same seed on both sides, parent first in odd
pairs and change first in even ones, workloads one after another. Every run
is listed. Each workload also gets three traced runs per side (its
per-layer metrics), sides alternating as in the pairs, and with
--sweep-trials the bundled fig2_desk.json sweep is run on both sides at
each --sweep-threads and the digests of its outputs are compared; when they
differ, the CSVs are compared column by column between the sides and across
thread counts within a side.

The verdict compares medians against the bounds in BENCHMARK.json and counts
the pairs in which the change reads better; it claims nothing by itself.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = Path("src") / "sigspace" / "configs" / "fig2_desk.json"
# one traced run per side is too noisy to place a per-layer saving
TRACED_RUNS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--out", required=True, help="BENCH JSON file to write")
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=N",
                        help="number of pairs of one workload (repeatable)")
    parser.add_argument("--first-seed", type=int, default=101,
                        help="seed of the first pair; pair i uses first_seed + i")
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--title", required=True)
    parser.add_argument("--claim", required=True)
    parser.add_argument("--sweep-trials", type=int, default=0,
                        help="also compare fig2_desk.json sweep outputs with this many trials")
    parser.add_argument("--sweep-threads", type=int, nargs="*", default=[1, 2])
    parser.add_argument("--attach", action="append", default=[], metavar="KEY=FILE",
                        help="add the JSON object in FILE under KEY (repeatable)")
    args = parser.parse_args(argv)
    pairs = {}
    for item in args.pairs:
        name, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            parser.error(f"--pairs expects WORKLOAD=N with N >= 1, got {item!r}")
        pairs[name] = int(count)
    args.pairs = pairs
    return args


def unpack_parent(revision: str, dest: Path) -> str:
    """The full hash of revision, whose tree is unpacked into dest."""
    sha = subprocess.run(["git", "rev-parse", revision], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return sha


def run_bench(tree: Path, command: list[str], workload: str, seed: int, seconds: float,
              trace: int) -> tuple[dict, dict]:
    """(result, machine) of one benchmark run in tree."""
    cmd = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    machine = json.loads(lines[-2].removeprefix("machine: "))
    return json.loads(lines[-1]), machine


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return [round(q, 3) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Medians, quartiles, pairs won and the bound check of one metric."""
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (p_med - c_med) if higher else (c_med - p_med)
    return {
        "parent": parent,
        "change": change,
        "median": {"parent": round(p_med, 3), "change": round(c_med, 3)},
        "quartiles": {"parent": quartiles(parent), "change": quartiles(change)},
        "change_better_pairs": f"{wins}/{len(parent)}",
        "relative_change": round((c_med - p_med) / p_med, 4) if p_med else None,
        "worse_than_bound": worse > metric["bound"] * abs(p_med),
    }


def run_pairs(args, trees: dict[str, Path], bench: dict) -> tuple[dict, dict]:
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    results, machine = {}, {}
    for workload, count in args.pairs.items():
        seeds = [args.first_seed + i for i in range(count)]
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in sides:
                out, machine = run_bench(trees[side], bench["command"], workload, seed, seconds, 0)
                runs[side].append(out)
                print(f"{workload} seed {seed} {side}: "
                      f"{out['metrics']['ops_per_s']['value']:.3f} ops/s", file=sys.stderr)
        entry = {
            "seeds": seeds,
            "order": ["parent first" if i % 2 == 0 else "change first" for i in range(count)],
            "attempted": {side: [r["attempted"] for r in runs[side]] for side in runs},
            "failed": {side: [r["failed"] for r in runs[side]] for side in runs},
            "correct": all(r["correct"] for side in runs for r in runs[side]),
        }
        for metric in metrics:
            values = {side: [round(r["metrics"][metric["name"]]["value"], 3) for r in runs[side]]
                      for side in runs}
            entry[metric["name"]] = summarize(metric, values["parent"], values["change"])
        results[workload] = entry
    keep = ("nproc", "cpus_usable", "python", "numpy", "blas")
    return results, {key: machine.get(key) for key in keep}


def traced(args, trees: dict[str, Path], bench: dict) -> dict:
    """Per-layer metrics of TRACED_RUNS traced runs per side and workload:
    per metric and side, one value per run (run i at seed first_seed + i)."""
    runs = TRACED_RUNS
    out = {"note": f"{runs} --trace 1 runs per side, sides alternating as in the pairs, "
                   f"seeds {args.first_seed}..{args.first_seed + runs - 1}"}
    for workload in args.pairs:
        per_side = {"parent": [], "change": []}
        for i in range(runs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result, _ = run_bench(trees[side], bench["command"], workload,
                                      args.first_seed + i, 1.0, 1)
                per_side[side].append(
                    {k: round(v["value"], 4) for k, v in result["metrics"].items()})
        names = sorted({name for side in per_side.values() for run in side for name in run})
        out[workload] = {
            name: {side: [run.get(name) for run in per_side[side]] for side in per_side}
            for name in names
        }
    return out


def sweep_digests(args, trees: dict[str, Path], scratch: Path) -> dict:
    """sha256 of each fig2_desk.json sweep output, per side and thread count."""
    config = json.loads((ROOT / SWEEP_CONFIG).read_text())
    config["trials"] = args.sweep_trials
    config_path = scratch / "fig2_sweep.json"
    config_path.write_text(json.dumps(config))
    digests = {}
    for side, tree in trees.items():
        for threads in args.sweep_threads:
            out_dir = scratch / f"sweep-{side}-{threads}"
            env = {**os.environ, "PYTHONPATH": str(tree / "src")}
            subprocess.run([sys.executable, "-m", "sigspace.cli", "sweep", "--config",
                            str(config_path), "--out", str(out_dir), "--threads", str(threads),
                            "--quiet"], cwd=tree, env=env, check=True, capture_output=True)
            digests[f"{side}_threads_{threads}"] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out_dir.iterdir())
            }
    runs = list(digests.values())
    record = {
        "sweep_command": f"sigspace sweep --config fig2_desk.json(trials {args.sweep_trials}) "
                         "--out <dir> --threads <t> --quiet",
        "identical": all(r == runs[0] for r in runs),
        "digests": digests,
    }
    if not record["identical"]:
        record.update(compare_csvs(args.sweep_threads, trees, scratch, digests))
    return record


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def compare_csvs(thread_counts, trees, scratch: Path, digests: dict) -> dict:
    """What a rounding change has to show when the sweep outputs differ.

    csv_columns_match: per CSV file and column, whether the parent's and the
    change's cells are equal at every thread count (successes, rate and
    mean_iters must be; mean_rel_error may move by rounding).
    csv_identical_across_threads: per side, whether its CSVs are byte for byte
    the same at every thread count.
    """
    columns = {}
    for threads in thread_counts:
        for path in sorted((scratch / f"sweep-parent-{threads}").glob("*.csv")):
            parent = read_rows(path)
            change = read_rows(scratch / f"sweep-change-{threads}" / path.name)
            match = columns.setdefault(path.name, dict.fromkeys(parent[0], True))
            for col in match:
                match[col] = match[col] and len(parent) == len(change) and all(
                    p[col] == c[col] for p, c in zip(parent, change))
    across = {}
    for side in trees:
        csvs = [{k: v for k, v in digests[f"{side}_threads_{t}"].items() if k.endswith(".csv")}
                for t in thread_counts]
        across[side] = all(c == csvs[0] for c in csvs)
    return {"csv_columns_match": columns, "csv_identical_across_threads": across}


def verdict(results: dict, bench: dict) -> list[str]:
    lines = []
    for workload, entry in results.items():
        failed = sum(entry["failed"]["change"]), sum(entry["failed"]["parent"])
        worse = [m["name"] for m in bench["end_to_end"] if entry[m["name"]]["worse_than_bound"]]
        parts = [f"{workload}: failed ops change/parent {failed[0]}/{failed[1]}",
                 "worse than bound: " + (", ".join(worse) if worse else "none")]
        for metric in bench["end_to_end"]:
            s = entry[metric["name"]]
            parts.append(f"{metric['name']} {s['median']['parent']} -> {s['median']['change']} "
                         f"(change better in {s['change_better_pairs']}, parent IQR "
                         f"{s['quartiles']['parent'][0]}..{s['quartiles']['parent'][2]})")
        lines.append("; ".join(parts))
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = set(args.pairs) - {w["name"] for w in bench["workloads"]}
    if unknown:
        print(f"bench_pairs: unknown workloads {sorted(unknown)}", file=sys.stderr)
        return 2
    attached = {}
    for item in args.attach:
        key, _, path = item.partition("=")
        attached[key] = json.loads(Path(path).read_text())
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        scratch = Path(tmp)
        parent_tree = scratch / "parent"
        parent_tree.mkdir()
        sha = unpack_parent(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        results, machine = run_pairs(args, trees, bench)
        record = {
            "title": args.title,
            "parent": sha,
            "command": " ".join(bench["command"])
            + " --workload <w> --seed <s> --seconds <t> --trace 0",
            "claim": args.claim,
            "protocol": (
                "Alternating parent/change pairs, the parent from a `git archive` of "
                f"{sha[:7]} and the change from the working tree, one seed per pair and the "
                "same seed on both sides, parent first in odd pairs and change first in even "
                "ones, workloads one after another. Pairs: "
                + ", ".join(f"{w} {n}" for w, n in args.pairs.items())
                + ". Every run is listed."
            ),
            "machine": machine,
            "end_to_end": results,
            "verdict": verdict(results, bench),
            "traced_replay": traced(args, trees, bench),
            "outputs_identical": sweep_digests(args, trees, scratch) if args.sweep_trials else None,
            **attached,
        }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
