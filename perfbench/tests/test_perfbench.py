"""Tests of the benchmark itself: short runs pass, wrong results are caught.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import sigspace as ss  # noqa: E402
from sigspace import cli  # noqa: E402

from perfbench import checks, layers, workloads  # noqa: E402

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op", "peak_rss_mb")


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [m["name"] for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.METRICS


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_short_run_passes_its_checks(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", "0"))
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3
    assert sorted(result["metrics"]) == sorted(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    first, second = (
        _result(_run("--workload", "certify-small", "--seed", "5", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    )
    assert [name for name, _, _ in layers.METRICS] == list(first["metrics"])
    counts = [name for name, unit, _ in layers.METRICS if unit == "count/op"]
    assert {n: first["metrics"][n] for n in counts} == {n: second["metrics"][n] for n in counts}
    assert first["metrics"]["theory.exact_rip.calls"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "certify-small", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- wrong results make ops fail -------------------------------------------


@pytest.fixture(scope="module")
def recover():
    return workloads.RecoverIncoherent(seed=4)


def test_recovery_checks_pass_on_real_outputs(recover):
    for method in ("sscosamp-omp", "sscosamp-eps-omp", "eps-omp-recover"):
        x_hat, support, report = recover.run_method(method, recover.problems[1][1])
        assert checks.recovery_faults(recover.problems[1], recover.M, recover.D.matrix, recover.k,
                                      x_hat, support, report, recover.halting) == []


def test_estimate_off_its_support_span_fails_the_op(recover, monkeypatch):
    real = ss.eps_omp_recover

    def off_span(y, M, D, k, eps):
        x_hat, support = real(y, M, D, k, eps)
        cols = D.matrix[:, list(support)]
        v = np.random.default_rng(0).standard_normal(D.d)
        v -= cols @ np.linalg.lstsq(cols, v, rcond=None)[0]
        return x_hat + 1e-6 * v / np.linalg.norm(v), support

    monkeypatch.setattr(ss, "eps_omp_recover", off_span)
    r = recover.round(2)
    assert (r.ops, r.failed) == (3, 1)
    assert "off its support's span" in r.faults[0]


def test_wrong_stop_reason_fails_the_op(recover, monkeypatch):
    real = ss.sscosamp

    def lying(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, stop_reason=ss.STOP_MAX_ITERS)

    monkeypatch.setattr(ss, "sscosamp", lying)
    r = recover.round(3)
    assert (r.ops, r.failed) == (3, 2)
    assert all("stop_reason" in f for f in r.faults)


def test_expected_stop_follows_the_halting_rule():
    halting = ss.HaltingRule(max_iters=5)
    assert checks.expected_stop(1.0, [0.5, 1e-7], halting) == ("residual", 2)
    assert checks.expected_stop(1.0, [0.5, 0.4, 0.3, 0.5], halting) == ("stagnation", 4)
    assert checks.expected_stop(1.0, [0.9, 0.8, 0.7, 0.6, 0.5], halting) == ("max_iters", 5)


def _rip_skipping_first_support(A, k):
    """exact_rip with one support left out of its loop."""
    A = np.asarray(A)
    delta = 0.0
    for T in list(combinations(range(A.shape[1]), k))[1:]:
        s = np.linalg.svd(A[:, T], compute_uv=False)
        smin = s[-1] if len(s) == k else 0.0
        delta = max(delta, s[0] ** 2 - 1.0, 1.0 - smin**2)
    return float(delta)


def test_exact_rip_skipping_a_support_fails_the_op(monkeypatch):
    certify = workloads.CertifySmall(seed=6)
    assert certify.round(0).failed == 0
    monkeypatch.setattr(ss, "exact_rip", _rip_skipping_first_support)
    r = certify.round(1)
    assert r.failed == r.ops == len(certify.SHAPES)
    assert all("exact_rip" in f for f in r.faults)


def test_swapped_figure2_rates_fail_their_rows(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "run_sweep", cli.run_sweep)  # restored after the test
    sweep = workloads.Fig2Sweep(seed=1, out_dir=tmp_path)
    omp, eps = "sscosamp-omp", "sscosamp-eps-omp"
    good = {}
    for m in sweep.M_GRID:
        good[("clustered", omp, m)], good[("clustered", eps, m)] = 0.1, 1.0
        good[("separated", omp, m)], good[("separated", eps, m)] = 1.0, 0.5
    assert checks.figure2_faults(good, sweep.M_GRID) == []
    swapped = dict(good)
    for mode in ("clustered", "separated"):
        for m in sweep.M_GRID:
            swapped[(mode, omp, m)], swapped[(mode, eps, m)] = good[(mode, eps, m)], good[(mode, omp, m)]
    assert len(checks.figure2_faults(swapped, sweep.M_GRID)) == 6

    sweep.rounds = 2
    sweep.successes = {key: round(rate * 2 * sweep.TRIALS) for key, rate in swapped.items()}
    failed, faults = sweep.finish()
    assert failed == 6 * 2 * sweep.TRIALS
    assert faults


def test_sweep_row_checks():
    row = {"variant": "eps-omp-direct", "m": 96, "trials": 7, "successes": 5,
           "rate": 5 / 7, "mean_rel_error": 0.1, "mean_iters": 1.0}
    assert checks.sweep_row_faults(row, 7, 50) == []
    assert checks.sweep_row_faults(dict(row, rate=0.7), 7, 50)
    assert checks.sweep_row_faults(dict(row, mean_iters=2.0), 7, 50)
    assert checks.sweep_row_faults(dict(row, variant="sscosamp-omp", mean_iters=0.5), 7, 50)
