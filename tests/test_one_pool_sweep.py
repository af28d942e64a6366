"""One worker pool per sweep: jobs keyed (m, trial, mode), shared read-only inputs.

``run_sweep(..., modes=...)`` runs every (m, trial, mode) job of a sweep in
one spawned pool, and ``sigspace sweep`` calls it once whatever the number of
modes. A worker hands the same read-only M, x and y to every variant of a job
and reuses M across the modes of one (m, trial).
"""

import json

import numpy as np
import pytest

from sigspace import SweepSettings, VariantSpec, emit_outputs, run_sweep
from sigspace import cli, experiments
from sigspace.recovery import STOP_MAX_ITERS, STOP_RESIDUAL, STOP_STAGNATION

MODES = ("clustered", "separated")
SETTINGS = SweepSettings(d=16, redundancy=2, k=2, mode="clustered")
VARIANTS = (
    VariantSpec("omp", "sscosamp", "omp"),
    VariantSpec("direct", "eps-omp-direct", "eps-omp", eps=0.3),
)
M_GRID = (8, 12)
TRIALS = 2
SEED = 11


def sweep(**kwargs):
    return run_sweep(SETTINGS, VARIANTS, M_GRID, TRIALS, SEED, **kwargs)


def per_mode(mode, **kwargs):
    settings = SweepSettings(d=SETTINGS.d, redundancy=SETTINGS.redundancy, k=SETTINGS.k, mode=mode)
    return run_sweep(settings, VARIANTS, M_GRID, TRIALS, SEED, **kwargs)


@pytest.fixture
def pool_starts(monkeypatch):
    """Counts the worker pools started while the test runs."""
    starts = []
    real = experiments._worker_pool

    def counting(workers, initargs):
        starts.append(workers)
        return real(workers, initargs)

    monkeypatch.setattr(experiments, "_worker_pool", counting)
    return starts


@pytest.fixture
def in_process_worker(monkeypatch):
    """The worker globals of a pool initialised in this process."""
    monkeypatch.setattr(experiments, "_WORKER_ENV", None)
    monkeypatch.setattr(experiments, "_LAST_M", None)
    experiments._pool_init(SETTINGS, VARIANTS, SEED)


def test_two_mode_cli_sweep_starts_one_pool_and_matches_per_mode_sweeps(
    pool_starts, tmp_path, capsys
):
    config = {"d": SETTINGS.d, "redundancy": SETTINGS.redundancy, "k": SETTINGS.k,
              "m_grid": list(M_GRID), "trials": TRIALS, "modes": list(MODES), "seed": SEED,
              "variants": [{"label": "omp", "algorithm": "sscosamp", "selector": "omp"},
                           {"label": "direct", "algorithm": "eps-omp-direct", "eps": 0.3}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = cli.main(["sweep", "--config", str(path), "--out", str(tmp_path / "cli"), "--quiet"])
    assert code == 0
    assert len(pool_starts) == 1
    for mode in MODES:
        csv, _ = emit_outputs(per_mode(mode), tmp_path / "direct", stem=f"sweep_{mode}")
        assert (tmp_path / "cli" / f"sweep_{mode}.csv").read_bytes() == csv.read_bytes()


def test_cli_progress_is_one_line_stream_across_modes(tmp_path, capsys):
    config = {"d": 8, "redundancy": 1, "k": 1, "m_grid": [4, 8], "trials": 1,
              "modes": list(MODES), "seed": 5,
              "variants": [{"label": "t", "algorithm": "sscosamp"}]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    assert cli.main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "points" in line] == ["[sweep] 4/4 points"]


def test_progress_fires_once_per_job_with_the_total(pool_starts):
    seen = []
    sweep(modes=MODES, progress=lambda done, total: seen.append((done, total)))
    total = len(MODES) * len(M_GRID) * TRIALS
    assert seen == [(done, total) for done in range(1, total + 1)]
    assert len(pool_starts) == 1


def test_two_mode_curves_are_mode_major_and_match_per_mode_sweeps():
    curves = sweep(modes=MODES)
    assert [(c.mode, c.label) for c in curves] == [(mode, v.label) for mode in MODES
                                                   for v in VARIANTS]
    assert curves == per_mode("clustered") + per_mode("separated")


def test_default_modes_is_the_settings_mode():
    curves = sweep()
    assert [c.mode for c in curves] == ["clustered"] * len(VARIANTS)
    assert curves == sweep(modes=("clustered",))


def test_two_mode_curves_do_not_depend_on_the_worker_count():
    assert sweep(modes=MODES, threads=1) == sweep(modes=MODES, threads=2)


@pytest.mark.parametrize(
    "modes", ((), ("random",), ("separated", "separated")), ids=("empty", "unknown", "repeated")
)
def test_bad_modes_are_refused(modes, pool_starts):
    with pytest.raises(ValueError):
        sweep(modes=modes)
    assert pool_starts == []


def test_sweep_records_carry_the_stop_reason():
    with experiments._worker_pool(1, (SETTINGS, VARIANTS, SEED)) as pool:
        records = [rec for job in [(m, t, mode) for m in M_GRID for t in range(TRIALS)
                                   for mode in MODES]
                   for rec in pool.submit(experiments._pool_job, job).result()]
    reasons = {label: {r.stop_reason for r in records if r.variant_label == label}
               for label in ("omp", "direct")}
    assert reasons["direct"] == {"single_pass"}
    assert reasons["omp"] and reasons["omp"] <= {STOP_RESIDUAL, STOP_STAGNATION, STOP_MAX_ITERS}


@pytest.mark.parametrize("name", ("M", "x", "y"))
def test_a_variant_that_writes_into_the_job_inputs_raises(name, in_process_worker, monkeypatch):
    def writing_variant(cfg, D, M, x, y):
        {"M": M, "x": x, "y": y}[name].flat[0] = 0.0

    monkeypatch.setattr(experiments, "_execute_variant", writing_variant)
    with pytest.raises(ValueError, match="read-only"):
        experiments._pool_job((8, 0, "clustered"))


def test_the_modes_of_one_point_share_one_read_only_m(in_process_worker, monkeypatch):
    seen = []
    real = experiments._execute_variant

    def execute(cfg, D, M, x, y):
        seen.append(M)
        return real(cfg, D, M, x, y)

    monkeypatch.setattr(experiments, "_execute_variant", execute)
    for job in ((8, 0, "clustered"), (8, 0, "separated"), (8, 1, "clustered")):
        experiments._pool_job(job)
    point, other = seen[0], seen[-1]
    assert all(M is point for M in seen[: 2 * len(VARIANTS)])
    assert other is not point
    assert not point.flags.writeable and not other.flags.writeable
    cfg = experiments._point_configs(SETTINGS, VARIANTS, 8, 1, SEED, "clustered")[0]
    np.testing.assert_array_equal(other, experiments._measurement_matrix(cfg))
