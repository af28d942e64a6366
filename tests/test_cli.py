"""End-to-end coverage of the command line entry points."""

import json
import os
import pathlib
import subprocess
import sys
from importlib.metadata import EntryPoint

import numpy as np
import pytest

from sigspace import gaussian_measurements, overcomplete_dft, save_container, save_dictionary
from sigspace import cli
from sigspace.cli import build_parser, bundled_config, main
from sigspace.experiments import run_sweep

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

# The body of the wrapper pip writes for a console script: argv[0] becomes the
# script name, the target is called with no arguments so that it reads
# sys.argv, and its return value is the exit status.
CONSOLE_SCRIPT_WRAPPER = """\
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = {name!r}
    sys.exit({attr}())
"""


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


class TestRecover:
    def test_bundled_identity_config(self, capsys, tmp_path):
        code, payload, err = run_main(
            capsys,
            ["recover", "--config", str(bundled_config("recover_identity.json")),
             "--out", str(tmp_path), "--quiet"],
        )
        assert code == 0
        assert payload["stop_reason"] == "residual"
        assert payload["relative_error"] <= 1e-6
        report = json.loads((tmp_path / "recovery_report.json").read_text())
        assert report == payload
        assert err == ""

    def test_seed_override_changes_instance(self, capsys):
        cfg = str(bundled_config("recover_identity.json"))
        _, base, _ = run_main(capsys, ["recover", "--config", cfg, "--quiet"])
        _, same, _ = run_main(capsys, ["recover", "--config", cfg, "--quiet"])
        _, other, _ = run_main(capsys, ["recover", "--config", cfg, "--seed", "99", "--quiet"])
        for payload in (base, same, other):
            payload.pop("wall_time", None)
        assert base == same
        assert base["support"] != other["support"] or base["residual_norm"] != other["residual_norm"]

    def test_container_signal_with_truth(self, capsys, tmp_path):
        D = overcomplete_dft(16, 2)
        M = gaussian_measurements(12, 16, seed=5).matrix
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        x = D.matrix[:, [3, 20]] @ coeffs
        save_dictionary(tmp_path / "dict.sgc", D)
        save_container(tmp_path / "M.sgc", M)
        save_container(tmp_path / "y.sgc", M @ x)
        save_container(tmp_path / "x.sgc", x)
        cfg = write_config(tmp_path, {
            "dictionary": {"kind": "container", "path": str(tmp_path / "dict.sgc")},
            "measurement": {"kind": "container", "path": str(tmp_path / "M.sgc")},
            "signal": {"kind": "container", "y_path": str(tmp_path / "y.sgc"),
                       "x_path": str(tmp_path / "x.sgc")},
            "recovery": {"k": 2, "selector": "omp"},
        })
        code, payload, _ = run_main(capsys, ["recover", "--config", cfg, "--quiet"])
        assert code == 0
        assert payload["relative_error"] <= 1e-4

    def test_direct_pursuit_single_pass(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 3,
            "dictionary": {"kind": "dft", "d": 32, "redundancy": 4},
            "measurement": {"kind": "gaussian", "m": 28},
            "signal": {"kind": "synthetic", "k": 2, "mode": "clustered"},
            "recovery": {"k": 2, "algorithm": "eps-omp-direct", "eps": 0.31622776601683794},
        })
        code, payload, _ = run_main(capsys, ["recover", "--config", cfg, "--quiet"])
        assert code == 0
        assert payload["stop_reason"] == "single_pass"
        assert payload["iterations"] == 1

    def test_include_estimate(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 11,
            "include_estimate": True,
            "dictionary": {"kind": "identity", "d": 16},
            "measurement": {"kind": "gaussian", "m": 16},
            "signal": {"kind": "synthetic", "k": 2, "mode": "separated"},
            "recovery": {"k": 2},
        })
        code, payload, _ = run_main(capsys, ["recover", "--config", cfg, "--quiet"])
        assert code == 0
        assert len(payload["estimate"]) == 16

    def test_diagnostics_silenced_by_quiet(self, capsys, tmp_path):
        cfg = str(bundled_config("recover_identity.json"))
        _, _, loud = run_main(capsys, ["recover", "--config", cfg])
        _, _, quiet = run_main(capsys, ["recover", "--config", cfg, "--quiet"])
        assert "[recover]" in loud
        assert quiet == ""


class TestConfigErrors:
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_main(capsys, ["recover", "--config", str(tmp_path / "nope.json")])
        assert code == 1
        assert "config error" in err

    def test_bad_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{", encoding="utf-8")
        code, _, err = run_main(capsys, ["recover", "--config", str(path)])
        assert code == 1

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "dictionary": {"kind": "identity", "d": 4},
            "measurement": {"kind": "gaussian", "m": 4},
            "signal": {"kind": "synthetic", "k": 1},
            "recovery": {"k": 1},
            "typo_key": 1,
        })
        code, _, err = run_main(capsys, ["recover", "--config", cfg])
        assert code == 1
        assert "typo_key" in err

    def test_missing_required_key(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"dictionary": {"kind": "identity", "d": 4}})
        code, _, err = run_main(capsys, ["recover", "--config", cfg])
        assert code == 1

    def test_negative_seed_rejected(self, capsys):
        cfg = str(bundled_config("recover_identity.json"))
        code, _, err = run_main(capsys, ["recover", "--config", cfg, "--seed", "-1"])
        assert code == 1

    def test_shape_mismatch_is_runtime_error(self, capsys, tmp_path):
        save_container(tmp_path / "y.sgc", np.zeros(5))
        cfg = write_config(tmp_path, {
            "dictionary": {"kind": "identity", "d": 8},
            "measurement": {"kind": "gaussian", "m": 4},
            "signal": {"kind": "container", "y_path": str(tmp_path / "y.sgc")},
            "recovery": {"k": 1},
        })
        code, _, err = run_main(capsys, ["recover", "--config", cfg])
        assert code == 2
        assert "error" in err

    def test_grid_violating_dimensions(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "d": 8, "redundancy": 1, "k": 2, "m_grid": [1, 8], "trials": 1,
            "mode": "separated", "seed": 1,
            "variants": [{"label": "t", "algorithm": "sscosamp"}],
        })
        code, _, err = run_main(capsys, ["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 1


class TestTheoryCommand:
    def test_chain_mode(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"mode": "chain", "delta": 0.027})
        code, payload, _ = run_main(capsys, ["theory", "--config", cfg, "--quiet"])
        assert code == 0
        assert payload["condition_ok"] is True
        assert payload["c_k_bound"] == pytest.approx(7.278282684762415, abs=1e-9)
        assert payload["ctilde_bound"] == pytest.approx(0.9474196689386564, abs=1e-12)

    def test_chain_mode_failing_point(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"mode": "chain", "delta": 0.030})
        code, payload, _ = run_main(capsys, ["theory", "--config", cfg, "--quiet"])
        assert code == 0
        assert payload["condition_ok"] is False

    def test_constants_mode_with_budget(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "mode": "constants", "c_k": 1.0, "ctilde_2k": 1.0, "gamma": 0.01,
            "deltas": [0.0, 0.0, 0.0], "x_norm": 1024.0, "e_norm": 1.0,
        })
        code, payload, _ = run_main(capsys, ["theory", "--config", cfg, "--quiet"])
        assert code == 0
        assert payload["rho"] == pytest.approx(0.2807415223516405, abs=1e-12)
        # ceil(ln(1024/1) / ln(1/rho)) at the ideal-parameter rho
        assert payload["t_star"] == 6

    def test_writes_report_file(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"mode": "chain", "delta": 0.02})
        code, payload, _ = run_main(
            capsys, ["theory", "--config", cfg, "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        on_disk = json.loads((tmp_path / "theory.json").read_text())
        assert on_disk == payload


class TestGramCommand:
    def test_profile_summary_and_outputs(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {"dictionary": {"kind": "dft", "d": 64, "redundancy": 4}})
        code, payload, _ = run_main(
            capsys, ["gram", "--config", cfg, "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert payload["entries"] == 64 * 4 - 1
        assert payload["top"][0] == pytest.approx(0.9003, abs=1e-3)
        assert (tmp_path / "gram_profile.csv").exists()
        assert (tmp_path / "gram_profile.svg").exists()
        first_rows = (tmp_path / "gram_profile.csv").read_text().splitlines()[:2]
        assert first_rows[0] == "rank,correlation"

    def test_atom_bounds_checked(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "dictionary": {"kind": "identity", "d": 4}, "atom": 4,
        })
        code, _, err = run_main(capsys, ["gram", "--config", cfg])
        assert code == 1


class TestProjectCommand:
    def test_bundled_tiny_instance_matches_fixture(self, capsys, fixture_dir):
        expected = json.loads((fixture_dir / "project_tiny_expected.json").read_text())
        code, payload, _ = run_main(
            capsys,
            ["project", "--config", str(bundled_config("project_tiny.json")), "--quiet"],
        )
        assert code == 0
        assert payload["support"] == expected["support"]
        assert payload["captured_energy"] == pytest.approx(
            expected["captured_energy"], abs=1e-12
        )
        assert payload["residual_energy"] == pytest.approx(
            expected["residual_energy"], abs=1e-12
        )

    def test_inline_real_signal(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "dictionary": {"kind": "identity", "d": 4},
            "scheme": {"kind": "threshold", "k": 2},
            "signal": {"kind": "inline", "values": [3.0, -5.0, 1.0, 0.0]},
        })
        code, payload, _ = run_main(capsys, ["project", "--config", cfg, "--quiet"])
        assert code == 0
        assert payload["support"] == [0, 1]
        assert payload["captured_energy"] == pytest.approx(34.0, abs=1e-12)

    def test_synthetic_signal_with_oracle(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "seed": 2,
            "dictionary": {"kind": "dft", "d": 8, "redundancy": 2},
            "scheme": {"kind": "oracle", "k": 2},
            "signal": {"kind": "synthetic", "k": 2, "mode": "separated"},
        })
        code, payload, _ = run_main(capsys, ["project", "--config", cfg, "--quiet"])
        assert code == 0
        assert payload["residual_energy"] <= 1e-9


class TestSweepCommand:
    def test_tiny_sweep_outputs(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "d": 16, "redundancy": 1, "k": 2, "m_grid": [8, 16], "trials": 2,
            "mode": "separated", "seed": 5,
            "variants": [
                {"label": "threshold", "algorithm": "sscosamp"},
                {"label": "omp", "algorithm": "sscosamp", "selector": "omp"},
            ],
        })
        out_dir = tmp_path / "results"
        code, payload, _ = run_main(
            capsys,
            ["sweep", "--config", cfg, "--out", str(out_dir), "--quiet", "--threads", "1"],
        )
        assert code == 0
        assert (out_dir / "sweep_separated.csv").exists()
        assert (out_dir / "sweep_separated.svg").exists()
        assert payload["sweeps"][0]["mode"] == "separated"
        curves = payload["sweeps"][0]["curves"]
        assert [c["label"] for c in curves] == ["threshold", "omp"]
        assert all(len(c["rates"]) == 2 for c in curves)

    def test_both_modes_emitted(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "d": 8, "redundancy": 1, "k": 1, "m_grid": [4, 8], "trials": 1,
            "modes": ["clustered", "separated"], "seed": 5,
            "variants": [{"label": "threshold", "algorithm": "sscosamp"}],
        })
        out_dir = tmp_path / "results"
        code, payload, _ = run_main(
            capsys, ["sweep", "--config", cfg, "--out", str(out_dir), "--quiet"]
        )
        assert code == 0
        assert (out_dir / "sweep_clustered.csv").exists()
        assert (out_dir / "sweep_separated.csv").exists()
        assert len(payload["sweeps"]) == 2

    def test_mode_and_modes_conflict(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {
            "d": 8, "redundancy": 1, "k": 1, "m_grid": [4], "trials": 1,
            "mode": "separated", "modes": ["clustered"], "seed": 5,
        })
        code, _, err = run_main(capsys, ["sweep", "--config", cfg])
        assert code == 1

    def test_one_worker_without_threads_whatever_the_environment(self, capsys, tmp_path,
                                                                 monkeypatch):
        monkeypatch.setenv("SIGSPACE_THREADS", "4")
        seen = []

        def recording_run_sweep(*args, threads, **kwargs):
            seen.append(threads)
            return run_sweep(*args, threads=threads, **kwargs)

        monkeypatch.setattr(cli, "run_sweep", recording_run_sweep)
        cfg = write_config(tmp_path, {
            "d": 8, "redundancy": 1, "k": 1, "m_grid": [4, 8], "trials": 1,
            "mode": "separated", "seed": 1,
            "variants": [{"label": "t", "algorithm": "sscosamp"}],
        })
        code, _, err = run_main(capsys, ["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert code == 0
        assert seen == [1]
        assert "workers=1\n" in err


# The flags each subcommand takes; argparse refuses every other one (the
# refusals are pinned in tests/test_cli_golden.py).
SUBCOMMAND_FLAGS = {
    "recover": {"--config", "--out", "--quiet", "--seed"},
    "sweep": {"--config", "--out", "--quiet", "--seed", "--threads"},
    "theory": {"--config", "--out", "--quiet"},
    "gram": {"--config", "--out", "--quiet", "--seed"},
    "project": {"--config", "--out", "--quiet", "--seed"},
}


class TestFlags:
    def test_each_subcommand_takes_exactly_its_flags(self):
        (subcommands,) = build_parser()._subparsers._group_actions
        assert set(subcommands.choices) == set(SUBCOMMAND_FLAGS)
        for name, sub in subcommands.choices.items():
            flags = {s for action in sub._actions for s in action.option_strings}
            assert flags - {"-h", "--help"} == SUBCOMMAND_FLAGS[name], name


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        # Checks the console script this checkout declares, run as the
        # installed wrapper would run it, without installing anything.
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8"))
        entry = EntryPoint(
            name="sigspace", value=pyproject["project"]["scripts"]["sigspace"],
            group="console_scripts",
        )
        assert entry.load() is main

        # Import this checkout's package, never an installed copy.
        search_path = [str(REPO_ROOT / "src")]
        if os.environ.get("PYTHONPATH"):
            search_path.append(os.environ["PYTHONPATH"])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(search_path)}
        wrapper = CONSOLE_SCRIPT_WRAPPER.format(module=entry.module, attr=entry.attr, name=entry.name)

        def run_script(*args):
            return subprocess.run(
                [sys.executable, "-c", wrapper, *args],
                capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
            )

        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps({"mode": "chain", "delta": 0.027}), encoding="utf-8")
        proc = run_script("theory", "--config", str(cfg), "--quiet")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["condition_ok"] is True
        # The exit status is main()'s return value, not a default of 0.
        missing = run_script("theory", "--config", str(tmp_path / "missing.json"))
        assert missing.returncode == 1
        assert "config error" in missing.stderr

    def test_module_invocation_help(self):
        proc = subprocess.run(
            [sys.executable, "-c", "from sigspace.cli import main; raise SystemExit(main(['--help']))"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "recover" in proc.stdout and "sweep" in proc.stdout
