"""Trial orchestration, sweep aggregation, and CSV/SVG emission."""

import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

from sigspace import (
    CSV_HEADER,
    RecoveryCurve,
    SweepSettings,
    TrialConfig,
    VariantSpec,
    emit_outputs,
    fig_variants,
    gen_sparse_signal,
    overcomplete_dft,
    read_curves_csv,
    resolve_threads,
    rng_from,
    run_sweep,
    run_trial,
    seed_sequence,
    svg_line_chart,
    write_curves_csv,
)
from sigspace import experiments
from sigspace.dictionaries import SALT_SIGNAL
from sigspace.experiments import _separated_support


class TestVariantSpec:
    def test_label_rules(self):
        with pytest.raises(ValueError):
            VariantSpec("a,b", "sscosamp")
        with pytest.raises(ValueError):
            VariantSpec("", "sscosamp")

    def test_algorithm_and_selector_checked(self):
        with pytest.raises(ValueError):
            VariantSpec("x", "newton")
        with pytest.raises(ValueError):
            VariantSpec("x", "sscosamp", selector="pick-best")

    def test_eps_range(self):
        with pytest.raises(ValueError):
            VariantSpec("x", "sscosamp", selector="eps-omp", eps=1.0)

    def test_standard_curve_set(self):
        variants = fig_variants()
        assert len(variants) == 5
        labels = [v.label for v in variants]
        assert len(set(labels)) == 5
        assert sum(v.algorithm == "eps-omp-direct" for v in variants) == 1


class TestTrialConfig:
    def base(self, **overrides):
        kw = dict(
            d=16, redundancy=2, k=2, m=8,
            variant=VariantSpec("sscosamp-threshold", "sscosamp"),
            mode="separated", noise_level=0.0, base_seed=1, trial_index=0,
        )
        kw.update(overrides)
        return TrialConfig(**kw)

    def test_digest_is_stable_and_sensitive(self):
        a, b = self.base(), self.base()
        assert a.digest() == b.digest()
        assert a.digest() != self.base(trial_index=1).digest()
        assert a.digest() != self.base(m=9).digest()

    def test_ordering_constraint(self):
        with pytest.raises(ValueError):
            self.base(m=20)
        with pytest.raises(ValueError):
            self.base(k=9)

    def test_mode_checked(self):
        with pytest.raises(ValueError):
            self.base(mode="banded")


class TestSignalGeneration:
    def test_unit_norm_and_support_size(self):
        D = overcomplete_dft(32, 4)
        for mode in ("clustered", "separated"):
            x, alpha, T = gen_sparse_signal(D, 4, mode, seed=5)
            assert np.linalg.norm(x) == pytest.approx(1.0, abs=1e-12)
            assert len(T) == 4
            assert np.array_equal(np.flatnonzero(alpha), T.as_array())
            assert np.allclose(D.matrix @ alpha, x, atol=1e-12)

    def test_clustered_supports_are_contiguous(self):
        D = overcomplete_dft(16, 4)
        n = D.n
        for seed in range(10):
            _, _, T = gen_sparse_signal(D, 5, "clustered", seed=seed)
            idx = T.as_array()
            gaps = np.diff(np.concatenate([idx, [idx[0] + n]]))
            assert np.sum(gaps > 1) <= 1  # one circular block

    def test_separated_supports_keep_distance(self):
        D = overcomplete_dft(16, 4)
        n, k = D.n, 4
        spacing = n // (2 * k)
        for seed in range(10):
            _, _, T = gen_sparse_signal(D, k, "separated", seed=seed)
            idx = T.as_array()
            gaps = np.diff(np.concatenate([idx, [idx[0] + n]]))
            assert gaps.min() >= spacing

    def test_modes_coincide_for_single_atom(self):
        D = overcomplete_dft(16, 4)
        xa, _, Ta = gen_sparse_signal(D, 1, "clustered", seed=3)
        xb, _, Tb = gen_sparse_signal(D, 1, "separated", seed=3)
        assert Ta.indices == Tb.indices
        assert np.array_equal(xa, xb)

    def test_deterministic_per_seed(self):
        D = overcomplete_dft(16, 4)
        xa, _, _ = gen_sparse_signal(D, 3, "clustered", seed=9)
        xb, _, _ = gen_sparse_signal(D, 3, "clustered", seed=9)
        xc, _, _ = gen_sparse_signal(D, 3, "clustered", seed=10)
        assert np.array_equal(xa, xb)
        assert not np.array_equal(xa, xc)

    def test_separated_helper_respects_budget(self):
        rng = rng_from(301)
        idx = _separated_support(rng, 24, 3)
        assert idx.shape == (3,)
        assert len(set(idx.tolist())) == 3

    def test_separated_helper_is_uniform_on_the_valid_sets(self):
        # n = 16, k = 3: spacing 2, and 352 sets keep every circular gap >= 2.
        # Seed, draw count (100 per set) and bound (Pearson chi-square with
        # 351 degrees of freedom, P(> 490) about 1e-6) were fixed before the
        # first run.
        n, k = 16, 3
        valid = [s for s in itertools.combinations(range(n), k)
                 if min(np.diff(s, append=s[0] + n)) >= 2]
        assert len(valid) == 352
        rng = rng_from(303, n, k)
        draws = 100 * len(valid)
        counts = dict.fromkeys(valid, 0)
        for _ in range(draws):
            counts[tuple(_separated_support(rng, n, k).tolist())] += 1  # KeyError if invalid
        expected = draws / len(valid)
        chi2 = sum((c - expected) ** 2 for c in counts.values()) / expected
        assert min(counts.values()) > 0
        assert chi2 < 490.0

    def test_separated_helper_at_the_tightest_spacing(self):
        # n = 16, k = 8: spacing 1, so any 8 distinct atoms qualify
        rng = rng_from(304)
        for _ in range(200):
            idx = _separated_support(rng, 16, 8)
            assert idx.dtype == np.intp and idx.shape == (8,)
            assert idx.min() >= 0 and idx.max() < 16
            assert np.diff(idx, append=idx[0] + 16).min() >= 1

    def test_k_bounds(self):
        D = overcomplete_dft(8, 2)
        with pytest.raises(ValueError):
            gen_sparse_signal(D, 0, "clustered", seed=1)
        with pytest.raises(ValueError):
            gen_sparse_signal(D, 17, "clustered", seed=1)


class TestRunTrial:
    def test_easy_trial_succeeds(self):
        cfg = TrialConfig(
            d=32, redundancy=1, k=2, m=24,
            variant=VariantSpec("sscosamp-threshold", "sscosamp"),
            mode="separated", noise_level=0.0, base_seed=4, trial_index=0,
        )
        rec = run_trial(cfg)
        assert rec.success
        assert rec.relative_error <= cfg.success_tol
        assert rec.iterations >= 1
        assert rec.variant_label == "sscosamp-threshold"

    def test_records_are_reproducible(self):
        cfg = TrialConfig(
            d=32, redundancy=1, k=2, m=24,
            variant=VariantSpec("sscosamp-omp", "sscosamp", selector="omp"),
            mode="separated", noise_level=0.0, base_seed=4, trial_index=3,
        )
        a, b = run_trial(cfg), run_trial(cfg)
        assert a.relative_error == b.relative_error
        assert a.success == b.success
        assert a.config_hash == b.config_hash

    def test_direct_pursuit_counts_one_pass(self):
        cfg = TrialConfig(
            d=32, redundancy=4, k=2, m=28,
            variant=VariantSpec("eps-omp-direct", "eps-omp-direct", eps=np.sqrt(0.1)),
            mode="clustered", noise_level=0.0, base_seed=6, trial_index=0,
        )
        rec = run_trial(cfg)
        assert rec.iterations == 1


class TestRunSweep:
    def small_settings(self, **overrides):
        kw = dict(d=16, redundancy=1, k=2, mode="separated")
        kw.update(overrides)
        return SweepSettings(**kw)

    def test_curves_are_aggregated(self):
        variants = (
            VariantSpec("sscosamp-threshold", "sscosamp"),
            VariantSpec("sscosamp-omp", "sscosamp", selector="omp"),
        )
        curves = run_sweep(self.small_settings(), variants, [8, 12, 16], trials=3, base_seed=2)
        assert [c.label for c in curves] == ["sscosamp-threshold", "sscosamp-omp"]
        for c in curves:
            assert c.m_values == (8, 12, 16)
            assert c.trials == 3
            assert all(0.0 <= r <= 1.0 for r in c.rates)
            assert all(s == round(r * 3) for s, r in zip(c.successes, c.rates))

    def test_fit_that_lapack_fails_to_converge_on(self):
        # One fig2 trial whose fit lstsq failed to converge on under
        # single-threaded OpenBLAS; the sweep's workers run single-threaded.
        variants = tuple(v for v in fig_variants() if v.label == "sscosamp-eps-omp")
        settings = SweepSettings(d=256, redundancy=4, k=8, mode="separated")
        (curve,) = run_sweep(settings, variants, (160,), 2, 218768143, threads=1)
        assert curve.trials == 2

    def test_thread_counts_agree(self):
        variants = (VariantSpec("sscosamp-threshold", "sscosamp"),)
        a = run_sweep(self.small_settings(), variants, [8, 16], trials=2, base_seed=3, threads=1)
        b = run_sweep(self.small_settings(), variants, [8, 16], trials=2, base_seed=3, threads=2)
        assert a == b

    def test_progress_callback_sees_every_point(self):
        seen = []
        variants = (VariantSpec("sscosamp-threshold", "sscosamp"),)
        run_sweep(
            self.small_settings(), variants, [8, 16], trials=2, base_seed=3,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_validation(self):
        variants = (VariantSpec("sscosamp-threshold", "sscosamp"),)
        with pytest.raises(ValueError):
            run_sweep(self.small_settings(), (), [8], trials=1, base_seed=1)
        with pytest.raises(ValueError):
            run_sweep(self.small_settings(), variants, [], trials=1, base_seed=1)
        with pytest.raises(ValueError):
            run_sweep(self.small_settings(), variants, [16, 8], trials=1, base_seed=1)
        with pytest.raises(ValueError):
            run_sweep(self.small_settings(), variants, [8], trials=0, base_seed=1)
        with pytest.raises(ValueError):
            run_sweep(self.small_settings(), variants * 2, [8], trials=1, base_seed=1)
        with pytest.raises(ValueError):
            run_sweep(self.small_settings(), variants, [1], trials=1, base_seed=1)

    def test_resolve_threads(self):
        assert resolve_threads(3) == 3
        assert resolve_threads(0) >= 1
        with pytest.raises(ValueError):
            resolve_threads(-1)


class TestCsvRoundTrip:
    def sample_curves(self):
        return [
            RecoveryCurve(
                label="sscosamp-threshold",
                base_seed=7,
                m_values=(8, 16),
                trials=4,
                successes=(1, 4),
                rates=(0.25, 1.0),
                mean_rel_errors=(0.3712345678901234, 1.23456789e-09),
                mean_iters=(12.5, 3.0),
            )
        ]

    def test_round_trip_preserves_floats(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self.sample_curves(), path)
        rows = read_curves_csv(path)
        assert len(rows) == 2
        assert rows[0]["variant"] == "sscosamp-threshold"
        assert rows[0]["m"] == 8 and rows[0]["trials"] == 4
        assert rows[0]["mean_rel_error"] == 0.3712345678901234
        assert rows[1]["rate"] == 1.0

    def test_layout_is_stable(self, tmp_path):
        path = tmp_path / "curves.csv"
        write_curves_csv(self.sample_curves(), path)
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[0] == CSV_HEADER
        assert "\r" not in text
        assert text.endswith("\n")

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("variant,m\nx,1\n", encoding="utf-8")
        with pytest.raises(ValueError, match="header"):
            read_curves_csv(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nx,1,2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="row"):
            read_curves_csv(path)


class TestSvgChart:
    def test_chart_written_with_series(self, tmp_path):
        path = tmp_path / "chart.svg"
        out = svg_line_chart(
            [("alpha", [1.0, 2.0, 3.0], [0.0, 0.5, 1.0]),
             ("beta", [1.0, 2.0, 3.0], [1.0, 0.5, 0.25])],
            path,
            title="rates",
            x_label="m",
            y_label="rate",
        )
        text = out.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "alpha" in text and "beta" in text
        assert "polyline" in text

    def test_labels_are_escaped(self, tmp_path):
        path = tmp_path / "esc.svg"
        svg_line_chart([("a&b<c>", [1.0, 2.0], [0.1, 0.9])], path, title="t", x_label="x", y_label="y")
        text = path.read_text(encoding="utf-8")
        assert "a&amp;b&lt;c&gt;" in text
        assert "a&b<c>" not in text

    def test_escaping_matches_the_xml_escape(self, tmp_path, monkeypatch):
        from xml.sax.saxutils import escape

        text = """a&b <c> "d" 'e' &amp;"""
        series = [(text, [1.0, 2.0], [0.1, 0.9]), ("plain", [1.0, 2.0], [0.2, 0.3])]
        labels = dict(title=text, x_label=text + "x", y_label="y" + text)
        got = svg_line_chart(series, tmp_path / "got.svg", **labels).read_bytes()
        monkeypatch.setattr(experiments, "_escape", escape)
        expected = svg_line_chart(series, tmp_path / "expected.svg", **labels).read_bytes()
        assert got == expected
        assert b"a&amp;b &lt;c&gt; \"d\" 'e' &amp;amp;" in got

    def test_package_import_leaves_xml_sax_out(self):
        code = (
            "import sys, sigspace.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request') if m in sys.modules))"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_log_axis_accepted(self, tmp_path):
        path = tmp_path / "log.svg"
        xs = [float(i) for i in range(1, 300)]
        ys = [min(1.0, 1.0 / x) for x in xs]
        svg_line_chart([("curve", xs, ys)], path, title="t", x_label="x", y_label="y", log_x=True)
        assert path.stat().st_size > 0

    def test_emit_outputs_writes_both(self, tmp_path):
        csv_path, svg_path = emit_outputs(self.curves(), tmp_path, stem="sweep_test")
        assert csv_path.name == "sweep_test.csv"
        assert svg_path.name == "sweep_test.svg"
        assert csv_path.exists() and svg_path.exists()

    def curves(self):
        return [
            RecoveryCurve(
                label="sscosamp-threshold",
                base_seed=1,
                m_values=(8, 16),
                trials=2,
                successes=(0, 2),
                rates=(0.0, 1.0),
                mean_rel_errors=(0.9, 0.001),
                mean_iters=(20.0, 2.0),
            )
        ]
