"""The signal-space iteration, its halting rules, and the one-shot pursuit."""

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    STOP_MAX_ITERS,
    STOP_RESIDUAL,
    HaltingRule,
    SSCoSaMPConfig,
    SelectionScheme,
    eps_omp_recover,
    gaussian_measurements,
    gen_sparse_signal,
    identity_dictionary,
    iteration_invariant_check,
    overcomplete_dft,
    project,
    rng_from,
    seed_sequence,
    sscosamp,
    zeta_factor,
)
from sigspace import linalg, recovery
from sigspace.dictionaries import SALT_MEASUREMENT, SALT_SIGNAL


def threshold_config(k, a=2, **halting):
    return SSCoSaMPConfig(
        k=k,
        scheme_expand=SelectionScheme("threshold", a * k),
        scheme_shrink=SelectionScheme("threshold", k),
        a=a,
        halting=HaltingRule(**halting) if halting else HaltingRule(),
    )


def easy_instance(seed, d=40, m=30, k=3):
    D = identity_dictionary(d)
    x, _, _ = gen_sparse_signal(D, k, "separated", seed_sequence(seed, SALT_SIGNAL))
    M = gaussian_measurements(m, d, seed_sequence(seed, SALT_MEASUREMENT)).matrix
    return D, M, x, M @ x


class TestConfigValidation:
    def test_expand_k_must_match(self):
        with pytest.raises(ValueError):
            SSCoSaMPConfig(
                k=3,
                scheme_expand=SelectionScheme("threshold", 5),
                scheme_shrink=SelectionScheme("threshold", 3),
            )

    def test_shrink_k_must_match(self):
        with pytest.raises(ValueError):
            SSCoSaMPConfig(
                k=3,
                scheme_expand=SelectionScheme("threshold", 6),
                scheme_shrink=SelectionScheme("threshold", 2),
            )

    def test_expansion_factor_bound(self):
        with pytest.raises(ValueError):
            SSCoSaMPConfig(
                k=2,
                scheme_expand=SelectionScheme("threshold", 0),
                scheme_shrink=SelectionScheme("threshold", 2),
                a=0,
            )

    def test_halting_validation(self):
        with pytest.raises(ValueError):
            HaltingRule(max_iters=0)
        with pytest.raises(ValueError):
            HaltingRule(residual_tol=-1.0)


class TestSSCoSaMP:
    def test_zero_measurements_stop_immediately(self):
        D, M, _, _ = easy_instance(1)
        report = sscosamp(np.zeros(M.shape[0]), M, D, threshold_config(3))
        assert report.stop_reason == STOP_RESIDUAL
        assert np.allclose(report.estimate, 0.0)
        assert report.iterations <= 1

    def test_recovers_identity_instance(self):
        D, M, x, y = easy_instance(2)
        report = sscosamp(y, M, D, threshold_config(3), x_true=x)
        assert report.stop_reason == STOP_RESIDUAL
        err = np.linalg.norm(report.estimate - x) / np.linalg.norm(x)
        assert err <= 1e-6
        assert report.trace[-1].error_norm is not None

    def test_estimate_stays_in_selected_span(self):
        D, M, x, y = easy_instance(3)
        report = sscosamp(y, M, D, threshold_config(3))
        p = project(D.matrix, report.support, report.estimate)
        assert np.linalg.norm(report.estimate - p) <= 1e-9 * max(
            np.linalg.norm(report.estimate), 1.0
        )
        assert len(report.support) <= 3

    def test_residual_stop_is_justified(self):
        D, M, x, y = easy_instance(4)
        report = sscosamp(y, M, D, threshold_config(3))
        if report.stop_reason == STOP_RESIDUAL:
            assert report.residual_norm <= 1e-6 * np.linalg.norm(y)

    def test_merged_support_growth_bound(self):
        D = overcomplete_dft(32, 4)
        k, a = 4, 2
        eps = np.sqrt(0.1)
        cfg = SSCoSaMPConfig(
            k=k,
            scheme_expand=SelectionScheme("eps-omp", a * k, eps=eps),
            scheme_shrink=SelectionScheme("eps-omp", k, eps=eps),
            a=a,
        )
        zeta = zeta_factor(cfg.scheme_expand, D)
        x, _, _ = gen_sparse_signal(D, k, "clustered", seed_sequence(5, SALT_SIGNAL))
        M = gaussian_measurements(24, 32, seed_sequence(5, SALT_MEASUREMENT)).matrix
        report = sscosamp(M @ x, M, D, cfg)
        # carried support <= zeta*k plus expansion <= a*zeta*k, within the
        # ((a+1)*zeta+1)*k order the convergence analysis charges
        for entry in report.trace:
            assert entry.merged_size <= (a + 1) * zeta * k
            assert entry.support_size <= zeta * k

    def test_max_iters_stop(self):
        D, M, x, y = easy_instance(6)
        rng = rng_from(60)
        y_noisy = y + 0.2 * rng.standard_normal(y.shape[0])
        cfg = threshold_config(3, max_iters=2, residual_tol=0.0, stagnation_tol=0.0)
        report = sscosamp(y_noisy, M, D, cfg)
        assert report.stop_reason == STOP_MAX_ITERS
        assert report.iterations == 2
        assert len(report.trace) == 2

    def test_exact_iterate_halts_next_pass(self):
        D, M, x, y = easy_instance(7)
        report = sscosamp(y, M, D, threshold_config(3))
        assert report.stop_reason == STOP_RESIDUAL
        # once the residual is numerically zero another pass changes nothing
        again = sscosamp(y, M, D, threshold_config(3))
        assert again.iterations == report.iterations

    def test_dimension_checks(self):
        D, M, x, y = easy_instance(8)
        with pytest.raises(ValueError):
            sscosamp(y[:-1], M, D, threshold_config(3))
        with pytest.raises(ValueError):
            sscosamp(y, M[:, :-1], D, threshold_config(3))

    def test_deterministic(self):
        D, M, x, y = easy_instance(9)
        r1 = sscosamp(y, M, D, threshold_config(3))
        r2 = sscosamp(y, M, D, threshold_config(3))
        assert np.array_equal(r1.estimate, r2.estimate)
        assert r1.support.indices == r2.support.indices
        assert r1.stop_reason == r2.stop_reason

    def test_trace_residuals_match_history(self):
        D, M, x, y = easy_instance(10)
        report = sscosamp(y, M, D, threshold_config(3), x_true=x)
        for entry in report.trace:
            assert entry.residual_norm >= 0.0
            assert entry.error_norm is not None
        assert report.trace[-1].residual_norm == report.residual_norm

    @pytest.mark.parametrize("selector", ("omp", "eps-omp"))
    def test_one_svd_per_distinct_shrunk_support(self, selector, monkeypatch):
        """Within one call, a shrunk support projected onto again reuses its
        basis: one SVD per distinct support, and the same report as taking
        a fresh SVD every time."""
        projected, svds, repeats = [], [], 0
        project_, orthonormal_range = recovery.project, linalg.orthonormal_range

        def recording_project(D, T, z, *bases):
            projected.append(T.indices)
            return project_(D, T, z, *bases)

        def counting_orthonormal_range(A):
            svds.append(A.shape)
            return orthonormal_range(A)

        for seed in range(8):
            rng = rng_from(700 + seed)
            atoms = rng.standard_normal((48, 96))
            D = Dictionary(atoms / np.linalg.norm(atoms, axis=0), unit_norm=True)
            M = rng.standard_normal((32, 48)) / np.sqrt(32)
            x = D.matrix[:, rng.choice(96, size=4, replace=False)] @ rng.standard_normal(4)
            y = M @ x + 0.05 * np.linalg.norm(M @ x) * rng.standard_normal(32) / np.sqrt(32)
            config = SSCoSaMPConfig.for_selector(selector, 4, eps=0.3)
            projected.clear()
            svds.clear()
            with monkeypatch.context() as m:
                m.setattr(recovery, "project", recording_project)
                m.setattr(linalg, "orthonormal_range", counting_orthonormal_range)
                report = sscosamp(y, M, D, config)
            assert len(svds) == len(set(projected))
            repeats += len(projected) - len(svds)
            with monkeypatch.context() as m:
                m.setattr(recovery, "project", lambda D, T, z, bases: project_(D, T, z))
                fresh = sscosamp(y, M, D, config)
            assert fresh.estimate.tobytes() == report.estimate.tobytes()
            assert (fresh.support, fresh.trace) == (report.support, report.trace)
        assert repeats > 0


class TestReportSerialization:
    def test_real_round_trip(self):
        D, M, x, y = easy_instance(11)
        report = sscosamp(y, M, D, threshold_config(3), x_true=x)
        out = report.to_dict(include_estimate=True)
        assert out["stop_reason"] == report.stop_reason
        assert out["support"] == list(report.support.indices)
        assert len(out["trace"]) == report.iterations
        assert out["estimate"] == pytest.approx(list(report.estimate))

    def test_complex_estimate_as_pairs(self):
        D = overcomplete_dft(16, 2)
        x, _, _ = gen_sparse_signal(D, 2, "separated", seed_sequence(12, SALT_SIGNAL))
        M = gaussian_measurements(12, 16, seed_sequence(12, SALT_MEASUREMENT)).matrix
        report = sscosamp(M @ x, M, D, threshold_config(2))
        out = report.to_dict(include_estimate=True)
        pair = out["estimate"][0]
        assert isinstance(pair, list) and len(pair) == 2

    def test_estimate_elided_by_default(self):
        D, M, x, y = easy_instance(13)
        report = sscosamp(y, M, D, threshold_config(3))
        assert "estimate" not in report.to_dict(include_estimate=False)


class TestEpsOmpRecover:
    def test_single_atom_exact(self):
        D = overcomplete_dft(32, 4)
        j = 50
        x = D.atom(j)
        M = np.eye(32)
        x_hat, support = eps_omp_recover(x, M, D, 1, np.sqrt(0.1))
        assert j in support
        assert len(support) <= 3
        assert np.linalg.norm(x_hat - x) <= 1e-8

    def test_support_is_extension_closed(self):
        D = overcomplete_dft(32, 4)
        eps = np.sqrt(0.1)
        x, _, _ = gen_sparse_signal(D, 4, "clustered", seed_sequence(14, SALT_SIGNAL))
        M = gaussian_measurements(28, 32, seed_sequence(14, SALT_MEASUREMENT)).matrix
        _, support = eps_omp_recover(M @ x, M, D, 4, eps)
        table = D.neighbor_table(eps)
        zeta = max(len(hits) for hits in table)
        assert len(support) <= zeta * 4

    def test_validates_shapes(self):
        D = overcomplete_dft(8, 2)
        with pytest.raises(ValueError):
            eps_omp_recover(np.zeros(3), np.eye(8), D, 1, 0.1)
        with pytest.raises(ValueError):
            eps_omp_recover(np.zeros(8), np.eye(8), D, 0, 0.1)


class TestIterationInvariantCheck:
    def test_contracting_trace_passes(self):
        errors = [1.0, 0.5, 0.25, 0.125]
        assert iteration_invariant_check(errors, rho=1.0, eta=10.0, e_norm=0.0)

    def test_violating_trace_fails(self):
        errors = [1.0, 0.9, 2.0]
        assert not iteration_invariant_check(errors, rho=1.0, eta=1.0, e_norm=0.0)

    def test_noise_floor_allows_bounce(self):
        errors = [1.0, 0.6, 0.65]
        assert iteration_invariant_check(errors, rho=0.5, eta=1.0, e_norm=0.4)

    def test_short_trace_vacuous(self):
        assert iteration_invariant_check([0.7], rho=0.1, eta=0.0, e_norm=0.0)


class TestForSelector:
    def test_expand_targets_a_k_and_shrink_k(self):
        cfg = SSCoSaMPConfig.for_selector("omp", 3, a=4)
        assert (cfg.k, cfg.a) == (3, 4)
        assert cfg.scheme_expand == SelectionScheme("omp", 12)
        assert cfg.scheme_shrink == SelectionScheme("omp", 3)
        assert cfg.halting == HaltingRule()

    def test_eps_reaches_only_the_eps_kinds(self):
        for kind in ("eps-omp", "eps-threshold"):
            cfg = SSCoSaMPConfig.for_selector(kind, 2, eps=0.3)
            assert cfg.scheme_expand.eps == cfg.scheme_shrink.eps == 0.3
        for kind in ("threshold", "omp", "oracle"):
            cfg = SSCoSaMPConfig.for_selector(kind, 2, eps=0.3)
            assert cfg.scheme_expand.eps == cfg.scheme_shrink.eps == 0.0

    def test_invalid_selector_raises(self):
        with pytest.raises(ValueError, match="unknown scheme kind"):
            SSCoSaMPConfig.for_selector("matching", 2)
