"""Numbered acceptance checks, one test per criterion.

Each test pins the tolerances and runtime budget it was specified with; the
conftest summary hook turns these into PASS/FAIL lines at the end of a run.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    HaltingRule,
    SSCoSaMPConfig,
    SelectionScheme,
    SweepSettings,
    VariantSpec,
    captured_and_residual_sq,
    ck_bound_cosamp_exact,
    ck_bound_generic,
    condition_check,
    convergence_constants,
    cosamp_rep_select,
    ctilde_bound_threshold,
    drip_invariant_suite,
    eps_omp_select,
    eps_threshold_select,
    epsilon_quadratic,
    epsilon_threshold,
    estimate_near_optimality,
    exact_drip,
    exact_rip,
    gaussian_measurements,
    gen_sparse_signal,
    gram_profile,
    identity_dictionary,
    iht_rep_select,
    iteration_invariant_check,
    omp_select,
    oracle_stats,
    overcomplete_dft,
    rng_from,
    run_sweep,
    seed_sequence,
    sscosamp,
    threshold_select,
)
from sigspace.cli import main
from sigspace.dictionaries import SALT_MEASUREMENT, SALT_SIGNAL


def unit_norm_dictionary(rng, d, n):
    A = rng.standard_normal((d, n))
    A /= np.linalg.norm(A, axis=0)
    return Dictionary(A, unit_norm=True)


def test_criterion_01_gram_profile():
    start = time.perf_counter()
    D = overcomplete_dft(1024, 4)
    profile = gram_profile(D, 0)
    elapsed = time.perf_counter() - start
    assert profile[0] == pytest.approx(0.9003, abs=1e-3)
    assert profile[1] == pytest.approx(0.9003, abs=1e-3)
    assert float(profile[2:].max()) <= 0.64
    assert elapsed < 5.0


def test_criterion_02_constant_bounds():
    assert ck_bound_generic(5.6686, 0.1) == pytest.approx(6.9453, abs=1e-3)
    assert ck_bound_generic(3.3562, 1.0 / math.sqrt(32.0)) == pytest.approx(4.6408, abs=1e-3)


def test_criterion_03_worked_example_chain():
    gamma = 0.01

    def chain(delta):
        c_k = ck_bound_cosamp_exact(delta, delta, delta)
        ctilde = ctilde_bound_threshold(delta)
        return condition_check(c_k, ctilde, gamma)

    assert chain(0.027) is True
    assert chain(0.030) is False


def test_criterion_04_iff_equivalence():
    start = time.perf_counter()
    c_grid = np.linspace(1.0, 12.0, 10)
    ct_grid = np.linspace(0.05, 1.0, 10)
    g_grid = np.linspace(0.01, 2.0, 10)
    points = 0
    for c_k in c_grid:
        for ctilde in ct_grid:
            for gamma in g_grid:
                points += 1
                cond = condition_check(c_k, ctilde, gamma)
                eps_sq = epsilon_threshold(c_k, ctilde, gamma)
                assert (eps_sq is not None) == cond
                if eps_sq is not None:
                    u = math.sqrt(eps_sq)
                    A, B, C = epsilon_quadratic(c_k, ctilde, gamma)
                    assert abs(A * u * u + B * u + C) <= 1e-9
    elapsed = time.perf_counter() - start
    assert points == 1000
    assert elapsed < 1.0


def test_criterion_05_oracle_invariants():
    start = time.perf_counter()
    capture_checked = 0
    extension_checked = 0
    for trial in range(200):
        rng = rng_from(20250, trial)
        d = int(rng.integers(2, 11))
        n = int(rng.integers(d, 15))
        k = int(rng.integers(1, min(3, n) + 1))
        m = int(rng.integers(max(1, d - 2), d + 3))
        D = unit_norm_dictionary(rng, d, n)
        M = gaussian_measurements(m, d, seed=seed_sequence(20251, trial)).matrix

        # (a) the dictionary-aware constant collapses to plain RIP at D = I
        k_id = min(k, d)
        assert abs(
            exact_drip(M, identity_dictionary(d), k_id) - exact_rip(M, k_id)
        ) <= 1e-10

        # (b) the operator-norm consequences of isometry hold with slack
        report = drip_invariant_suite(M, D, k)
        assert report.min_slack >= -1e-9

        # (c) measured thresholding capture ratio clears its isometry bound
        delta_k = exact_rip(D.matrix, k)
        if delta_k < 1.0:
            est = estimate_near_optimality(
                SelectionScheme("threshold", k), D, trials=6, seed=trial
            )
            assert est.ctilde_hat >= ctilde_bound_threshold(delta_k) - 1e-9
            capture_checked += 1

        # (d) no scheme beats the exhaustive oracle at its own support size
        z = rng.standard_normal(d)
        _, _, opt_res = oracle_stats(D, z, k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            supports = [
                threshold_select(D, z, k),
                omp_select(D, z, min(k, d)),
                cosamp_rep_select(D, z, k),
                iht_rep_select(D, z, k),
            ]
        for T in supports:
            _, res = captured_and_residual_sq(D.matrix, T, z)
            assert res >= opt_res - 1e-10
        eps = math.sqrt(0.1)
        for T in (eps_omp_select(D, z, k, eps), eps_threshold_select(D, z, k, eps)):
            size = max(len(T), 1)
            if sum(math.comb(n, j) for j in range(1, size + 1)) > 1500:
                continue
            _, _, opt_ext = oracle_stats(D, z, size)
            _, res = captured_and_residual_sq(D.matrix, T, z)
            assert res >= opt_ext - 1e-10
            extension_checked += 1
    elapsed = time.perf_counter() - start
    assert capture_checked >= 50
    assert extension_checked >= 100
    assert elapsed < 120.0


def test_criterion_06_unitary_reduction():
    start = time.perf_counter()
    d, m, k = 100, 60, 4
    D = identity_dictionary(d)
    config = SSCoSaMPConfig(
        k=k,
        scheme_expand=SelectionScheme("threshold", 2 * k),
        scheme_shrink=SelectionScheme("threshold", k),
    )
    wins = 0
    for seed in range(100):
        x, _, _ = gen_sparse_signal(D, k, "separated", seed_sequence(seed, SALT_SIGNAL))
        M = gaussian_measurements(m, d, seed_sequence(seed, SALT_MEASUREMENT)).matrix
        report = sscosamp(M @ x, M, D, config)
        rel = np.linalg.norm(report.estimate - x) / np.linalg.norm(x)
        wins += rel <= 1e-4
    elapsed = time.perf_counter() - start
    assert wins >= 95
    assert elapsed < 30.0


def test_criterion_07_figure2_ordinal():
    start = time.perf_counter()
    eps = math.sqrt(0.1)
    variants = (
        VariantSpec("sscosamp-omp", "sscosamp", "omp"),
        VariantSpec("sscosamp-eps-omp", "sscosamp", "eps-omp", eps=eps),
    )
    m_grid = (64, 96, 128, 160, 192, 224)
    rates = {"clustered": {}, "separated": {}}
    settings = SweepSettings(d=256, redundancy=4, k=8, mode="clustered")
    for c in run_sweep(settings, variants, m_grid, trials=50, base_seed=7, threads=1,
                       modes=("clustered", "separated")):
        rates[c.mode][c.label] = c.rates

    # clustered geometry: the extension variant must dominate at large m
    omp_c = rates["clustered"]["sscosamp-omp"]
    eps_c = rates["clustered"]["sscosamp-eps-omp"]
    for i in (-2, -1):
        assert eps_c[i] - omp_c[i] >= 0.3

    # separated geometry: plain omp keeps up at the small-m end
    omp_s = rates["separated"]["sscosamp-omp"]
    eps_s = rates["separated"]["sscosamp-eps-omp"]
    alive = [i for i in range(len(m_grid)) if max(omp_s[i], eps_s[i]) > 0.0]
    for i in alive[:2]:
        assert omp_s[i] >= eps_s[i] - 0.1
    elapsed = time.perf_counter() - start
    assert elapsed < 900.0


def test_criterion_08_certified_invariant():
    start = time.perf_counter()
    included = 0
    for trial in range(30):
        rng = rng_from(20258, trial)
        d = int(rng.integers(5, 9))
        n = min(d + 2, 10)
        k = 1
        D = unit_norm_dictionary(rng, d, n)
        Q, R = np.linalg.qr(rng.standard_normal((d, d)))
        Q = Q * np.sign(np.diag(R))
        sigma = (0.0, 1e-4, 3e-4)[trial % 3]
        M = Q + sigma * rng.standard_normal((d, d))

        d2 = exact_drip(M, D, 2 * k)
        d3 = max(exact_drip(M, D, 3 * k), d2)
        d4 = max(exact_drip(M, D, 4 * k), d3)
        constants = convergence_constants((d2, d3, d4), 1.0, 1.0, 0.01)
        if not (constants.feasible and 0.0 < constants.rho < 1.0):
            continue
        included += 1

        x, _, _ = gen_sparse_signal(D, k, "separated", seed_sequence(20259, trial))
        y = M @ x
        e_norm = 0.0
        if trial % 2 == 1:
            g = rng.standard_normal(d)
            e = 1e-2 * g / np.linalg.norm(g)
            y = y + e
            e_norm = float(np.linalg.norm(e))
        config = SSCoSaMPConfig(
            k=k,
            scheme_expand=SelectionScheme("oracle", 2 * k),
            scheme_shrink=SelectionScheme("oracle", k),
            halting=HaltingRule(max_iters=8, residual_tol=0.0, stagnation_tol=0.0),
        )
        report = sscosamp(y, M, D, config, x_true=x)
        errors = [float(np.linalg.norm(x))] + [t.error_norm for t in report.trace]
        assert iteration_invariant_check(errors, constants.rho, constants.eta, e_norm)
    elapsed = time.perf_counter() - start
    assert included >= 20
    assert elapsed < 60.0


def test_criterion_09_reproducibility(tmp_path, capsys):
    config = {
        "d": 64,
        "redundancy": 4,
        "k": 4,
        "m_grid": [24, 48],
        "trials": 4,
        "mode": "separated",
        "seed": 3,
        "variants": [
            {"label": "sscosamp-threshold", "algorithm": "sscosamp"},
            {"label": "eps-omp-direct", "algorithm": "eps-omp-direct",
             "selector": "eps-omp", "eps": 0.31622776601683794},
        ],
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    outputs = {}
    for name, threads in (("first", 1), ("second", 1), ("wide", 8)):
        out_dir = tmp_path / name
        code = main([
            "sweep", "--config", str(cfg_path), "--out", str(out_dir),
            "--threads", str(threads), "--quiet",
        ])
        capsys.readouterr()
        assert code == 0
        outputs[name] = (out_dir / "sweep_separated.csv").read_bytes()
    assert outputs["first"] == outputs["second"]
    assert outputs["first"] == outputs["wide"]
