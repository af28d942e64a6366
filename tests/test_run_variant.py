"""run_variant is the one dispatch from a variant to its recovery algorithm."""

import numpy as np
import pytest

from sigspace import (
    HaltingRule,
    SSCoSaMPConfig,
    eps_omp_recover,
    gaussian_measurements,
    overcomplete_dft,
    sscosamp,
)
from sigspace.experiments import VariantSpec, fig_variants, gen_sparse_signal, run_variant


@pytest.fixture(scope="module")
def problem():
    D = overcomplete_dft(32, 2)
    M = gaussian_measurements(20, 32, seed=3).matrix
    x, _, _ = gen_sparse_signal(D, 3, "separated", seed=4)
    return D, M, x, M @ x


@pytest.mark.parametrize("variant", fig_variants(), ids=lambda v: v.label)
def test_matches_the_algorithm_it_names(problem, variant):
    D, M, x, y = problem
    halting = HaltingRule(max_iters=20)
    report = run_variant(variant, y, M, D, 3, halting, x_true=x)
    if variant.algorithm == "sscosamp":
        config = SSCoSaMPConfig.for_selector(variant.selector, 3, eps=variant.eps, halting=halting)
        expected = sscosamp(y, M, D, config, x_true=x)
        assert report.trace == expected.trace
        assert (report.iterations, report.stop_reason) == (expected.iterations,
                                                            expected.stop_reason)
        x_hat, support = expected.estimate, expected.support
    else:
        x_hat, support = eps_omp_recover(y, M, D, 3, variant.eps)
        assert (report.iterations, report.stop_reason, report.trace) == (1, "single_pass", ())
    np.testing.assert_array_equal(report.estimate, x_hat)
    assert report.support == support
    assert report.residual_norm == pytest.approx(float(np.linalg.norm(y - M @ x_hat)), abs=1e-12)
    assert report.wall_time >= 0.0


def test_halting_reaches_sscosamp_only(problem):
    D, M, _, y = problem
    variant = VariantSpec("omp", "sscosamp", "omp")
    report = run_variant(variant, y, M, D, 3, HaltingRule(max_iters=1, residual_tol=0.0))
    assert report.iterations == 1
    assert report.stop_reason == "max_iters"
