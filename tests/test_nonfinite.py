"""Non-finite inputs are refused instead of giving confident wrong answers."""

import json

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    HaltingRule,
    SSCoSaMPConfig,
    SelectionScheme,
    eps_omp_recover,
    gaussian_measurements,
    gen_sparse_signal,
    overcomplete_dft,
    seed_sequence,
    drip_invariant_suite,
    exact_drip,
    exact_rip,
    identity_dictionary,
    oracle_stats,
    select,
    sscosamp,
    ck_bound_generic,
    condition_check,
    convergence_constants,
    error_budget,
    theory_bundle,
)
from sigspace.cli import main
from sigspace.dictionaries import SALT_MEASUREMENT, SALT_NOISE, SALT_SIGNAL
from sigspace.experiments import TrialConfig, add_noise, fig_variants


def dft_instance():
    """A 2x DFT problem (d=32, m=24, k=2) with one corruptible measurement."""
    D = overcomplete_dft(32, 2)
    x, _, _ = gen_sparse_signal(D, 2, "separated", seed_sequence(5, SALT_SIGNAL))
    M = gaussian_measurements(24, 32, seed_sequence(5, SALT_MEASUREMENT), "complex").matrix
    return D, M, M @ x


def threshold_config(k=2):
    return SSCoSaMPConfig(
        k=k,
        scheme_expand=SelectionScheme("threshold", 2 * k),
        scheme_shrink=SelectionScheme("threshold", k),
    )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sscosamp_rejects_non_finite_measurement(bad):
    D, M, y = dft_instance()
    y[3] = bad
    with pytest.raises(ValueError, match="finite"):
        sscosamp(y, M, D, threshold_config())


def test_sscosamp_rejects_non_finite_matrix():
    D, M, y = dft_instance()
    M[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        sscosamp(y, M, D, threshold_config())


@pytest.mark.parametrize(
    "x_true",
    [np.ones(1), np.ones(31), np.ones((32, 1)), np.full(32, np.nan), np.r_[np.inf, np.zeros(31)]],
    ids=("broadcast", "short", "column", "nan", "inf"),
)
def test_sscosamp_rejects_a_malformed_x_true(x_true):
    # x_true only feeds the trace's error norms; a malformed one used to
    # broadcast or give NaN norms instead of failing
    D, M, y = dft_instance()
    with pytest.raises(ValueError, match="x_true"):
        sscosamp(y, M, D, threshold_config(), x_true=x_true)


def test_eps_omp_recover_rejects_nan_measurement():
    D, M, y = dft_instance()
    y[0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        eps_omp_recover(y, M, D, 2, np.sqrt(0.1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dictionary_rejects_non_finite_matrix(bad):
    A = np.eye(4)
    A[2, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        Dictionary(A)


@pytest.mark.parametrize("kind", ["threshold", "omp", "eps-omp", "eps-threshold", "oracle"])
def test_select_rejects_non_finite_signal(kind):
    D = overcomplete_dft(8, 2)
    z = np.ones(8)
    z[5] = np.nan
    with pytest.raises(ValueError, match="finite"):
        select(SelectionScheme(kind, 2), D, z)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_isometry_certificates_reject_non_finite_matrix(bad):
    # an inf once certified a perfect isometry (delta 0.0): max(0.0, nan) is 0.0
    D = overcomplete_dft(4, 2)
    M = np.eye(4)
    M[1, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        exact_drip(M, D, 2)
    with pytest.raises(ValueError, match="finite"):
        exact_drip(M, identity_dictionary(4), 2)
    with pytest.raises(ValueError, match="finite"):
        exact_rip(M, 2)
    with pytest.raises(ValueError, match="finite"):
        drip_invariant_suite(M, D, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracle_stats_rejects_non_finite_signal(bad):
    # a NaN once gave the empty support with residual nan, an inf residual inf
    D = identity_dictionary(4)
    z = np.array([1.0, 1.0, 0.0, 0.0])
    z[0] = bad
    with pytest.raises(ValueError, match="signal must be finite"):
        oracle_stats(D, z, 2)


def test_cli_project_rejects_nan_signal(tmp_path, capsys):
    cfg = tmp_path / "project.json"
    cfg.write_text(json.dumps({
        "dictionary": {"kind": "identity", "d": 4},
        "scheme": {"kind": "threshold", "k": 2},
        "signal": {"kind": "inline", "values": [float("nan"), 1.0, 0.0, 0.0]},
    }), encoding="utf-8")
    code = main(["project", "--config", str(cfg), "--quiet"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "config error: project.signal.values: entries must be finite\n"


# ---------------------------------------------------------------------------
# scalar parameters: NaN fails every comparison, so a range check alone
# (x < bound: raise) lets it through, and an infinity passes a one-sided bound


THEORY_ARGS = dict(deltas=(0.01, 0.01, 0.01), c_k=1.0, ctilde_2k=1.0, gamma=0.01)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["c_k", "gamma"])
def test_theory_bundle_rejects_non_finite_constants(name, bad):
    # c_k = nan once gave feasible: True with rho = eta = nan
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        theory_bundle(**{**THEORY_ARGS, name: bad})
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        condition_check(**{k: v for k, v in {**THEORY_ARGS, name: bad}.items() if k != "deltas"})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convergence_constants_reject_non_finite_zeta(bad):
    # zeta = nan once returned finite constants with condition_ok: True
    with pytest.raises(ValueError, match="zeta must be finite"):
        convergence_constants(**THEORY_ARGS, zeta=bad)


def test_theory_range_messages_are_kept_for_finite_values():
    with pytest.raises(ValueError, match="c_k must be >= 1"):
        theory_bundle(**{**THEORY_ARGS, "c_k": 0.5})
    with pytest.raises(ValueError, match="gamma must be positive"):
        theory_bundle(**{**THEORY_ARGS, "gamma": 0.0})
    with pytest.raises(ValueError, match="zeta must be >= 1"):
        convergence_constants(**THEORY_ARGS, zeta=0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ck_bound_generic_rejects_non_finite_error_factor(bad):
    with pytest.raises(ValueError, match="c_e must be finite"):
        ck_bound_generic(bad, 0.1)
    with pytest.raises(ValueError, match="c_e must be nonnegative"):
        ck_bound_generic(-1.0, 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["eta", "x_norm", "e_norm"])
def test_error_budget_rejects_non_finite_norms(name, bad):
    # eta = nan once returned (4, nan); x_norm = inf raised OverflowError
    args = {"rho": 0.5, "eta": 1.0, "x_norm": 1.0, "e_norm": 0.1, name: bad}
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        error_budget(**args)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["noise_level", "success_tol"])
def test_trial_config_rejects_non_finite_levels(name, bad):
    # success_tol = nan once made every trial a failure
    base = dict(d=16, redundancy=2, k=2, m=8, variant=fig_variants()[0],
                mode="clustered", noise_level=0.0, base_seed=1, trial_index=0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        TrialConfig(**{**base, name: bad})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["residual_tol", "stagnation_tol"])
def test_halting_rule_rejects_non_finite_tolerances(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        HaltingRule(**{name: bad})
    with pytest.raises(ValueError, match="tolerances must be nonnegative"):
        HaltingRule(**{name: -1.0})


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_selection_scheme_rejects_non_finite_rel_tol(bad):
    with pytest.raises(ValueError, match="rel_tol must be finite"):
        SelectionScheme("cosamp-rep", 2, rel_tol=bad)
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        SelectionScheme("cosamp-rep", 2, rel_tol=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_add_noise_rejects_non_finite_level(bad):
    # level = nan once returned a NaN vector
    with pytest.raises(ValueError, match="level must be finite"):
        add_noise(np.ones(4), bad, seed_sequence(1, SALT_NOISE))


def test_add_noise_rejects_a_negative_level():
    # a negative level once returned the input unchanged
    with pytest.raises(ValueError, match="level must be nonnegative"):
        add_noise(np.ones(3), -0.5, seed_sequence(1, SALT_NOISE))
