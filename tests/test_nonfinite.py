"""Non-finite inputs are refused instead of giving confident wrong answers."""

import json

import numpy as np
import pytest

from sigspace import (
    Dictionary,
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
)
from sigspace.cli import main
from sigspace.dictionaries import SALT_MEASUREMENT, SALT_SIGNAL


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
    assert code == 2
    assert captured.out == ""
    assert "finite" in captured.err
