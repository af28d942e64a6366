"""Golden table of single-fault configs for every ``sigspace`` subcommand.

Each row is one config with at most one fault, run in-process with --quiet
so that stderr carries only the error line. A row pins the exit code (0
success, 1 configuration problem, 2 runtime failure) and the exact stderr.
Paths inside configs and messages are written with the token @TMP@, which
stands for the test's temporary directory holding the container files built
by ``container_files``.
"""

import json

import numpy as np
import pytest

from sigspace import gaussian_measurements, overcomplete_dft, save_container, save_dictionary
from sigspace.cli import main

TMP = "@TMP@"
NAN = float("nan")


def case(case_id, cmd, cfg, code, err, argv=()):
    return pytest.param(cmd, cfg, list(argv), code, err, id=case_id)


def with_keys(base, **changes):
    """base with the given top-level keys replaced (a value of None removes)."""
    out = dict(base)
    for key, value in changes.items():
        if value is None:
            out.pop(key, None)
        else:
            out[key] = value
    return out


def with_block(base, block, **changes):
    """base with keys of one nested block replaced (a value of None removes)."""
    return with_keys(base, **{block: with_keys(base[block], **changes)})


RECOVER = {
    "seed": 3,
    "dictionary": {"kind": "dft", "d": 16, "redundancy": 2},
    "measurement": {"kind": "gaussian", "m": 12},
    "signal": {"kind": "synthetic", "k": 2},
    "recovery": {"k": 2},
}
RECOVER_FILES = {
    "dictionary": {"kind": "container", "path": f"{TMP}/dict.sgc"},
    "measurement": {"kind": "container", "path": f"{TMP}/M.sgc"},
    "signal": {"kind": "container", "y_path": f"{TMP}/y.sgc", "x_path": f"{TMP}/x.sgc"},
    "recovery": {"k": 2, "selector": "omp"},
}
SWEEP = {
    "d": 8, "redundancy": 1, "k": 1, "m_grid": [4, 8], "trials": 1,
    "mode": "separated", "seed": 1,
    "variants": [{"label": "t", "algorithm": "sscosamp"}],
}
CHAIN = {"mode": "chain", "delta": 0.027}
CONSTANTS = {"c_k": 1.0, "ctilde_2k": 1.0, "deltas": [0.0, 0.0, 0.0]}
GRAM = {"dictionary": {"kind": "identity", "d": 4}}
PROJECT = {
    "dictionary": {"kind": "identity", "d": 4},
    "scheme": {"kind": "threshold", "k": 2},
    "signal": {"kind": "inline", "values": [3.0, -5.0, 1.0, 0.0]},
}
VARIANT = {"label": "t", "algorithm": "sscosamp"}


def variant(**changes):
    return with_keys(SWEEP, variants=[with_keys(VARIANT, **changes)])


CASES = [
    # ---- recover: valid configs, including keys the chosen kind ignores
    case("recover-valid", "recover", RECOVER, 0, ''),
    case("recover-valid-containers", "recover", RECOVER_FILES, 0, ''),
    case("recover-valid-direct", "recover",
         with_block(RECOVER, "recovery", algorithm="eps-omp-direct", eps=0.3), 0, ''),
    case("recover-valid-eps-dropped", "recover",
         with_block(RECOVER, "recovery", eps=0.3), 0, ''),
    case("recover-valid-orthogonal", "recover",
         with_keys(RECOVER, dictionary={"kind": "orthogonal", "d": 16, "seed": 4}), 0, ''),
    case("recover-valid-include-estimate", "recover",
         with_keys(RECOVER, include_estimate=True), 0, ''),
    case("recover-valid-seed-override", "recover", with_keys(RECOVER, seed="x"), 0, '',
         argv=["--seed", "5"]),
    case("recover-valid-identity-ignores", "recover",
         with_keys(RECOVER, dictionary={"kind": "identity", "d": 16, "redundancy": "x",
                                        "seed": -1, "path": 3}), 0, ''),
    case("recover-valid-dft-ignores", "recover",
         with_block(RECOVER, "dictionary", seed="x", path=3), 0, ''),
    case("recover-valid-container-dict-ignores", "recover",
         with_block(RECOVER_FILES, "dictionary", d="x", redundancy=0, seed=-1), 0, ''),
    case("recover-valid-gaussian-ignores-path", "recover",
         with_block(RECOVER, "measurement", path=3), 0, ''),
    case("recover-valid-container-meas-ignores", "recover",
         with_block(RECOVER_FILES, "measurement", m="x", field="quaternion"), 0, ''),
    case("recover-valid-synthetic-ignores", "recover",
         with_block(RECOVER, "signal", y_path=3, x_path=4), 0, ''),
    case("recover-valid-container-signal-ignores", "recover",
         with_block(RECOVER_FILES, "signal", k="x", mode=3, noise_level=-1), 0, ''),
    case("recover-valid-complex-noisy", "recover",
         with_keys(with_block(RECOVER, "measurement", field="complex"),
                   signal={"kind": "synthetic", "k": 2, "mode": "separated",
                           "noise_level": 0.01}), 0, ''),
    # ---- recover: top level and flags
    case("recover-unknown-key", "recover", with_keys(RECOVER, typo_key=1),
         1, "config error: recover: unknown keys ['typo_key']\n"),
    case("recover-missing-keys", "recover", {"dictionary": RECOVER["dictionary"]},
         1, "config error: recover: missing keys ['measurement', 'recovery', 'signal']\n"),
    case("recover-seed-negative", "recover", with_keys(RECOVER, seed=-1),
         1, 'config error: recover.seed: must be >= 0\n'),
    case("recover-seed-float", "recover", with_keys(RECOVER, seed=1.5),
         1, 'config error: recover.seed: expected an integer\n'),
    case("recover-seed-bool", "recover", with_keys(RECOVER, seed=True),
         1, 'config error: recover.seed: expected an integer\n'),
    case("recover-flag-seed-negative", "recover", RECOVER,
         1, 'config error: --seed must be >= 0\n', argv=["--seed", "-1"]),
    case("recover-ignores-threads-flag", "recover", RECOVER, 0, '', argv=["--threads", "-1"]),
    case("recover-include-estimate-type", "recover",
         with_keys(RECOVER, include_estimate="yes"),
         1, 'config error: recover.include_estimate: expected a boolean\n'),
    # ---- recover: dictionary block
    case("recover-dict-not-object", "recover", with_keys(RECOVER, dictionary=[1]),
         1, 'config error: recover.dictionary: expected an object\n'),
    case("recover-dict-unknown", "recover", with_block(RECOVER, "dictionary", size=3),
         1, "config error: recover.dictionary: unknown keys ['size']\n"),
    case("recover-dict-missing-kind", "recover",
         with_block(RECOVER, "dictionary", kind=None),
         1, "config error: recover.dictionary: missing keys ['kind']\n"),
    case("recover-dict-kind-choice", "recover",
         with_block(RECOVER, "dictionary", kind="wavelet"),
         1, "config error: recover.dictionary.kind: must be one of ['container', 'dft', 'identity', 'orthogonal']\n"),
    case("recover-dict-kind-type", "recover", with_block(RECOVER, "dictionary", kind=3),
         1, 'config error: recover.dictionary.kind: expected a string\n'),
    case("recover-dict-container-no-path", "recover",
         with_block(RECOVER_FILES, "dictionary", path=None),
         1, "config error: recover.dictionary: missing keys ['path']\n"),
    case("recover-dict-container-path-type", "recover",
         with_block(RECOVER_FILES, "dictionary", path=3),
         1, 'config error: recover.dictionary.path: expected a string\n'),
    case("recover-dict-container-unreadable", "recover",
         with_block(RECOVER_FILES, "dictionary", path=f"{TMP}/missing.sgc"),
         1, "config error: recover.dictionary: cannot read @TMP@/missing.sgc: [Errno 2] No such file or directory: '@TMP@/missing.sgc'\n"),
    case("recover-dict-missing-d", "recover", with_block(RECOVER, "dictionary", d=None),
         1, "config error: recover.dictionary: missing keys ['d']\n"),
    case("recover-dict-d-zero", "recover", with_block(RECOVER, "dictionary", d=0),
         1, 'config error: recover.dictionary.d: must be >= 1\n'),
    case("recover-dict-d-string", "recover", with_block(RECOVER, "dictionary", d="x"),
         1, 'config error: recover.dictionary.d: expected an integer\n'),
    case("recover-dict-redundancy-zero", "recover",
         with_block(RECOVER, "dictionary", redundancy=0),
         1, 'config error: recover.dictionary.redundancy: must be >= 1\n'),
    case("recover-dict-orthogonal-seed", "recover",
         with_keys(RECOVER, dictionary={"kind": "orthogonal", "d": 16, "seed": -1}),
         1, 'config error: recover.dictionary.seed: must be >= 0\n'),
    # ---- recover: measurement block
    case("recover-meas-not-object", "recover", with_keys(RECOVER, measurement="x"),
         1, 'config error: recover.measurement: expected an object\n'),
    case("recover-meas-unknown", "recover", with_block(RECOVER, "measurement", n=3),
         1, "config error: recover.measurement: unknown keys ['n']\n"),
    case("recover-meas-kind-choice", "recover",
         with_block(RECOVER, "measurement", kind="bernoulli"),
         1, "config error: recover.measurement.kind: must be one of ['container', 'gaussian']\n"),
    case("recover-meas-container-no-path", "recover",
         with_block(RECOVER_FILES, "measurement", path=None),
         1, "config error: recover.measurement: missing keys ['path']\n"),
    case("recover-meas-container-shape", "recover",
         with_block(RECOVER_FILES, "measurement", path=f"{TMP}/M_bad.sgc"),
         2, 'error: recover.measurement: measurement matrix does not match signal dimension 16\n'),
    case("recover-meas-missing-m", "recover", with_block(RECOVER, "measurement", m=None),
         1, "config error: recover.measurement: missing keys ['m']\n"),
    case("recover-meas-m-zero", "recover", with_block(RECOVER, "measurement", m=0),
         1, 'config error: recover.measurement.m: must be >= 1\n'),
    case("recover-meas-field-choice", "recover",
         with_block(RECOVER, "measurement", field="quaternion"),
         1, "config error: recover.measurement.field: must be one of ['complex', 'real']\n"),
    # ---- recover: signal block
    case("recover-signal-not-object", "recover", with_keys(RECOVER, signal=3),
         1, 'config error: recover.signal: expected an object\n'),
    case("recover-signal-unknown", "recover", with_block(RECOVER, "signal", values=[1]),
         1, "config error: recover.signal: unknown keys ['values']\n"),
    case("recover-signal-kind-choice", "recover",
         with_block(RECOVER, "signal", kind="inline"),
         1, "config error: recover.signal.kind: must be one of ['container', 'synthetic']\n"),
    case("recover-signal-missing-k", "recover", with_block(RECOVER, "signal", k=None),
         1, "config error: recover.signal: missing keys ['k']\n"),
    case("recover-signal-k-zero", "recover", with_block(RECOVER, "signal", k=0),
         1, 'config error: recover.signal.k: must be >= 1\n'),
    case("recover-signal-mode-choice", "recover",
         with_block(RECOVER, "signal", mode="random"),
         1, "config error: recover.signal.mode: must be one of ['clustered', 'separated']\n"),
    case("recover-signal-noise-negative", "recover",
         with_block(RECOVER, "signal", noise_level=-0.1),
         1, 'config error: recover.signal.noise_level: must be >= 0.0\n'),
    case("recover-signal-noise-type", "recover",
         with_block(RECOVER, "signal", noise_level="x"),
         1, 'config error: recover.signal.noise_level: expected a number\n'),
    case("recover-signal-noise-nan", "recover",
         with_block(RECOVER, "signal", noise_level=NAN),
         1, 'config error: recover.signal.noise_level: must be finite\n'),
    case("recover-signal-container-no-y", "recover",
         with_block(RECOVER_FILES, "signal", y_path=None),
         1, "config error: recover.signal: missing keys ['y_path']\n"),
    case("recover-signal-y-not-vector", "recover",
         with_block(RECOVER_FILES, "signal", y_path=f"{TMP}/mat.sgc"),
         2, 'error: recover.signal: @TMP@/mat.sgc does not hold a vector\n'),
    case("recover-signal-x-path-type", "recover",
         with_block(RECOVER_FILES, "signal", x_path=3),
         1, 'config error: recover.signal.x_path: expected a string\n'),
    case("recover-signal-x-wrong-length", "recover",
         with_block(RECOVER_FILES, "signal", x_path=f"{TMP}/z4.sgc"),
         2, 'error: recover.signal: @TMP@/z4.sgc must hold d = 16 finite entries\n'),
    case("recover-signal-x-not-finite", "recover",
         with_block(RECOVER_FILES, "signal", x_path=f"{TMP}/x_nan.sgc"),
         2, 'error: recover.signal: @TMP@/x_nan.sgc must hold d = 16 finite entries\n'),
    # ---- recover: recovery block
    case("recover-rec-not-object", "recover", with_keys(RECOVER, recovery=[]),
         1, 'config error: recover.recovery: expected an object\n'),
    case("recover-rec-unknown", "recover", with_block(RECOVER, "recovery", label="x"),
         1, "config error: recover.recovery: unknown keys ['label']\n"),
    case("recover-rec-missing-k", "recover", with_block(RECOVER, "recovery", k=None),
         1, "config error: recover.recovery: missing keys ['k']\n"),
    case("recover-rec-k-zero", "recover", with_block(RECOVER, "recovery", k=0),
         1, 'config error: recover.recovery.k: must be >= 1\n'),
    case("recover-rec-algorithm-choice", "recover",
         with_block(RECOVER, "recovery", algorithm="iht"),
         1, "config error: recover.recovery.algorithm: must be one of ['eps-omp-direct', 'sscosamp']\n"),
    case("recover-rec-selector-choice", "recover",
         with_block(RECOVER, "recovery", selector="lasso"),
         1, "config error: recover.recovery.selector: must be one of ['cosamp-rep', 'eps-omp', 'eps-threshold', 'iht-rep', 'omp', 'oracle', 'threshold']\n"),
    case("recover-rec-eps-one", "recover", with_block(RECOVER, "recovery", eps=1.0),
         1, 'config error: recover.recovery.eps: must be < 1.0\n'),
    case("recover-rec-eps-negative", "recover",
         with_block(RECOVER, "recovery", eps=-0.1),
         1, 'config error: recover.recovery.eps: must be >= 0.0\n'),
    case("recover-rec-a-zero", "recover", with_block(RECOVER, "recovery", a=0),
         1, 'config error: recover.recovery.a: must be >= 1\n'),
    case("recover-rec-max-iters-zero", "recover",
         with_block(RECOVER, "recovery", max_iters=0),
         1, 'config error: recover.recovery.max_iters: must be >= 1\n'),
    case("recover-rec-residual-tol-negative", "recover",
         with_block(RECOVER, "recovery", residual_tol=-1),
         1, 'config error: recover.recovery.residual_tol: must be >= 0.0\n'),
    case("recover-rec-stagnation-tol-type", "recover",
         with_block(RECOVER, "recovery", stagnation_tol="x"),
         1, 'config error: recover.recovery.stagnation_tol: expected a number\n'),
    # ---- sweep
    case("sweep-valid-default-variants", "sweep", with_keys(SWEEP, variants="default"), 0, '',
         argv=["--threads", "1"]),
    case("sweep-unknown-key", "sweep", with_keys(SWEEP, grid=[4]),
         1, "config error: sweep: unknown keys ['grid']\n"),
    case("sweep-missing-trials", "sweep", with_keys(SWEEP, trials=None),
         1, "config error: sweep: missing keys ['trials']\n"),
    case("sweep-missing-m-grid", "sweep", with_keys(SWEEP, m_grid=None),
         1, "config error: sweep: missing keys ['m_grid']\n"),
    case("sweep-d-zero", "sweep", with_keys(SWEEP, d=0),
         1, 'config error: sweep.d: must be >= 1\n'),
    case("sweep-redundancy-type", "sweep", with_keys(SWEEP, redundancy="x"),
         1, 'config error: sweep.redundancy: expected an integer\n'),
    case("sweep-k-zero", "sweep", with_keys(SWEEP, k=0),
         1, 'config error: sweep.k: must be >= 1\n'),
    case("sweep-trials-zero", "sweep", with_keys(SWEEP, trials=0),
         1, 'config error: sweep.trials: must be >= 1\n'),
    case("sweep-m-grid-empty", "sweep", with_keys(SWEEP, m_grid=[]),
         1, 'config error: sweep.m_grid: expected a nonempty array of integers\n'),
    case("sweep-m-grid-float", "sweep", with_keys(SWEEP, m_grid=[4, 8.0]),
         1, 'config error: sweep.m_grid: expected a nonempty array of integers\n'),
    case("sweep-m-grid-string", "sweep", with_keys(SWEEP, m_grid="4"),
         1, 'config error: sweep.m_grid: expected a nonempty array of integers\n'),
    case("sweep-m-grid-decreasing", "sweep", with_keys(SWEEP, m_grid=[8, 4]),
         1, 'config error: sweep.m_grid: must be strictly increasing\n'),
    case("sweep-m-grid-repeated", "sweep", with_keys(SWEEP, m_grid=[4, 4]),
         1, 'config error: sweep.m_grid: must be strictly increasing\n'),
    case("sweep-m-grid-below-k", "sweep", with_keys(SWEEP, m_grid=[0, 8]),
         1, 'config error: sweep.m_grid: m=0 violates k <= m <= d\n'),
    case("sweep-m-grid-above-d", "sweep", with_keys(SWEEP, m_grid=[4, 16]),
         1, 'config error: sweep.m_grid: m=16 violates k <= m <= d\n'),
    case("sweep-mode-and-modes", "sweep", with_keys(SWEEP, modes=["clustered"]),
         1, "config error: sweep: give either 'mode' or 'modes', not both\n"),
    case("sweep-modes-empty", "sweep", with_keys(SWEEP, mode=None, modes=[]),
         1, 'config error: sweep.modes: expected a nonempty array of signal modes\n'),
    case("sweep-modes-unknown", "sweep", with_keys(SWEEP, mode=None, modes=["random"]),
         1, 'config error: sweep.modes: expected a nonempty array of signal modes\n'),
    case("sweep-modes-string", "sweep",
         with_keys(SWEEP, mode=None, modes="clustered"),
         1, 'config error: sweep.modes: expected a nonempty array of signal modes\n'),
    case("sweep-modes-repeated", "sweep",
         with_keys(SWEEP, mode=None, modes=["separated", "separated"]),
         1, 'config error: sweep.modes: lists a signal mode twice\n'),
    case("sweep-mode-choice", "sweep", with_keys(SWEEP, mode="random"),
         1, "config error: sweep.mode: must be one of ['clustered', 'separated']\n"),
    case("sweep-noise-negative", "sweep", with_keys(SWEEP, noise_level=-1),
         1, 'config error: sweep.noise_level: must be >= 0.0\n'),
    case("sweep-success-tol-zero", "sweep", with_keys(SWEEP, success_tol=0),
         1, 'config error: sweep.success_tol: must be > 0.0\n'),
    case("sweep-max-iters-zero", "sweep", with_keys(SWEEP, max_iters=0),
         1, 'config error: sweep.max_iters: must be >= 1\n'),
    case("sweep-seed-negative", "sweep", with_keys(SWEEP, seed=-1),
         1, 'config error: sweep.seed: must be >= 0\n'),
    case("sweep-flag-threads-negative", "sweep", SWEEP,
         1, 'config error: --threads must be >= 0\n', argv=["--threads", "-1"]),
    case("sweep-variants-string", "sweep", with_keys(SWEEP, variants="all"),
         1, "config error: sweep.variants: expected 'default' or a nonempty array\n"),
    case("sweep-variants-empty", "sweep", with_keys(SWEEP, variants=[]),
         1, "config error: sweep.variants: expected 'default' or a nonempty array\n"),
    case("sweep-variant-not-object", "sweep", with_keys(SWEEP, variants=[3]),
         1, 'config error: sweep.variants[0]: expected an object\n'),
    case("sweep-variant-missing-algorithm", "sweep", variant(algorithm=None),
         1, "config error: sweep.variants[0]: missing keys ['algorithm']\n"),
    case("sweep-variant-unknown", "sweep", variant(k=2),
         1, "config error: sweep.variants[0]: unknown keys ['k']\n"),
    case("sweep-variant-algorithm-choice", "sweep", variant(algorithm="iht"),
         1, "config error: sweep.variants[0].algorithm: must be one of ['eps-omp-direct', 'sscosamp']\n"),
    case("sweep-variant-label-comma", "sweep", variant(label="a,b"),
         1, 'config error: sweep.variants[0]: label must be nonempty and free of commas/newlines\n'),
    case("sweep-variant-label-empty", "sweep", variant(label=""),
         1, 'config error: sweep.variants[0]: label must be nonempty and free of commas/newlines\n'),
    case("sweep-variant-label-type", "sweep", variant(label=3),
         1, 'config error: sweep.variants[0].label: expected a string\n'),
    case("sweep-variant-selector-choice", "sweep", variant(selector="lasso"),
         1, "config error: sweep.variants[0].selector: must be one of ['cosamp-rep', 'eps-omp', 'eps-threshold', 'iht-rep', 'omp', 'oracle', 'threshold']\n"),
    case("sweep-variant-eps-one", "sweep", variant(eps=1.0),
         1, 'config error: sweep.variants[0].eps: must be < 1.0\n'),
    case("sweep-variant-a-zero", "sweep", variant(a=0),
         1, 'config error: sweep.variants[0].a: must be >= 1\n'),
    case("sweep-variant-duplicate-label", "sweep",
         with_keys(SWEEP, variants=[VARIANT, with_keys(VARIANT, selector="omp")]),
         1, "config error: sweep.variants[1]: duplicate variant label 't'\n"),
    # ---- theory
    case("theory-valid-chain", "theory", CHAIN, 0, ''),
    case("theory-valid-chain-any-seed", "theory", with_keys(CHAIN, seed="x"), 0, ''),
    case("theory-valid-constants", "theory", CONSTANTS, 0, ''),
    case("theory-valid-constants-any-seed", "theory", with_keys(CONSTANTS, seed=[1]), 0, ''),
    case("theory-ignores-seed-flag", "theory", CHAIN, 0, '', argv=["--seed", "-1"]),
    case("theory-ignores-threads-flag", "theory", CHAIN, 0, '', argv=["--threads", "-1"]),
    case("theory-valid-constants-delta", "theory",
         with_keys(CONSTANTS, deltas=None, delta=0.01, x_norm=10.0, e_norm=0.1,
                   max_iters=20, gamma=0.05, zeta=2.0, mode="constants"), 0, ''),
    case("theory-mode-type", "theory", with_keys(CHAIN, mode=3),
         1, 'config error: theory.mode: expected a string\n'),
    case("theory-mode-choice", "theory", with_keys(CHAIN, mode="bounds"),
         1, "config error: theory.mode: must be one of ['chain', 'constants']\n"),
    case("theory-chain-missing-delta", "theory", {"mode": "chain"},
         1, "config error: theory: missing keys ['delta']\n"),
    case("theory-chain-unknown", "theory", with_keys(CHAIN, c_k=1.0),
         1, "config error: theory: unknown keys ['c_k']\n"),
    case("theory-chain-delta-one", "theory", with_keys(CHAIN, delta=1.0),
         1, 'config error: theory.delta: must be < 1.0\n'),
    case("theory-chain-delta-negative", "theory", with_keys(CHAIN, delta=-0.1),
         1, 'config error: theory.delta: must be >= 0.0\n'),
    case("theory-chain-gamma-zero", "theory", with_keys(CHAIN, gamma=0),
         1, 'config error: theory.gamma: must be > 0.0\n'),
    case("theory-chain-zeta-small", "theory", with_keys(CHAIN, zeta=0.5),
         1, 'config error: theory.zeta: must be >= 1.0\n'),
    case("theory-constants-missing", "theory", {"gamma": 0.01},
         1, "config error: theory: missing keys ['c_k', 'ctilde_2k']\n"),
    case("theory-constants-unknown", "theory", with_keys(CONSTANTS, bogus=1),
         1, "config error: theory: unknown keys ['bogus']\n"),
    case("theory-constants-c-k-small", "theory", with_keys(CONSTANTS, c_k=0.5),
         1, 'config error: theory.c_k: must be >= 1.0\n'),
    case("theory-constants-ctilde-zero", "theory", with_keys(CONSTANTS, ctilde_2k=0),
         1, 'config error: theory.ctilde_2k: must be > 0.0\n'),
    case("theory-constants-ctilde-large", "theory", with_keys(CONSTANTS, ctilde_2k=1.5),
         1, 'config error: theory.ctilde_2k: must be <= 1\n'),
    case("theory-constants-delta-and-deltas", "theory", with_keys(CONSTANTS, delta=0.1),
         1, "config error: theory: give either 'delta' or 'deltas', not both\n"),
    case("theory-constants-deltas-short", "theory", with_keys(CONSTANTS, deltas=[0, 0]),
         1, 'config error: theory.deltas: expected an array of three numbers\n'),
    case("theory-constants-deltas-bool", "theory",
         with_keys(CONSTANTS, deltas=[0, 0, True]),
         1, 'config error: theory.deltas: expected an array of three numbers\n'),
    case("theory-constants-deltas-range", "theory",
         with_keys(CONSTANTS, deltas=[0.5, 0.5, 2.0]),
         1, 'config error: theory: deltas must be nondecreasing within [0, 1)\n'),
    case("theory-constants-delta-one", "theory",
         with_keys(CONSTANTS, deltas=None, delta=1.0),
         1, 'config error: theory.delta: must be < 1.0\n'),
    case("theory-constants-x-norm-negative", "theory", with_keys(CONSTANTS, x_norm=-1),
         1, 'config error: theory.x_norm: must be >= 0.0\n'),
    case("theory-constants-e-norm-type", "theory", with_keys(CONSTANTS, e_norm="x"),
         1, 'config error: theory.e_norm: expected a number\n'),
    case("theory-constants-max-iters-zero", "theory", with_keys(CONSTANTS, max_iters=0),
         1, 'config error: theory.max_iters: must be >= 1\n'),
    case("theory-constants-gamma-large", "theory", with_keys(CONSTANTS, gamma=10.0), 0, ''),
    # ---- gram
    case("gram-valid", "gram", GRAM, 0, ''),
    case("gram-valid-atom", "gram",
         with_keys(GRAM, atom=3, dictionary={"kind": "dft", "d": 8}), 0, ''),
    case("gram-unknown-key", "gram", with_keys(GRAM, top=2),
         1, "config error: gram: unknown keys ['top']\n"),
    case("gram-missing-dictionary", "gram", {"atom": 0},
         1, "config error: gram: missing keys ['dictionary']\n"),
    case("gram-atom-too-large", "gram", with_keys(GRAM, atom=4),
         1, 'config error: gram.atom: must be < n = 4\n'),
    case("gram-atom-negative", "gram", with_keys(GRAM, atom=-1),
         1, 'config error: gram.atom: must be >= 0\n'),
    case("gram-atom-type", "gram", with_keys(GRAM, atom="x"),
         1, 'config error: gram.atom: expected an integer\n'),
    case("gram-seed-negative", "gram", with_keys(GRAM, seed=-1),
         1, 'config error: gram.seed: must be >= 0\n'),
    case("gram-dict-kind-choice", "gram", with_block(GRAM, "dictionary", kind="haar"),
         1, "config error: gram.dictionary.kind: must be one of ['container', 'dft', 'identity', 'orthogonal']\n"),
    # ---- project
    case("project-valid-real", "project", PROJECT, 0, ''),
    case("project-valid-pairs", "project",
         with_block(PROJECT, "signal", values=[[1, 0], [0.5, 0.2], [-0.3, 0.1], [0.9, -0.4]]),
         0, ''),
    case("project-valid-container", "project",
         with_keys(PROJECT, signal={"kind": "container", "path": f"{TMP}/z4.sgc"}), 0, ''),
    case("project-valid-synthetic", "project",
         with_keys(PROJECT, seed=2, dictionary={"kind": "dft", "d": 8, "redundancy": 2},
                   scheme={"kind": "oracle", "k": 2},
                   signal={"kind": "synthetic", "k": 2, "mode": "separated",
                           "noise_level": 0.01}), 0, ''),
    case("project-valid-inline-ignores", "project",
         with_block(PROJECT, "signal", path=3, k="x", mode=3, noise_level=-1), 0, ''),
    case("project-valid-container-ignores", "project",
         with_keys(PROJECT, signal={"kind": "container", "path": f"{TMP}/z4.sgc",
                                    "values": 3, "k": 0}), 0, ''),
    case("project-valid-synthetic-ignores", "project",
         with_keys(PROJECT, signal={"kind": "synthetic", "k": 1, "values": "x", "path": 3}),
         0, ''),
    case("project-valid-scheme-knobs", "project",
         with_keys(PROJECT, scheme={"kind": "eps-omp", "k": 2, "eps": 0.3, "max_iters": 5,
                                    "rel_tol": 1e-3}), 0, ''),
    case("project-unknown-key", "project", with_keys(PROJECT, extra=1),
         1, "config error: project: unknown keys ['extra']\n"),
    case("project-missing-signal", "project", with_keys(PROJECT, signal=None),
         1, "config error: project: missing keys ['signal']\n"),
    case("project-seed-negative", "project", with_keys(PROJECT, seed=-1),
         1, 'config error: project.seed: must be >= 0\n'),
    case("project-scheme-not-object", "project", with_keys(PROJECT, scheme="omp"),
         1, 'config error: project.scheme: expected an object\n'),
    case("project-scheme-unknown", "project", with_block(PROJECT, "scheme", a=2),
         1, "config error: project.scheme: unknown keys ['a']\n"),
    case("project-scheme-missing-k", "project", with_block(PROJECT, "scheme", k=None),
         1, "config error: project.scheme: missing keys ['k']\n"),
    case("project-scheme-kind-choice", "project",
         with_block(PROJECT, "scheme", kind="lasso"),
         1, "config error: project.scheme.kind: must be one of ['cosamp-rep', 'eps-omp', 'eps-threshold', 'iht-rep', 'omp', 'oracle', 'threshold']\n"),
    case("project-scheme-k-zero", "project", with_block(PROJECT, "scheme", k=0),
         1, 'config error: project.scheme.k: must be >= 1\n'),
    case("project-scheme-eps-one", "project", with_block(PROJECT, "scheme", eps=1.0),
         1, 'config error: project.scheme.eps: must be < 1.0\n'),
    case("project-scheme-eps-plain-kind", "project",
         with_block(PROJECT, "scheme", eps=0.3),
         1, "config error: project.scheme: eps is only meaningful for ('eps-omp', 'eps-threshold'), not 'threshold'\n"),
    case("project-scheme-max-iters-zero", "project",
         with_block(PROJECT, "scheme", max_iters=0),
         1, 'config error: project.scheme.max_iters: must be >= 1\n'),
    case("project-scheme-rel-tol-zero", "project",
         with_block(PROJECT, "scheme", rel_tol=0),
         1, 'config error: project.scheme.rel_tol: must be > 0.0\n'),
    case("project-signal-unknown", "project", with_block(PROJECT, "signal", y_path=3),
         1, "config error: project.signal: unknown keys ['y_path']\n"),
    case("project-signal-kind-choice", "project",
         with_block(PROJECT, "signal", kind="file"),
         1, "config error: project.signal.kind: must be one of ['container', 'inline', 'synthetic']\n"),
    case("project-inline-no-values", "project",
         with_block(PROJECT, "signal", values=None),
         1, "config error: project.signal: missing keys ['values']\n"),
    case("project-inline-values-empty", "project",
         with_block(PROJECT, "signal", values=[]),
         1, 'config error: project.signal.values: expected a nonempty array\n'),
    case("project-inline-values-string", "project",
         with_block(PROJECT, "signal", values="1,2"),
         1, 'config error: project.signal.values: expected a nonempty array\n'),
    case("project-inline-values-bad-pair", "project",
         with_block(PROJECT, "signal", values=[[1, 2, 3], 0, 0, 0]),
         1, 'config error: project.signal.values: entries must be numbers or [re, im] pairs\n'),
    case("project-inline-values-bool", "project",
         with_block(PROJECT, "signal", values=[True, 0, 0, 0]),
         1, 'config error: project.signal.values: entries must be numbers or [re, im] pairs\n'),
    case("project-inline-values-mixed", "project",
         with_block(PROJECT, "signal", values=[[1, 0], [0, 1], 0, 0]), 0, ''),
    case("project-inline-values-length", "project",
         with_block(PROJECT, "signal", values=[1.0, 2.0, 3.0]),
         2, 'error: project.signal: signal length 3 does not match d = 4\n'),
    case("project-container-no-path", "project",
         with_keys(PROJECT, signal={"kind": "container"}),
         1, "config error: project.signal: missing keys ['path']\n"),
    case("project-container-not-vector", "project",
         with_keys(PROJECT, signal={"kind": "container", "path": f"{TMP}/mat.sgc"}),
         2, 'error: project.signal: @TMP@/mat.sgc does not hold a vector\n'),
    case("project-synthetic-missing-k", "project",
         with_keys(PROJECT, signal={"kind": "synthetic"}),
         1, "config error: project.signal: missing keys ['k']\n"),
    case("project-synthetic-noise-negative", "project",
         with_keys(PROJECT, signal={"kind": "synthetic", "k": 1, "noise_level": -1}),
         1, 'config error: project.signal.noise_level: must be >= 0.0\n'),
    case("project-synthetic-mode-choice", "project",
         with_keys(PROJECT, signal={"kind": "synthetic", "k": 1, "mode": "random"}),
         1, "config error: project.signal.mode: must be one of ['clustered', 'separated']\n"),
]


def make_container_files(tmp_path):
    """Write the container files the configs refer to under tmp_path."""
    D = overcomplete_dft(16, 2)
    M = gaussian_measurements(12, 16, seed=5).matrix
    coeffs = np.array([1.0 + 0.5j, -0.7 + 0.2j])
    x = D.matrix[:, [3, 20]] @ coeffs
    save_dictionary(tmp_path / "dict.sgc", D)
    save_container(tmp_path / "M.sgc", M)
    save_container(tmp_path / "M_bad.sgc", gaussian_measurements(12, 10, seed=5).matrix)
    save_container(tmp_path / "y.sgc", M @ x)
    save_container(tmp_path / "x.sgc", x)
    save_container(tmp_path / "x_nan.sgc", np.where(np.arange(16) == 3, np.nan, x))
    save_container(tmp_path / "z4.sgc", np.array([0.5, -2.0, 1.0, 0.25]))
    save_container(tmp_path / "mat.sgc", np.ones((4, 3)))
    return tmp_path


@pytest.fixture
def container_files(tmp_path):
    return make_container_files(tmp_path)


def _fill(value, tmp: str):
    if isinstance(value, str):
        return value.replace(TMP, tmp)
    if isinstance(value, list):
        return [_fill(v, tmp) for v in value]
    if isinstance(value, dict):
        return {k: _fill(v, tmp) for k, v in value.items()}
    return value


def run_case(cmd, cfg, argv, tmp_path, capsys):
    tmp = str(tmp_path)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_fill(cfg, tmp)), encoding="utf-8")
    code = main([cmd, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet", *argv])
    return code, capsys.readouterr().err.replace(tmp, TMP)


@pytest.mark.parametrize("cmd, cfg, argv, code, err", CASES)
def test_golden(cmd, cfg, argv, code, err, container_files, capsys):
    assert run_case(cmd, cfg, argv, container_files, capsys) == (code, err)


def test_mixed_inline_values_make_a_complex_signal(container_files, capsys):
    cfg = with_block(PROJECT, "signal", values=[[1, 2], 3, 0, [0, -1]])
    assert run_case("project", cfg, [], container_files, capsys) == (0, "")
    payload = json.loads((container_files / "out" / "projection.json").read_text())
    assert payload["support"] == [0, 1]
    assert payload["captured_energy"] == pytest.approx(14.0, abs=1e-12)
    assert payload["residual_energy"] == pytest.approx(1.0, abs=1e-12)


def test_direct_pursuit_report_has_the_sscosamp_fields(container_files, capsys):
    reports = {}
    for algorithm in ("sscosamp", "eps-omp-direct"):
        cfg = with_block(RECOVER, "recovery", algorithm=algorithm, eps=0.3)
        assert run_case("recover", cfg, [], container_files, capsys) == (0, "")
        path = container_files / "out" / "recovery_report.json"
        reports[algorithm] = json.loads(path.read_text())
    direct = reports["eps-omp-direct"]
    assert list(direct) == list(reports["sscosamp"])
    assert direct["iterations"] == 1
    assert direct["stop_reason"] == "single_pass"
    assert direct["trace"] == []
    assert direct["wall_time"] >= 0.0
