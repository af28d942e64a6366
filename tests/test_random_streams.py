"""Seeded random draws and JSON records against reference copies.

The functions below are reference copies of the code that draws every
random array of the package (measurement matrices, sparse signals and their
separated supports, noise, the near-optimality estimator's test signals)
and of the two ``to_dict`` bodies that list their records' fields by hand.
The library must reproduce them bit for bit: the same bytes from the same
seeds, and the same JSON text, key order included.

Each comparison runs the reference and the library on the same machine, so
a BLAS product that rounds differently elsewhere changes both sides alike.
"""

import json
import math

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    HaltingRule,
    SSCoSaMPConfig,
    SupportSet,
    gaussian_measurements,
    gen_sparse_signal,
    overcomplete_dft,
    random_orthogonal_dictionary,
    rng_from,
    seed_sequence,
    sscosamp,
    theory_bundle,
)
from sigspace.dictionaries import SALT_ESTIMATOR, SALT_MEASUREMENT, SALT_NOISE, SALT_SIGNAL
from sigspace.experiments import add_noise
from sigspace.projections import _estimator_draw

SEEDS = (0, 1, 7, 2024)


# ---------------------------------------------------------------------------
# reference copies


def ref_gaussian_measurements(m, d, seed, field_tag="real"):
    root = seed if isinstance(seed, np.random.SeedSequence) else seed_sequence(seed, SALT_MEASUREMENT)
    rng = np.random.Generator(np.random.PCG64(root))
    if field_tag == "real":
        return rng.standard_normal((m, d)) / np.sqrt(m)
    return (rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))) / np.sqrt(2 * m)


def ref_separated_support(rng, n, k):
    spacing = n // (2 * k)
    if spacing < 1:
        raise ValueError(f"separation infeasible: n={n} too small for k={k}")
    slack = n - k * spacing
    start = int(rng.integers(n))
    bars = np.sort(rng.choice(slack + k - 1, size=k - 1, replace=False))
    gaps = spacing + np.diff(bars, prepend=-1, append=slack + k - 1) - 1
    return np.sort((start + np.cumsum(gaps) - gaps) % n)


def ref_gen_sparse_signal(D, k, mode, seed):
    if isinstance(seed, np.random.SeedSequence):
        rng = np.random.Generator(np.random.PCG64(seed))
    else:
        rng = np.random.Generator(np.random.PCG64(seed_sequence(seed, SALT_SIGNAL)))
    n = D.n
    if k == 1:
        support = np.array([rng.integers(n)], dtype=np.intp)
    elif mode == "clustered":
        start = int(rng.integers(n))
        support = np.sort((start + np.arange(k)) % n)
    else:
        support = ref_separated_support(rng, n, k)
    T = SupportSet.from_iterable(support, n)
    cols = D.matrix[:, T.as_array()]
    for _ in range(100):
        if D.field_tag == "complex":
            coeffs = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / math.sqrt(2.0)
        else:
            coeffs = rng.standard_normal(k)
        x = cols @ coeffs
        nrm = float(np.linalg.norm(x))
        if nrm > 1e-12:
            break
    else:  # pragma: no cover - probability zero
        raise RuntimeError("signal generator kept drawing degenerate coefficients")
    coeffs = coeffs / nrm
    x = cols @ coeffs
    alpha = np.zeros(n, dtype=coeffs.dtype)
    alpha[T.as_array()] = coeffs
    return x, alpha, T


def ref_add_noise(v, level, seed):
    if level <= 0.0:
        return v
    rng = np.random.Generator(np.random.PCG64(seed))
    size = v.shape[0]
    if np.iscomplexobj(v):
        g = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    else:
        g = rng.standard_normal(size)
    return v + level * g / np.linalg.norm(g)


def ref_estimator_draw(D, k, trial, rng):
    complex_field = D.field_tag == "complex"

    def noise(size):
        if complex_field:
            return rng.standard_normal(size) + 1j * rng.standard_normal(size)
        return rng.standard_normal(size)

    if trial % 2 == 0:
        return noise(D.d)
    support = np.sort(rng.choice(D.n, size=k, replace=False))
    coeffs = noise(k)
    sigma = (0.0, 0.1, 1.0)[(trial // 2) % 3]
    return D.matrix[:, support] @ coeffs + sigma * noise(D.d)


def ref_theory_to_dict(self):
    out = {
        "zeta": self.zeta,
        "gamma": self.gamma,
        "c_k": self.c_k,
        "ctilde_2k": self.ctilde_2k,
        "delta_zp1": self.delta_zp1,
        "delta_3z": self.delta_3z,
        "delta_3zp1": self.delta_3zp1,
        "alpha": self.alpha,
        "rho1": self.rho1,
        "rho2": self.rho2,
        "eta1": self.eta1,
        "eta2": self.eta2,
        "rho": self.rho,
        "eta": self.eta,
        "feasible": self.feasible,
        "condition_ok": self.condition_ok,
        "epsilon_sq": self.epsilon_sq,
    }
    if self.t_star is not None:
        out["t_star"] = self.t_star
    if self.eta0 is not None:
        out["eta0"] = self.eta0
    return out


def ref_report_to_dict(self, include_estimate=True):
    out = {
        "support": list(self.support.indices),
        "iterations": self.iterations,
        "stop_reason": self.stop_reason,
        "residual_norm": self.residual_norm,
        "wall_time": self.wall_time,
        "trace": [
            {
                "iteration": t.iteration,
                "support_size": t.support_size,
                "merged_size": t.merged_size,
                "residual_norm": t.residual_norm,
                **({"error_norm": t.error_norm} if t.error_norm is not None else {}),
            }
            for t in self.trace
        ],
    }
    if include_estimate:
        x = self.estimate
        if np.iscomplexobj(x):
            out["estimate"] = [[float(v.real), float(v.imag)] for v in x]
        else:
            out["estimate"] = [float(v) for v in x]
    return out


# ---------------------------------------------------------------------------
# helpers


def assert_same_array(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def real_dictionary(d=16, n=40, seed=3):
    return Dictionary(rng_from(seed, 99).standard_normal((d, n)))


DICTIONARIES = {
    "dft-complex": lambda: overcomplete_dft(16, 4),
    "gaussian-real": real_dictionary,
    "orthogonal-real": lambda: random_orthogonal_dictionary(12, 5),
}


# ---------------------------------------------------------------------------
# measurement matrices


@pytest.mark.parametrize("field_tag", ["real", "complex"])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("m", [1, 5, 12])
def test_gaussian_measurements_match_reference_from_int_seed(field_tag, seed, m):
    got = gaussian_measurements(m, 9, seed, field_tag=field_tag).matrix
    assert_same_array(got, ref_gaussian_measurements(m, 9, seed, field_tag))


@pytest.mark.parametrize("field_tag", ["real", "complex"])
@pytest.mark.parametrize("seed", SEEDS)
def test_gaussian_measurements_match_reference_from_seed_sequence(field_tag, seed):
    ss = seed_sequence(seed, SALT_MEASUREMENT, 96, 3)
    got = gaussian_measurements(7, 11, ss, field_tag=field_tag).matrix
    assert_same_array(got, ref_gaussian_measurements(7, 11, seed_sequence(seed, SALT_MEASUREMENT, 96, 3), field_tag))


def test_int_seed_is_the_measurement_salted_sequence():
    # an int seed means SeedSequence([seed, SALT_MEASUREMENT])
    a = gaussian_measurements(6, 5, 4, field_tag="complex").matrix
    b = gaussian_measurements(6, 5, seed_sequence(4, SALT_MEASUREMENT), field_tag="complex").matrix
    assert_same_array(a, b)


# M is one (m, d) block of one generator: at the fig2 sizes and from seeds of
# several uint32 words, as ints and inside a sequence, it is still that block.


@pytest.mark.parametrize("field_tag", ["real", "complex"])
@pytest.mark.parametrize("m", [64, 160, 224])
def test_fig2_measurement_matrices_match_reference(field_tag, m):
    for trial in (0, 3):
        seed = seed_sequence(7, SALT_MEASUREMENT, m, trial)
        got = gaussian_measurements(m, 256, seed, field_tag=field_tag).matrix
        want = ref_gaussian_measurements(m, 256, seed_sequence(7, SALT_MEASUREMENT, m, trial), field_tag)
        assert_same_array(got, want)


@pytest.mark.parametrize("field_tag", ["real", "complex"])
@pytest.mark.parametrize("seed", [2**32 + 5, 3_500_000_000_000_000, 2**64 + 3, 2**96 - 1])
def test_measurement_matrices_from_multiword_seeds_match_reference(field_tag, seed):
    # seeds of two, three and four uint32 words, as ints and inside a sequence
    assert_same_array(gaussian_measurements(5, 17, seed, field_tag=field_tag).matrix,
                      ref_gaussian_measurements(5, 17, seed, field_tag))
    got = gaussian_measurements(5, 17, seed_sequence(seed, SALT_MEASUREMENT, 96, 2), field_tag)
    want = ref_gaussian_measurements(5, 17, seed_sequence(seed, SALT_MEASUREMENT, 96, 2), field_tag)
    assert_same_array(got.matrix, want)


def _twins(*args, **kwargs):
    return np.random.SeedSequence(*args, **kwargs), np.random.SeedSequence(*args, **kwargs)


@pytest.mark.parametrize("field_tag", ["real", "complex"])
@pytest.mark.parametrize(
    "entropy, spawn_key",
    [(11, ()), ([11, SALT_MEASUREMENT], ()), ([1, 2, 3, 4, 5, 6], ()), ([11], (4, 2**33))],
)
def test_a_seed_sequence_is_read_not_advanced(field_tag, entropy, spawn_key):
    """A parent that has spawned children already, then two calls on one
    object: the same M both times, its twin's, and the sequence unchanged."""
    seq, twin = _twins(entropy, spawn_key=spawn_key)
    seq.spawn(3)
    twin.spawn(3)
    want = ref_gaussian_measurements(6, 10, twin, field_tag)
    for _ in range(2):
        assert_same_array(gaussian_measurements(6, 10, seq, field_tag=field_tag).matrix, want)
        assert seq.n_children_spawned == twin.n_children_spawned == 3
        assert seq.spawn_key == twin.spawn_key and seq.entropy == twin.entropy
        assert seq.pool.tobytes() == twin.pool.tobytes()
    assert [c.spawn_key for c in seq.spawn(2)] == [c.spawn_key for c in twin.spawn(2)]


class _Subclassed(np.random.SeedSequence):
    pass


@pytest.mark.parametrize(
    "make",
    [lambda: np.random.SeedSequence([5, "0x1f"]), lambda: np.random.SeedSequence(5, pool_size=8),
     lambda: _Subclassed(5)],
    ids=["str-entropy", "pool-size-8", "subclass"],
)
def test_any_seed_sequence_seeds_the_one_generator(make):
    seq, twin = make(), make()
    got = gaussian_measurements(4, 6, seq, field_tag="complex").matrix
    assert_same_array(got, ref_gaussian_measurements(4, 6, twin, "complex"))
    assert seq.n_children_spawned == 0


# ---------------------------------------------------------------------------
# sparse signals


@pytest.mark.parametrize("name", sorted(DICTIONARIES))
@pytest.mark.parametrize("mode", ["clustered", "separated"])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("seed", SEEDS)
def test_gen_sparse_signal_matches_reference(name, mode, k, seed):
    D = DICTIONARIES[name]()
    for given in (seed, seed_sequence(seed, SALT_SIGNAL, 5)):
        want_seed = given if isinstance(given, int) else seed_sequence(seed, SALT_SIGNAL, 5)
        x, alpha, T = gen_sparse_signal(D, k, mode, given)
        rx, ralpha, rT = ref_gen_sparse_signal(D, k, mode, want_seed)
        assert T == rT
        assert_same_array(alpha, ralpha)
        assert_same_array(x, rx)


def test_int_signal_seed_is_the_signal_salted_sequence():
    D = overcomplete_dft(16, 4)
    a = gen_sparse_signal(D, 3, "separated", 11)
    b = gen_sparse_signal(D, 3, "separated", seed_sequence(11, SALT_SIGNAL))
    assert a[2] == b[2]
    assert_same_array(a[0], b[0])


# ---------------------------------------------------------------------------
# noise


@pytest.mark.parametrize("complex_field", [False, True])
@pytest.mark.parametrize("level", [0.0, 1e-3, 0.5, 2.0])
@pytest.mark.parametrize("seed", SEEDS)
def test_add_noise_matches_reference(complex_field, level, seed):
    v = rng_from(seed, 77).standard_normal(13)
    if complex_field:
        v = v + 1j * rng_from(seed, 78).standard_normal(13)
    got = add_noise(v, level, seed_sequence(seed, SALT_NOISE, 96, 2))
    want = ref_add_noise(v, level, seed_sequence(seed, SALT_NOISE, 96, 2))
    assert_same_array(got, want)
    if level > 0.0:
        assert np.linalg.norm(got - v) == pytest.approx(level, rel=1e-12)


def test_add_noise_at_level_zero_returns_the_input():
    v = np.arange(4.0)
    assert add_noise(v, 0.0, seed_sequence(1, SALT_NOISE)) is v


# ---------------------------------------------------------------------------
# near-optimality estimator signals


@pytest.mark.parametrize("name", sorted(DICTIONARIES))
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("seed", SEEDS)
def test_estimator_draw_matches_reference(name, k, seed):
    D = DICTIONARIES[name]()
    for trial in range(8):
        got = _estimator_draw(D, k, trial, rng_from(seed, SALT_ESTIMATOR, trial))
        want = ref_estimator_draw(D, k, trial, rng_from(seed, SALT_ESTIMATOR, trial))
        assert_same_array(got, want)


# ---------------------------------------------------------------------------
# theory records


THEORY_CASES = {
    "feasible": dict(deltas=(0.0001, 0.0002, 0.0003), c_k=1.0, ctilde_2k=1.0, gamma=0.01),
    "feasible-zeta": dict(deltas=(0.01, 0.02, 0.03), c_k=1.05, ctilde_2k=0.98, gamma=0.01, zeta=1.5),
    "infeasible": dict(deltas=(0.3, 0.5, 0.9), c_k=4.0, ctilde_2k=0.5, gamma=0.5),
    "budgeted": dict(deltas=(0.0001, 0.0002, 0.0003), c_k=1.0, ctilde_2k=1.0, gamma=0.01,
                     x_norm=1.0, e_norm=0.01),
    "budgeted-noiseless": dict(deltas=(0.0001, 0.0002, 0.0003), c_k=1.0, ctilde_2k=1.0,
                               gamma=0.01, x_norm=1.0, e_norm=0.0, max_iters=17),
    "budgeted-infeasible": dict(deltas=(0.3, 0.5, 0.9), c_k=4.0, ctilde_2k=0.5, gamma=0.5,
                                x_norm=1.0, e_norm=0.1),
}


@pytest.mark.parametrize("case", sorted(THEORY_CASES))
def test_theory_constants_to_dict_matches_reference(case):
    constants = theory_bundle(**THEORY_CASES[case])
    got = constants.to_dict()
    want = ref_theory_to_dict(constants)
    assert list(got) == list(want)
    assert json.dumps(got) == json.dumps(want)


def test_theory_cases_cover_every_branch():
    bundles = {name: theory_bundle(**kw) for name, kw in THEORY_CASES.items()}
    assert bundles["feasible"].feasible and bundles["feasible"].t_star is None
    assert not bundles["infeasible"].feasible
    assert bundles["budgeted"].t_star is not None and bundles["budgeted"].eta0 is not None
    assert bundles["budgeted-noiseless"].t_star == 17
    assert "t_star" not in bundles["budgeted-infeasible"].to_dict()


# ---------------------------------------------------------------------------
# recovery traces


def recovery_reports():
    """Reports with and without x_true on complex and real problems."""
    reports = []
    D = overcomplete_dft(32, 2)
    M = gaussian_measurements(24, 32, seed_sequence(5, SALT_MEASUREMENT), "complex").matrix
    x, _, _ = gen_sparse_signal(D, 2, "separated", seed_sequence(5, SALT_SIGNAL))
    y = add_noise(M @ x, 0.01, seed_sequence(5, SALT_NOISE))
    config = SSCoSaMPConfig.for_selector("omp", 2, halting=HaltingRule(max_iters=6))
    reports.append(sscosamp(y, M, D, config, x_true=x))
    reports.append(sscosamp(y, M, D, config))
    D = real_dictionary(16, 32, 8)
    M = gaussian_measurements(12, 16, seed_sequence(8, SALT_MEASUREMENT)).matrix
    x, _, _ = gen_sparse_signal(D, 2, "clustered", seed_sequence(8, SALT_SIGNAL))
    config = SSCoSaMPConfig.for_selector("threshold", 2, halting=HaltingRule(max_iters=4))
    reports.append(sscosamp(M @ x, M, D, config, x_true=x))
    reports.append(sscosamp(M @ x, M, D, config))
    return reports


@pytest.mark.parametrize("include_estimate", [True, False])
def test_recovery_report_to_dict_matches_reference(include_estimate):
    reports = recovery_reports()
    assert any(r.trace and r.trace[0].error_norm is not None for r in reports)
    assert any(r.trace and r.trace[0].error_norm is None for r in reports)
    for report in reports:
        got = report.to_dict(include_estimate=include_estimate)
        want = ref_report_to_dict(report, include_estimate=include_estimate)
        assert json.dumps(got) == json.dumps(want)
