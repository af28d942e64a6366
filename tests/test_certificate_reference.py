"""The batched support-basis engine against per-support reference loops.

The reference functions below are literal copies of the loops the engine
replaced: ``exact_drip``, ``exact_rip`` and ``drip_invariant_suite``, which
built one ``orthonormal_range`` per support and took one SVD per support or
pair, and the oracle's per-support basis tables with ``oracle_stats`` (its
cache on the dictionary left out). The engine stacks the same supports into
batched SVDs and products, so the certificate values may differ from the
loops in the last bits: they must agree to within 1e-12 max(1, |reference|).
The counts and the oracle's support must be identical.

``exact_rip`` is now ``exact_drip`` over the identity dictionary, so the
identity of acceptance criterion 5(a) holds by construction; this comparison
with the loops is what checks either of them.
"""

import math
from itertools import combinations

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    SupportSet,
    drip_invariant_suite,
    exact_drip,
    exact_rip,
    oracle_stats,
    orthonormal_range,
    rng_from,
)

# ---------------------------------------------------------------------------
# reference loops


def ref_exact_drip(M, D, k):
    M = np.asarray(M)
    delta = 0.0
    for T in combinations(range(D.n), k):
        U = orthonormal_range(D.matrix[:, T])
        if U.shape[1] == 0:
            continue
        s = np.linalg.svd(M @ U, compute_uv=False)
        smin_sq = s[-1] ** 2 if s.size == U.shape[1] else 0.0
        delta = max(delta, s[0] ** 2 - 1.0, 1.0 - smin_sq)
    return float(delta)


def ref_exact_rip(A, k):
    A = np.asarray(A)
    n = A.shape[1]
    delta = 0.0
    for T in combinations(range(n), k):
        s = np.linalg.svd(A[:, T], compute_uv=False)
        smin = s[-1] if len(s) == k else 0.0
        delta = max(delta, s[0] ** 2 - 1.0, 1.0 - smin**2)
    return float(delta)


def ref_drip_invariant_suite(M, D, k):
    M = np.asarray(M)
    delta = ref_exact_drip(M, D, k)
    A = np.eye(D.d, dtype=np.result_type(M, D.matrix)) - M.conj().T @ M
    bases = {s: [] for s in range(1, k + 1)}
    for size in range(1, k + 1):
        for T in combinations(range(D.n), size):
            bases[size].append(orthonormal_range(D.matrix[:, T]))
    image_slack = math.inf
    self_slack = math.inf
    supports = 0
    for size in range(1, k + 1):
        for U in bases[size]:
            supports += 1
            if U.shape[1] == 0:
                continue
            s = np.linalg.svd(M @ U, compute_uv=False)
            image_slack = min(image_slack, (1.0 + delta) - s[0] ** 2)
            self_slack = min(self_slack, delta - np.linalg.norm(U.conj().T @ A @ U, 2))
    cross_slack = math.inf
    pairs = 0
    flat = [(size, U) for size in range(1, k + 1) for U in bases[size]]
    for i, (s1, U1) in enumerate(flat):
        if U1.shape[1] == 0:
            continue
        left = U1.conj().T @ A
        for s2, U2 in flat[i:]:
            if s1 + s2 > k or U2.shape[1] == 0:
                continue
            pairs += 1
            cross_slack = min(cross_slack, delta - np.linalg.norm(left @ U2, 2))
    if not math.isfinite(cross_slack):
        cross_slack = 0.0
    return delta, image_slack, self_slack, cross_slack, supports, pairs


def ref_oracle_tables(D, size):
    supports = np.asarray(list(combinations(range(D.n), size)), dtype=np.intp)
    bases = np.zeros((supports.shape[0], D.d, size), dtype=D.matrix.dtype)
    for row, T in enumerate(supports):
        U = orthonormal_range(D.matrix[:, T])
        bases[row, :, : U.shape[1]] = U
    return supports, bases


def ref_oracle_stats(D, z, k):
    k = min(k, D.n)
    total = float(np.real(np.vdot(z, z)))
    best_residual = total
    best_captured = 0.0
    best_tuple = ()
    for size in range(1, k + 1):
        supports, bases = ref_oracle_tables(D, size)
        captured = np.linalg.norm(np.einsum("sdr,d->sr", bases.conj(), z), axis=1) ** 2
        row = int(np.argmax(captured))
        cap = float(captured[row])
        residual = max(total - cap, 0.0)
        cand = tuple(int(i) for i in supports[row])
        if residual < best_residual or (residual == best_residual and cand < best_tuple):
            best_residual, best_captured, best_tuple = residual, cap, cand
    return SupportSet(best_tuple, D.n), best_captured, best_residual


# ---------------------------------------------------------------------------
# instances


def _draw(rng, shape, complex_field):
    out = rng.standard_normal(shape)
    if complex_field:
        out = out + 1j * rng.standard_normal(shape)
    return out


def make_instance(kind, complex_field, seed):
    """(D, M, k) of one named instance kind."""
    rng = rng_from(4242, seed, int(complex_field))
    d, n, m, k = 5, 8, 6, 3
    if kind == "m<k":
        m = 2
    atoms = _draw(rng, (d, n), complex_field)
    if kind == "rank-deficient":
        atoms = _draw(rng, (d, 2), complex_field) @ _draw(rng, (2, n), complex_field)
    atoms = atoms / np.linalg.norm(atoms, axis=0)
    if kind == "duplicated-atom":
        atoms[:, 5] = atoms[:, 1]
        atoms[:, 6] = -2.0 * atoms[:, 1]
    elif kind == "zero-atom":
        atoms[:, 2] = 0.0
        atoms[:, 7] = 0.0
    elif kind == "tiny-atom":
        # below the rank cutoff of every slice but its own
        atoms[:, 4] *= 1e-16
    elif kind == "all-zero":
        atoms[:] = 0.0
    M = _draw(rng, (m, d), complex_field) / math.sqrt(m)
    if kind == "near-singular":
        # M maps one unit vector v of span(d_0, d_1) to norm 1e-7, so
        # sigma_min(M U) is about 1e-7 on every span that holds v: the
        # squared singular values lose their digits there
        v = atoms[:, 0] + atoms[:, 1]
        v = v / np.linalg.norm(v)
        w = M @ v
        M = M + np.outer(1e-7 * w / np.linalg.norm(w) - w, v.conj())
    return Dictionary(atoms), M, k


KINDS = ("generic", "m<k", "rank-deficient", "duplicated-atom", "zero-atom", "tiny-atom",
         "all-zero", "near-singular")
CASES = [(kind, cplx, seed) for kind in KINDS for cplx in (False, True) for seed in range(3)]


def assert_close(value, ref):
    if not math.isfinite(ref):
        assert value == ref
    else:
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (value, ref)


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("kind, complex_field, seed", CASES)
def test_exact_drip_matches_loop(kind, complex_field, seed):
    D, M, k = make_instance(kind, complex_field, seed)
    for kk in range(1, k + 2):
        assert_close(exact_drip(M, D, kk), ref_exact_drip(M, D, kk))


@pytest.mark.parametrize("kind, complex_field, seed", CASES)
def test_drip_invariant_suite_matches_loop(kind, complex_field, seed):
    D, M, k = make_instance(kind, complex_field, seed)
    for kk in (1, 2, k, k + 1):
        report = drip_invariant_suite(M, D, kk)
        delta, image, self_gram, cross, supports, pairs = ref_drip_invariant_suite(M, D, kk)
        assert_close(report.delta, delta)
        assert report.delta == exact_drip(M, D, kk)
        assert_close(report.image_norm_min_slack, image)
        assert_close(report.self_gram_min_slack, self_gram)
        assert_close(report.cross_gram_min_slack, cross)
        assert report.supports_checked == supports
        assert report.pairs_checked == pairs


@pytest.mark.parametrize("kind, complex_field, seed", CASES)
def test_exact_rip_matches_loop(kind, complex_field, seed):
    D, M, k = make_instance(kind, complex_field, seed)
    for A in (D.matrix, M, M.T):
        for kk in range(1, min(k + 1, A.shape[1]) + 1):
            assert_close(exact_rip(A, kk), ref_exact_rip(A, kk))


@pytest.mark.parametrize("kind, complex_field, seed", CASES)
def test_oracle_stats_matches_loop(kind, complex_field, seed):
    D, _, k = make_instance(kind, complex_field, seed)
    rng = rng_from(4343, seed, int(complex_field))
    signals = [
        _draw(rng, D.d, complex_field),
        np.zeros(D.d, dtype=D.matrix.dtype),
        D.matrix[:, [1, 4]] @ _draw(rng, 2, complex_field),
    ]
    for z in signals:
        for kk in (0, 1, k, D.n):
            support, cap, res = oracle_stats(D, z, kk)
            ref_support, ref_cap, ref_res = ref_oracle_stats(D, z, kk)
            assert support == ref_support
            assert_close(cap, ref_cap)
            assert_close(res, ref_res)


def test_the_suite_checks_the_diagonal_pairs():
    """Pairs of a support with itself are counted when 2|T| <= k."""
    D, M, _ = make_instance("generic", False, 0)
    assert drip_invariant_suite(M, D, 2).pairs_checked == D.n * (D.n + 1) // 2
