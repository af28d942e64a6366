"""Closed-form recovery constants and exhaustive small-instance certificates.

Two layers live here. The closed-form layer evaluates the contraction and
noise-amplification constants of the signal-space iteration, the convergence
condition on the near-optimality constants, and the classical bounds that feed
them. The oracle layer measures restricted-isometry behaviour exactly on
instances small enough to enumerate every support, which is what the test
suite uses to certify hypotheses instead of assuming them.

The certificates read M on each support's span through the Gram matrix
(M U)^H (M U) of an orthonormal basis U: one batched eigen-solve per support
size gives every sigma_max^2 and sigma_min^2 of M U, and from those alone the
isometry constant, the image-norm bound and the self-Gram bound of each
support, because ||U^H (I - M^H M) U|| = ||I - (M U)^H (M U)||. Only the
cross-Gram norm between two different spans needs its own products.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dictionaries import Dictionary, identity_dictionary
from .linalg import _require_finite
from .projections import BudgetExceededError, _support_bases

# Supports are enumerated exhaustively; beyond this width the count explodes.
ENUM_MAX_COLUMNS = 20

# Cross-Gram pairs per batched norm: bounds the memory of the suite's pair
# products whatever the number of supports.
_PAIR_BLOCK = 4096


@dataclass(frozen=True)
class TheoryConstants:
    """Everything the convergence theorem needs, evaluated for one setting.

    feasible is False when the alpha denominator is nonpositive (the
    hypotheses are violated); alpha, eta2 and eta are NaN in that case.
    epsilon_sq is the isometry threshold for these (c_k, ctilde_2k, gamma),
    or None when the base condition fails. t_star and eta0 are filled only
    when a noise budget was requested.
    """

    zeta: float
    gamma: float
    c_k: float
    ctilde_2k: float
    delta_zp1: float
    delta_3z: float
    delta_3zp1: float
    alpha: float
    rho1: float
    rho2: float
    eta1: float
    eta2: float
    rho: float
    eta: float
    feasible: bool
    condition_ok: bool
    epsilon_sq: float | None
    t_star: int | None = None
    eta0: float | None = None

    def to_dict(self) -> dict:
        """The fields in declaration order; t_star and eta0 only when filled."""
        out = asdict(self)
        for key in ("t_star", "eta0"):
            if out[key] is None:
                del out[key]
        return out


@dataclass(frozen=True)
class DripInvariantReport:
    """Worst-case slacks of the three operator-norm consequences of isometry.

    Each slack is bound minus measured value, minimised over all admissible
    supports (pairs); the suite passes when min_slack is not meaningfully
    negative.
    """

    delta: float
    image_norm_min_slack: float
    self_gram_min_slack: float
    cross_gram_min_slack: float
    supports_checked: int
    pairs_checked: int

    @property
    def min_slack(self) -> float:
        return min(
            self.image_norm_min_slack, self.self_gram_min_slack, self.cross_gram_min_slack
        )

    def passes(self, tol: float = 1e-9) -> bool:
        return self.min_slack >= -tol


def _check_enum_budget(n: int, k: int) -> None:
    if n > ENUM_MAX_COLUMNS:
        raise BudgetExceededError(f"combinatorial budget exceeded: n={n} columns")
    if not 1 <= k <= n:
        raise ValueError("k must satisfy 1 <= k <= n")


def _checked_measurements(M: np.ndarray, D: Dictionary, k: int) -> np.ndarray:
    M = np.asarray(M)
    _check_enum_budget(D.n, k)
    if M.ndim != 2 or M.shape[1] != D.d:
        raise ValueError("measurement columns must match the dictionary signal dimension")
    if not np.isfinite(M).all():
        raise ValueError("measurement matrix must be finite")
    return M


def _isometry_extremes(
    M: np.ndarray, D: Dictionary, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bases, sigma_max^2, deviation) of M on every spanning support of one size.

    bases are the padded orthonormal bases U of the supports whose span is
    not zero, in enumeration order. The squared singular values of M U are
    the eigenvalues of its Gram matrix (M U)^H (M U), so one batched
    eigvalsh gives both extremes. The zero padding adds zero eigenvalues
    below the span's own, so sigma_min^2 of a rank-r span is the r-th
    largest; fewer measurement rows than span dimensions leave a kernel, and
    it is 0. deviation is max(sigma_max^2 - 1, 1 - sigma_min^2), which is
    also ||I_r - (M U)^H (M U)|| = ||U^H (I - M^H M) U||.
    """
    _, bases, ranks = _support_bases(D, size)
    spanning = ranks > 0
    U, ranks = bases[spanning], ranks[spanning]
    B = M @ U
    eig = np.linalg.eigvalsh(B.conj().swapaxes(1, 2) @ B)
    smax_sq = eig[:, -1]
    smin_sq = np.where(ranks <= M.shape[0], eig[np.arange(ranks.size), size - ranks], 0.0)
    return U, smax_sq, np.maximum(smax_sq - 1.0, 1.0 - np.maximum(smin_sq, 0.0))


def exact_drip(M: np.ndarray, D: Dictionary, k: int) -> float:
    """Exact restricted-isometry constant of M over k-term dictionary spans.

    For each size-k support the extreme generalized Rayleigh quotients of
    ||M D_T a||^2 / ||D_T a||^2 are the extreme squared singular values of M
    restricted to an orthonormal basis U of range(D_T), which are the extreme
    eigenvalues of the Gram matrix (M U)^H (M U): one batched eigen-solve of
    the small Gram matrices replaces an SVD of every M U. Quotients over
    smaller supports are dominated by some size-k superset, so size k
    suffices. Supports whose atoms are all zero contribute nothing (the
    quotient is restricted to D_T a != 0).
    """
    M = _checked_measurements(M, D, k)
    return float(np.max(_isometry_extremes(M, D, k)[2], initial=0.0))


# One identity dictionary per n, so exact_rip reuses its cached support bases.
_identity = functools.lru_cache(maxsize=16)(identity_dictionary)


def exact_rip(A: np.ndarray, k: int) -> float:
    """Exact RIP constant: worst deviation of column-submatrix singular values.

    This is exact_drip over the identity dictionary.
    """
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError("A must be a matrix")
    _check_enum_budget(A.shape[1], k)
    return exact_drip(A, _identity(A.shape[1]), k)


def _operator_norms(X: np.ndarray) -> np.ndarray:
    """Spectral norms of a stack of matrices. The spectral norm of a row is
    its Euclidean norm, so a stack of rows needs no SVD."""
    if X.shape[-2] == 1:
        return np.linalg.norm(X, axis=(-2, -1))
    return np.linalg.norm(X, 2, axis=(-2, -1))


def _pair_blocks(n1: int, n2: int, upper: bool):
    """Index arrays (i, j) over all n1 x n2 pairs, or only j >= i when upper,
    in blocks of at most _PAIR_BLOCK pairs."""
    for start in range(0, n1 * n2, _PAIR_BLOCK):
        i, j = np.divmod(np.arange(start, min(start + _PAIR_BLOCK, n1 * n2)), n2)
        if upper:
            keep = j >= i
            i, j = i[keep], j[keep]
        yield i, j


def drip_invariant_suite(M: np.ndarray, D: Dictionary, k: int) -> DripInvariantReport:
    """Exhaustively verify the operator-norm consequences of isometry.

    With delta = exact_drip(M, D, k), checks ||M P_T||^2 <= 1 + delta over
    all supports of size <= k, ||P_T (I - M*M) P_T|| <= delta over the same,
    and ||P_T1 (I - M*M) P_T2|| <= delta over all pairs with
    |T1| + |T2| <= k.

    The first two follow from each support's own isometry extremes, which one
    Gram eigen-solve per size gives (see exact_drip): ||M P_T||^2 is
    sigma_max^2 of M U, and for an orthonormal U,
    ||U^H (I - M*M) U|| = ||I - (M U)^H (M U)|| = max(sigma_max^2 - 1,
    1 - sigma_min^2). delta is read from the same solve at size k, so it is
    exact_drip's value bit for bit. The cross-Gram norm couples two different
    spans and is the check those extremes do not give; it is formed
    explicitly, and a block with |T1| = 1 is a row whose spectral norm is its
    Euclidean norm.
    """
    M = _checked_measurements(M, D, k)
    A = np.eye(D.d, dtype=np.result_type(M, D.matrix)) - M.conj().T @ M
    bases = []  # bases[s - 1]: the supports of size s with a nonzero span, in order
    smax_sq = -math.inf
    deviation = -math.inf
    for size in range(1, k + 1):
        U, size_smax_sq, size_deviation = _isometry_extremes(M, D, size)
        bases.append(U)
        smax_sq = max(smax_sq, np.max(size_smax_sq, initial=-math.inf))
        deviation = max(deviation, np.max(size_deviation, initial=-math.inf))
    delta = float(np.max(size_deviation, initial=0.0))  # size k, as in exact_drip
    # the left factors U^H (I - M*M), only for the sizes the pairs read
    lefts = [U.conj().swapaxes(1, 2) @ A for U in bases[: k // 2]]
    # pairs with |T1| <= |T2| (T1 <= T2 in enumeration order when the sizes
    # agree) and |T1| + |T2| <= k
    cross_slack = math.inf
    pairs = 0
    for s1 in range(1, k // 2 + 1):
        for s2 in range(s1, k - s1 + 1):
            left, right = lefts[s1 - 1], bases[s2 - 1]
            for i, j in _pair_blocks(len(left), len(right), s1 == s2):
                pairs += i.size
                if i.size:
                    norms = _operator_norms(left[i] @ right[j])
                    cross_slack = min(cross_slack, delta - np.max(norms))
    if not math.isfinite(cross_slack):
        cross_slack = 0.0
    return DripInvariantReport(
        delta=delta,
        image_norm_min_slack=float((1.0 + delta) - smax_sq),
        self_gram_min_slack=float(delta - deviation),
        cross_gram_min_slack=float(cross_slack),
        supports_checked=sum(math.comb(D.n, size) for size in range(1, k + 1)),
        pairs_checked=pairs,
    )


def coherence_rip_bound(mu: float, k: int) -> float:
    """Isometry bound from coherence: delta_k <= (k - 1) * mu."""
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mu must lie in [0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    return (k - 1) * mu


def ck_bound_generic(c_e: float, delta_2k: float) -> float:
    """Residual near-optimality of a representation pursuit with error factor
    C_e, lifted to signal space: C_k <= 1 + C_e * sqrt(1 + delta_2k)."""
    _require_finite(c_e=c_e)
    if c_e < 0:
        raise ValueError("c_e must be nonnegative")
    if not 0.0 <= delta_2k < 1.0:
        raise ValueError("delta_2k must lie in [0, 1)")
    return 1.0 + c_e * math.sqrt(1.0 + delta_2k)


def ck_bound_cosamp_exact(delta_2k: float, delta_3k: float, delta_4k: float) -> float:
    """ck_bound_generic with the explicit CoSaMP error factor
    2/sqrt(1-delta_3k) + 4(1 + delta_4k/(1-delta_3k))/sqrt(1-delta_2k)."""
    if not 0.0 <= delta_2k <= delta_3k <= delta_4k < 1.0:
        raise ValueError("need 0 <= delta_2k <= delta_3k <= delta_4k < 1")
    c_e = 2.0 / math.sqrt(1.0 - delta_3k) + 4.0 * (
        1.0 + delta_4k / (1.0 - delta_3k)
    ) / math.sqrt(1.0 - delta_2k)
    return ck_bound_generic(c_e, delta_2k)


def ctilde_bound_threshold(delta_k: float) -> float:
    """Captured-energy near-optimality of plain thresholding under isometry:
    Ctilde_k >= (1 - delta_k)/(1 + delta_k)."""
    if not 0.0 <= delta_k < 1.0:
        raise ValueError("delta_k must lie in [0, 1)")
    return (1.0 - delta_k) / (1.0 + delta_k)


def _validate_cs(c_k: float, ctilde_2k: float, gamma: float) -> None:
    _require_finite(c_k=c_k, ctilde_2k=ctilde_2k, gamma=gamma)
    if c_k < 1.0:
        raise ValueError("c_k must be >= 1")
    if not 0.0 < ctilde_2k <= 1.0:
        raise ValueError("ctilde_2k must lie in (0, 1]")
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")


def condition_check(c_k: float, ctilde_2k: float, gamma: float) -> bool:
    """Base convergence condition: (1 + sqrt(C_k))^2 (1 - Ctilde_2k/(1+gamma)^2) < 1."""
    _validate_cs(c_k, ctilde_2k, gamma)
    return (1.0 + math.sqrt(c_k)) ** 2 * (1.0 - ctilde_2k / (1.0 + gamma) ** 2) < 1.0


def epsilon_quadratic(c_k: float, ctilde_2k: float, gamma: float) -> tuple[float, float, float]:
    """Coefficients (A, B, C) of the threshold quadratic in u = sqrt(delta)."""
    _validate_cs(c_k, ctilde_2k, gamma)
    c0 = 1.0 / (1.0 + math.sqrt(c_k)) ** 2
    b = math.sqrt(ctilde_2k) / (1.0 + gamma)
    A = c0 - (b + 1.0) ** 2
    B = 2.0 * (b + 1.0) * b
    C = 1.0 - c0 - ctilde_2k / (1.0 + gamma) ** 2
    return A, B, C


def epsilon_threshold(c_k: float, ctilde_2k: float, gamma: float) -> float | None:
    """Isometry threshold: the convergence condition tolerates delta < eps^2.

    Solves A u^2 + B u + C = 0 for u = sqrt(delta) and returns eps^2 = u^2 for
    the positive root strictly inside (0, 1); returns None when no such root
    exists, which happens exactly when condition_check is false (u = 1 is
    always a root and the other root is positive iff the condition holds).
    """
    A, B, C = epsilon_quadratic(c_k, ctilde_2k, gamma)
    disc = B * B - 4.0 * A * C
    if disc < 0.0:
        disc = 0.0
    sq = math.sqrt(disc)
    roots = ((-B + sq) / (2.0 * A), (-B - sq) / (2.0 * A))
    valid = [u for u in roots if 1e-12 < u < 1.0 - 1e-9]
    if not valid:
        return None
    u = min(valid)
    return u * u


def convergence_constants(
    deltas: tuple[float, float, float],
    c_k: float,
    ctilde_2k: float,
    gamma: float,
    zeta: float = 1.0,
) -> TheoryConstants:
    """Evaluate the contraction factor rho and noise amplification eta.

    deltas are the isometry constants at orders (zeta+1)k, 3*zeta*k and
    (3*zeta+1)k, in that order (they must be nondecreasing). A nonpositive
    alpha denominator marks the result infeasible instead of raising: alpha,
    eta2 and eta come back NaN and rho is still reported.
    """
    d1, d2, d3 = (float(v) for v in deltas)
    if not 0.0 <= d1 <= d2 <= d3 < 1.0:
        raise ValueError("deltas must be nondecreasing within [0, 1)")
    _validate_cs(c_k, ctilde_2k, gamma)
    _require_finite(zeta=zeta)
    if zeta < 1.0:
        raise ValueError("zeta must be >= 1")
    root_c = math.sqrt(c_k)
    b = math.sqrt(ctilde_2k) / (1.0 + gamma)
    eta1 = (1.0 + root_c) * math.sqrt(1.0 + d2) / (1.0 - d3)
    rho1 = math.sqrt((1.0 + root_c) ** 2 / (1.0 - d3 * d3))
    rho2_sq = 1.0 - (math.sqrt(d3) - b * (1.0 - math.sqrt(d1))) ** 2
    rho2 = math.sqrt(max(rho2_sq, 0.0))
    alpha_den = b * (1.0 - math.sqrt(d1)) - math.sqrt(d3)
    feasible = alpha_den > 0.0
    if feasible:
        alpha = math.sqrt(d3) / alpha_den
        eta2_sq = (1.0 + d2) / (gamma * (1.0 + alpha)) + (1.0 + d1) * ctilde_2k / (
            gamma * (1.0 + alpha) * (1.0 + gamma)
        )
        eta2 = math.sqrt(eta2_sq)
        eta = eta1 + rho1 * eta2
    else:
        alpha = math.nan
        eta2 = math.nan
        eta = math.nan
    return TheoryConstants(
        zeta=float(zeta),
        gamma=gamma,
        c_k=c_k,
        ctilde_2k=ctilde_2k,
        delta_zp1=d1,
        delta_3z=d2,
        delta_3zp1=d3,
        alpha=alpha,
        rho1=rho1,
        rho2=rho2,
        eta1=eta1,
        eta2=eta2,
        rho=rho1 * rho2,
        eta=eta,
        feasible=feasible,
        condition_ok=condition_check(c_k, ctilde_2k, gamma),
        epsilon_sq=epsilon_threshold(c_k, ctilde_2k, gamma),
    )


def error_budget(
    rho: float, eta: float, x_norm: float, e_norm: float, max_iters: int = 50
) -> tuple[int, float]:
    """Iterations until the error floor and the total noise amplification.

    t_star = ceil(log(||x||/||e||) / log(1/rho)) and
    eta0 = (1 + (1 - rho^t_star)/(1 - rho)) * eta, so that after t_star
    iterations the error is at most eta0 * ||e||. A noiseless run (e_norm = 0)
    returns the max_iters sentinel with the limiting eta0 = (1 + 1/(1-rho)) eta.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie in (0, 1)")
    _require_finite(eta=eta, x_norm=x_norm, e_norm=e_norm)
    if eta < 0 or x_norm < 0 or e_norm < 0:
        raise ValueError("norms and eta must be nonnegative")
    if e_norm == 0.0:
        eta0 = (1.0 + 1.0 / (1.0 - rho)) * eta
        return max_iters, eta0
    ratio = x_norm / e_norm
    if ratio <= 1.0:
        t_star = 0
    else:
        t_star = int(math.ceil(math.log(ratio) / math.log(1.0 / rho) - 1e-12))
    eta0 = (1.0 + (1.0 - rho**t_star) / (1.0 - rho)) * eta
    return t_star, eta0


def theory_bundle(
    deltas: tuple[float, float, float],
    c_k: float,
    ctilde_2k: float,
    gamma: float,
    zeta: float = 1.0,
    x_norm: float | None = None,
    e_norm: float | None = None,
    max_iters: int = 50,
) -> TheoryConstants:
    """convergence_constants plus the error budget when norms are supplied."""
    constants = convergence_constants(deltas, c_k, ctilde_2k, gamma, zeta)
    if x_norm is None or e_norm is None or not constants.feasible:
        return constants
    if not 0.0 < constants.rho < 1.0:
        return constants
    t_star, eta0 = error_budget(constants.rho, constants.eta, x_norm, e_norm, max_iters)
    return replace(constants, t_star=t_star, eta0=eta0)
