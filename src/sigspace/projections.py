"""Support-selection schemes: the projections that drive signal-space recovery.

A scheme maps a signal z to a support T such that the atoms indexed by T span
a good k-term approximation of z. Plain schemes (thresholding, OMP, the
representation-domain CoSaMP/IHT pursuits, the brute-force oracle) return at
most k atoms. The extension variants (eps-OMP, eps-thresholding) may return up
to zeta*k atoms, where zeta is the size of the largest group of mutually
correlated atoms: they exclude already-covered atoms during selection and
return the correlation closure of what they picked.

Determinism: every argmax breaks ties in the computed correlations toward the
lowest index, and all randomness is injected through explicit seeds, so
identical inputs always give identical supports. A tie that is exact only in
exact arithmetic is decided by rounding, not by the index: for a real signal
and the overcomplete DFT, the mirrored atoms j and n - j correlate equally
with it, and which of them is picked depends on the rounding of D^H z and,
after the first pick of OMP and eps-OMP, of the coefficient-space re-fit of
D^H r from the picks' Gram columns.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable

import numpy as np

from .dictionaries import SALT_ESTIMATOR, Dictionary, _gaussian, rng_from
from .linalg import (
    SupportSet,
    _norm,
    _require_finite,
    captured_and_residual_sq,
    rank_rcond,
    top_k_indices,
)

SCHEME_KINDS = ("threshold", "omp", "cosamp-rep", "iht-rep", "eps-omp", "eps-threshold", "oracle")
_EPS_KINDS = ("eps-omp", "eps-threshold")

# Hard cap on the number of supports the brute-force oracle may enumerate.
ORACLE_SUPPORT_BUDGET = 200_000


class BudgetExceededError(RuntimeError):
    """Raised when a combinatorial enumeration would exceed its guard."""


@dataclass(frozen=True)
class SelectionScheme:
    """A support-selection scheme instance: kind, target sparsity, knobs.

    eps is the correlation slack of the extension variants. max_iters and
    rel_tol cap the representation-domain pursuits (defaults: 50 iterations
    for cosamp-rep, 200 for iht-rep, relative improvement floor 1e-6).
    """

    kind: str
    k: int
    eps: float = 0.0
    max_iters: int | None = None
    rel_tol: float = 1e-6

    def __post_init__(self) -> None:
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if self.k < 1:
            raise ValueError("scheme k must be >= 1")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        if self.eps != 0.0 and self.kind not in _EPS_KINDS:
            raise ValueError(f"eps is only meaningful for {_EPS_KINDS}, not {self.kind!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        _require_finite(rel_tol=self.rel_tol)
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class NearOptimalityEstimate:
    """Empirical near-optimality constants of a scheme against the oracle.

    c_hat bounds the worst observed residual ratio (scheme over optimal,
    squared norms, clamped to >= 1). ctilde_hat bounds the worst observed
    captured-energy ratio (clamped to <= 1). Ratios with a vanishing optimal
    denominator are skipped; the *_trials counters say how many contributed.
    """

    c_hat: float
    ctilde_hat: float
    trials: int
    residual_trials: int
    capture_trials: int
    zeta: int

    def __post_init__(self) -> None:
        if self.c_hat < 1.0 - 1e-9:
            raise ValueError("c_hat must be >= 1 up to tolerance")
        if self.ctilde_hat > 1.0 + 1e-9:
            raise ValueError("ctilde_hat must be <= 1 up to tolerance")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


def zeta_factor(scheme: SelectionScheme, D: Dictionary) -> int:
    """Support-inflation factor: 1 for plain schemes, the measured largest
    per-atom extension set for the eps variants."""
    if scheme.kind not in _EPS_KINDS:
        return 1
    table = D.neighbor_table(scheme.eps)
    return max(len(hits) for hits in table)


def threshold_select(D: Dictionary, z: np.ndarray, k: int) -> SupportSet:
    """Indices of the k largest |d_i^* z|; ties go to the lowest index."""
    if not 1 <= k <= D.n:
        raise ValueError("threshold requires 1 <= k <= n")
    corr = np.abs(D.analysis(z))
    return SupportSet(tuple(int(i) for i in top_k_indices(corr, k)), D.n)


class _Residual:
    """r = z - P z, P the projection onto the span of the columns added so far.

    The span is kept as an orthonormal basis that grows by at most one vector
    per added column, so adding a column costs O(d j) for a basis of j
    vectors instead of an SVD of every column added so far. The basis is
    stored row by row: row j is q_j. _GramResidual hands its re-fit to it
    from a pick near the span of the earlier ones on.
    """

    def __init__(self, z: np.ndarray, dtype: np.dtype, capacity: int, rcond: float) -> None:
        self.r = z.astype(dtype, copy=True)
        self._complex = self.r.dtype.kind == "c"
        self._rows = np.empty((capacity, z.shape[0]), dtype=dtype)
        self._rcond = rcond
        self.rank = 0

    @property
    def basis(self) -> np.ndarray:
        """The orthonormal basis, one vector per column."""
        return self._rows[: self.rank].T

    def add(self, a: np.ndarray) -> None:
        """Add the column a to the span and update r.

        a is orthogonalized against the basis with two classical Gram-Schmidt
        passes, in place in the basis row it would take. When what is left has
        norm at most rcond * ||a||, a already lies in the span (to the package
        rank cutoff) and adds no vector, so duplicated atoms collapse to one
        direction; the next column added overwrites the row.
        """
        rank = self.rank
        if rank == self._rows.shape[0]:
            return
        q = self._rows[rank]
        q[...] = a
        if rank:
            rows = self._rows[:rank]
            for _ in range(2):
                h = (rows @ q.conj()).conj() if self._complex else rows @ q
                q -= h @ rows
        norm = _norm(q)
        if norm <= self._rcond * _norm(a):
            return
        q /= norm
        self.r -= q * np.vdot(q, self.r)
        self.rank += 1


class _GramResidual:
    """c = A^H r for r = z - P z, tracked in coefficient space (Batch-OMP).

    While the picks stay well conditioned nothing of length d is kept. For
    each orthonormal direction q_j of the span it keeps the row w_j = A^H q_j
    and the scalar s_j = q_j^H z, so that c = A^H z - sum_j w_j s_j. Adding
    column a_i reads h_j = q_j^H a_i from the rows (h_j is the conjugate of
    w_j[i]), and the new direction q = (a_i - sum_j h_j q_j) / nu,
    nu^2 = ||a_i||^2 - ||h||^2, needs only the Gram column g_i = A^H a_i:
    ||a_i||^2 = g_i[i], w = (g_i - h W) / nu and s = (c0_i - h^H s) / nu,
    c0 = A^H z. Each added column costs O(n j) for j directions.

    The squared subtraction loses accuracy as nu / ||a_i|| falls: its
    rounding error, about eps ||a_i||^2 times a growth with the conditioning
    of the earlier picks, is divided by nu^2 in w s. So a column with
    nu^2 <= rcond ||a_i||^2 lies in the span and adds no direction, and a
    column with nu < NEAR_SPAN ||a_i|| hands the re-fit to the signal-space
    _Residual, rebuilt from column(j) for the columns that added a
    direction: it makes the rank test, and c = analysis(r) from then on.
    """

    NEAR_SPAN = 0.1

    def __init__(
        self,
        z: np.ndarray,
        c: np.ndarray,
        column: Callable[[int], np.ndarray],
        analysis: Callable[[np.ndarray], np.ndarray],
        dtype: np.dtype,
        capacity: int,
        rcond: float,
    ) -> None:
        self._z = z
        self._c0 = c
        self._column = column
        self._analysis = analysis
        self.c = c.astype(dtype, copy=True)
        self._rows = np.empty((capacity, c.shape[0]), dtype=dtype)
        self._s = np.empty(capacity, dtype=dtype)
        self._ws = np.empty(c.shape[0], dtype=dtype)  # w s of the latest direction
        self._rcond = rcond
        self._taken: list[int] = []  # the columns that added a direction
        self._residual: _Residual | None = None
        self.rank = 0

    def add(self, i: int, g: np.ndarray) -> None:
        """Add column i, given its Gram column g = A^H a_i."""
        fit = self._residual
        if fit is None:
            rank = self.rank
            if rank == self._rows.shape[0]:
                return
            rows = self._rows[:rank]
            wi = rows[:, i]  # conj(h)
            a_sq = float(g[i].real)
            nu_sq = a_sq - float(np.vdot(wi, wi).real)
            if nu_sq <= self._rcond * a_sq:
                return
            if nu_sq >= self.NEAR_SPAN * self.NEAR_SPAN * a_sq:
                nu = math.sqrt(nu_sq)
                w = self._rows[rank]
                w[...] = g
                if rank:
                    w -= wi.conj() @ rows
                w /= nu
                s = self._s[rank] = (self._c0[i] - wi @ self._s[:rank]) / nu
                self.c -= np.multiply(w, s, out=self._ws)
                self._taken.append(i)
                self.rank += 1
                return
            # near the span: the signal-space re-fit takes over from here on
            fit = self._residual = _Residual(self._z, self.c.dtype, self._rows.shape[0], self._rcond)
            for j in self._taken:
                fit.add(self._column(j))
        fit.add(self._column(i))
        self.c = self._analysis(fit.r)
        self.rank = fit.rank


def _greedy(
    shape: tuple[int, int],
    column: Callable[[int], np.ndarray],
    analysis: Callable[[np.ndarray], np.ndarray],
    z: np.ndarray,
    k: int,
    table: tuple[np.ndarray, ...] | None = None,
    refit: bool = True,
    gram: Callable[[int], np.ndarray] | None = None,
) -> tuple[SupportSet, SupportSet]:
    """The greedy pursuit behind OMP, eps-OMP, eps-thresholding and eps_omp_recover.

    The pursuit runs over the columns of a matrix A of the given shape that is
    never indexed as a whole: column(i) returns a_i, and analysis(r) computes
    A^H r. Each of at most k rounds picks the column with the largest
    |a_i^* r| outside the exclusion mask (ties to the lowest index) and
    excludes table[i], or only i without a table. With refit the correlations
    are recomputed against r = z - P_picks z before the next round; without
    it they stay those of z. Stops early once every column is excluded.
    Returns the picks and the final exclusion mask (the closure), both as
    supports.

    The re-fit is Batch-OMP in coefficient space (_GramResidual): analysis
    runs once, on z, and A^H r is updated from the Gram column A^H a_i of
    each pick; column and analysis run again only if a pick near the span of
    the earlier ones hands the re-fit to signal space. gram(i) gives that
    column, and a dictionary lends it, cached, for its own atoms; without it
    (the measured atoms of eps_omp_recover) it is analysis(column(i)), one
    product per pick, not cached.
    """
    d, n = shape
    c = analysis(z)
    corr = np.abs(c)
    excluded = None if table is None else np.zeros(n, dtype=bool)
    left = n  # columns not excluded yet
    picks = np.empty(k, dtype=np.intp)  # the first `count` entries are the picks
    count = 0
    fit = None
    if refit:
        # only the picks before the last are re-fitted, and at most d directions exist
        dtype = np.result_type(c, z)
        fit = _GramResidual(z, c, column, analysis, dtype, min(k - 1, d), rank_rcond(shape))
        gram = gram or (lambda i: analysis(column(i)))
    for _ in range(k):
        if not left:
            break
        if fit is not None and count:  # re-fit with the previous round's pick i
            fit.add(i, gram(i))
            np.abs(fit.c, out=corr)
        if table is None:
            corr[picks[:count]] = -1.0
        else:
            corr[excluded] = -1.0
        i = int(corr.argmax())
        picks[count] = i
        count += 1
        if table is None:
            left -= 1
        else:
            left -= table[i].size - int(np.count_nonzero(excluded[table[i]]))
            excluded[table[i]] = True
    chosen = SupportSet.from_iterable(picks[:count].tolist(), n)
    if table is None:
        return chosen, chosen
    return chosen, SupportSet(tuple(np.flatnonzero(excluded).tolist()), n)


def _greedy_over_atoms(
    D: Dictionary,
    z: np.ndarray,
    k: int,
    table: tuple[np.ndarray, ...] | None = None,
    refit: bool = True,
) -> tuple[SupportSet, SupportSet]:
    """_greedy over D's own atoms, which lend their Gram columns: the
    re-fit runs in coefficient space on every dictionary."""
    return _greedy(D.matrix.shape, D.atom, D.analysis, z, k, table, refit, D.gram_column)


def omp_select(D: Dictionary, z: np.ndarray, k: int) -> SupportSet:
    """Orthogonal matching pursuit: k greedy picks with full re-fit each round."""
    if not 1 <= k <= min(D.d, D.n):
        raise ValueError("omp requires 1 <= k <= min(d, n)")
    return _greedy_over_atoms(D, z, k)[0]


def eps_extend(D: Dictionary, T: SupportSet, eps: float) -> SupportSet:
    """Correlation closure of T: every atom whose normalized correlation with
    some atom of T reaches 1 - eps^2 (eps = 0 keeps only collinear atoms)."""
    if T.universe != D.n:
        raise ValueError("support universe does not match the dictionary")
    table = D.neighbor_table(eps)
    return SupportSet.from_iterable(chain(T, *(table[i] for i in T)), D.n)


def eps_omp_select(D: Dictionary, z: np.ndarray, k: int, eps: float) -> SupportSet:
    """OMP with correlation exclusion: each of the k rounds picks the best atom
    outside the closure of what was already picked, re-fits, and the final
    answer is the closure itself (at most zeta*k atoms)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _greedy_over_atoms(D, z, k, D.neighbor_table(eps))[1]


def eps_threshold_select(D: Dictionary, z: np.ndarray, k: int, eps: float) -> SupportSet:
    """Thresholding with correlation exclusion: correlations are computed once,
    each round takes the best atom outside the current closure."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _greedy_over_atoms(D, z, k, D.neighbor_table(eps), refit=False)[1]


def _sparse_support(values: np.ndarray) -> SupportSet:
    return SupportSet.from_iterable(np.flatnonzero(values), values.shape[0])


def cosamp_rep_select(
    D: Dictionary, z: np.ndarray, k: int, max_iters: int = 50, rel_tol: float = 1e-6
) -> SupportSet:
    """Support of a k-sparse representation found by CoSaMP run on (D, z).

    Stops on a near-zero residual or when the residual improves by less than
    rel_tol relative per iteration; hitting the iteration cap while still
    improving emits a RuntimeWarning and returns the best iterate's support.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    n = D.n
    alpha = np.zeros(n, dtype=np.result_type(D.matrix, z))
    r = z.astype(alpha.dtype, copy=True)
    z_norm = float(np.linalg.norm(z))
    prev_res = float(np.linalg.norm(r))
    best_res, best_support = prev_res, _sparse_support(alpha)
    converged = prev_res <= 1e-12 * max(z_norm, 1.0)
    for _ in range(max_iters):
        if converged:
            break
        proxy = np.abs(D.analysis(r))
        omega = np.union1d(np.flatnonzero(alpha), top_k_indices(proxy, 2 * k))
        cols = D.matrix[:, omega]
        coef, _, _, _ = np.linalg.lstsq(cols, z, rcond=rank_rcond(cols.shape))
        keep = top_k_indices(np.abs(coef), k)
        alpha = np.zeros_like(alpha)
        alpha[omega[keep]] = coef[keep]
        r = z - D.matrix @ alpha
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_res, best_support = res, _sparse_support(alpha)
        if res <= 1e-12 * max(z_norm, 1.0) or prev_res - res < rel_tol * prev_res:
            converged = True
        prev_res = res
    if not converged:
        warnings.warn("cosamp-rep hit its iteration cap while still improving", RuntimeWarning)
    return best_support


def iht_rep_select(
    D: Dictionary, z: np.ndarray, k: int, max_iters: int = 200, rel_tol: float = 1e-6
) -> SupportSet:
    """Support of a k-sparse representation found by unit-step iterative hard
    thresholding on (D, z). Same convergence/warning contract as cosamp-rep.

    The top-k step is top_k_indices without its final sort (the kept set is
    the same), and the best iterate's support is built once, at return.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    alpha = np.zeros(D.n, dtype=np.result_type(D.matrix, z))
    r = z.astype(alpha.dtype, copy=True)
    z_norm = float(np.linalg.norm(z))
    prev_res = _norm(r)
    best_res, best_alpha = prev_res, alpha
    converged = prev_res <= 1e-12 * max(z_norm, 1.0)
    for _ in range(max_iters):
        if converged:
            break
        v = alpha + D.analysis(r)
        keep = (-np.abs(v)).argsort(kind="stable")[:k]
        new_alpha = np.zeros(alpha.shape, alpha.dtype)
        new_alpha[keep] = v[keep]
        if (new_alpha == alpha).all():
            converged = True
            break
        alpha = new_alpha
        r = z - D.matrix @ alpha
        res = _norm(r)
        if res < best_res:
            best_res, best_alpha = res, alpha
        if res <= 1e-12 * max(z_norm, 1.0) or abs(prev_res - res) < rel_tol * prev_res:
            converged = True
        prev_res = res
    if not converged:
        warnings.warn("iht-rep hit its iteration cap while still improving", RuntimeWarning)
    return _sparse_support(best_alpha)


def _support_bases(D: Dictionary, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cached (supports, padded orthonormal bases, ranks) of every support of one size.

    One batched SVD over the stacked D[:, T]. Row i of the bases holds
    orthonormal_range(D[:, supports[i]]) in its first ranks[i] columns and
    zeros after them: the package rank cutoff is applied per slice.
    """
    cached = D._support_cache.get(size)
    if cached is not None:
        return cached
    supports = np.asarray(list(combinations(range(D.n), size)), dtype=np.intp).reshape(-1, size)
    U, s, _ = np.linalg.svd(D.matrix.T[supports].swapaxes(1, 2), full_matrices=False)
    ranks = np.count_nonzero(s > rank_rcond((D.d, size)) * s[:, :1], axis=1)
    bases = np.zeros((len(supports), D.d, size), dtype=U.dtype)
    bases[:, :, : U.shape[2]] = U * (np.arange(U.shape[2]) < ranks[:, None])[:, None, :]
    D._support_cache[size] = (supports, bases, ranks)
    return supports, bases, ranks


def _check_oracle_budget(n: int, k: int) -> None:
    if not (n <= 24 or k <= 3):
        raise BudgetExceededError(f"combinatorial budget exceeded: n={n}, k={k}")
    total = sum(math.comb(n, s) for s in range(k + 1))
    if total > ORACLE_SUPPORT_BUDGET:
        raise BudgetExceededError(
            f"combinatorial budget exceeded: {total} supports for n={n}, k={k}"
        )


def oracle_stats(D: Dictionary, z: np.ndarray, k: int) -> tuple[SupportSet, float, float]:
    """Best support of size at most k with its captured and residual energy.

    Exhaustive search. Exact residual ties resolve to the lexicographically
    smallest index tuple (so a strict prefix beats its extensions and z = 0
    returns the empty support).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if not np.isfinite(z).all():
        raise ValueError("signal must be finite")
    k = min(k, D.n)
    _check_oracle_budget(D.n, k)
    total = float(np.real(np.vdot(z, z)))
    best_residual = total
    best_captured = 0.0
    best_tuple: tuple[int, ...] = ()
    for size in range(1, k + 1):
        supports, bases, _ = _support_bases(D, size)
        captured = np.linalg.norm(np.einsum("sdr,d->sr", bases.conj(), z), axis=1) ** 2
        row = int(np.argmax(captured))
        cap = float(captured[row])
        residual = max(total - cap, 0.0)
        cand = tuple(int(i) for i in supports[row])
        if residual < best_residual or (residual == best_residual and cand < best_tuple):
            best_residual, best_captured, best_tuple = residual, cap, cand
    return SupportSet(best_tuple, D.n), best_captured, best_residual


def oracle_select(D: Dictionary, z: np.ndarray, k: int) -> SupportSet:
    return oracle_stats(D, z, k)[0]


# kind -> the scheme's selection function on (scheme, D, z)
_SELECTORS = {
    "threshold": lambda s, D, z: threshold_select(D, z, s.k),
    "omp": lambda s, D, z: omp_select(D, z, s.k),
    "eps-omp": lambda s, D, z: eps_omp_select(D, z, s.k, s.eps),
    "eps-threshold": lambda s, D, z: eps_threshold_select(D, z, s.k, s.eps),
    "cosamp-rep": lambda s, D, z: cosamp_rep_select(D, z, s.k, s.max_iters or 50, s.rel_tol),
    "iht-rep": lambda s, D, z: iht_rep_select(D, z, s.k, s.max_iters or 200, s.rel_tol),
    "oracle": lambda s, D, z: oracle_select(D, z, s.k),
}


def select(scheme: SelectionScheme, D: Dictionary, z: np.ndarray) -> SupportSet:
    """Run a scheme on a signal."""
    if not np.isfinite(z).all():
        raise ValueError("signal must be finite")
    return _SELECTORS[scheme.kind](scheme, D, z)


def _estimator_draw(D: Dictionary, k: int, trial: int, rng: np.random.Generator) -> np.ndarray:
    complex_field = D.field_tag == "complex"
    if trial % 2 == 0:
        return _gaussian(rng, D.d, complex_field)
    support = np.sort(rng.choice(D.n, size=k, replace=False))
    coeffs = _gaussian(rng, k, complex_field)
    sigma = (0.0, 0.1, 1.0)[(trial // 2) % 3]
    return D.matrix[:, support] @ coeffs + sigma * _gaussian(rng, D.d, complex_field)


def estimate_near_optimality(
    scheme: SelectionScheme, D: Dictionary, trials: int, seed: int
) -> NearOptimalityEstimate:
    """Monte-Carlo estimate of a scheme's near-optimality constants.

    Half the test signals are pure Gaussian vectors, half are exactly k-sparse
    syntheses plus noise at sigma in {0, 0.1, 1}, which stresses both the
    residual and the captured-energy side of near-optimality.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k = scheme.k
    c_hat = 1.0
    ctilde_hat = 1.0
    residual_trials = 0
    capture_trials = 0
    for trial in range(trials):
        rng = rng_from(seed, SALT_ESTIMATOR, trial)
        z = _estimator_draw(D, k, trial, rng)
        z_sq = float(np.real(np.vdot(z, z)))
        _, opt_cap, opt_res = oracle_stats(D, z, k)
        T = select(scheme, D, z)
        cap, res = captured_and_residual_sq(D.matrix, T, z)
        if opt_res > (1e-10) ** 2 * z_sq:
            c_hat = max(c_hat, res / opt_res)
            residual_trials += 1
        if opt_cap > (1e-10) ** 2 * z_sq:
            ctilde_hat = min(ctilde_hat, cap / opt_cap)
            capture_trials += 1
    return NearOptimalityEstimate(
        c_hat=c_hat,
        ctilde_hat=ctilde_hat,
        trials=trials,
        residual_trials=residual_trials,
        capture_trials=capture_trials,
        zeta=zeta_factor(scheme, D),
    )
