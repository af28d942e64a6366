"""Dense linear-algebra kernels shared by the whole package.

Everything here is a thin, convention-fixing layer over numpy/LAPACK. The two
conventions that matter package-wide:

* Rank decisions: a singular value is treated as zero when it falls below
  ``max(rows, cols) * machine_eps * 10 * sigma_max``. Highly correlated atoms
  make near-singular subproblems routine, so the cutoff is deliberately a
  factor 10 looser than numpy's default.
* Rank-deficient least squares always returns the minimum-norm solution.

``_require_finite`` is the one check that a scalar parameter is neither NaN
nor infinite; the range checks after it can then trust their comparisons.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator

import numpy as np

# Extra slack on top of max(dims)*eps*sigma_max when deciding numerical rank.
RANK_CUTOFF_FACTOR = 10.0

_EPS = float(np.finfo(np.float64).eps)


def rank_rcond(shape: tuple[int, int]) -> float:
    """Relative singular-value cutoff for a matrix of the given shape."""
    return max(shape) * _EPS * RANK_CUTOFF_FACTOR


def _require_finite(**values: float) -> None:
    """Raise ValueError("<name> must be finite") for the first NaN or infinity."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SupportSet:
    """A strictly increasing tuple of atom indices inside a universe of size n.

    The ascending order is part of the contract: submatrix column order and
    coefficient indexing follow it, so results are reproducible regardless of
    the order in which a scheme discovered the indices.
    """

    indices: tuple[int, ...]
    universe: int

    def __post_init__(self) -> None:
        idx = self.indices
        if not all(map(isinstance, idx, repeat(int))):
            idx = tuple(map(int, idx))
            object.__setattr__(self, "indices", idx)
        if not all(map(operator.lt, idx, idx[1:])):
            raise ValueError("support indices must be strictly increasing")
        if idx and (idx[0] < 0 or idx[-1] >= self.universe):
            raise ValueError(
                f"support indices must lie in [0, {self.universe}), got {idx[0]}..{idx[-1]}"
            )
        if self.universe < 0:
            raise ValueError("universe size must be nonnegative")

    @classmethod
    def from_iterable(cls, indices: Iterable[int], universe: int) -> "SupportSet":
        """Build a support from any iterable, sorting and deduplicating."""
        return cls(tuple(sorted({int(i) for i in indices})), universe)

    @classmethod
    def empty(cls, universe: int) -> "SupportSet":
        return cls((), universe)

    def union(self, other: "SupportSet") -> "SupportSet":
        if self.universe != other.universe:
            raise ValueError("cannot union supports over different universes")
        return SupportSet.from_iterable(self.indices + other.indices, self.universe)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.indices, dtype=np.intp)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, i: object) -> bool:
        return i in self.indices


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a vector, bit for bit: the expression it evaluates,
    without the cost of its argument handling."""
    v = v.ravel(order="K")
    if v.dtype.kind == "c":
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def _matmul(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A @ X for a matrix A and a vector or matrix X, with no complex copy of a real A.

    For a float64 A and a complex128 X, plain @ first casts all of A to
    complex128. Here X (made C-contiguous, a copy of X at most) is read as
    float64 with its real and imaginary parts interleaved, so one real
    product gives both parts. The products of the terms are those of the
    complex kernel, but their sums may round differently. Any other pair of
    dtypes takes plain @.
    """
    if A.dtype != np.float64 or X.dtype != np.complex128 or A.ndim != 2 or X.ndim > 2:
        return A @ X
    cols = np.ascontiguousarray(X if X.ndim == 2 else X[:, None])
    out = (A @ cols.view(np.float64)).view(np.complex128)
    return out if X.ndim == 2 else out[:, 0]


def _adjoint_apply(A: np.ndarray, r: np.ndarray) -> np.ndarray:
    """A^H r without building A^H: one pass over A, no copy of the matrix.

    A real A takes A^T r: r @ A for a real r (conj() of a real array is the
    array itself, so these are the bits of the complex form), and _matmul
    for a complex r.
    """
    if A.dtype.kind == "c":
        return (r.conj() @ A).conj()
    if r.dtype.kind != "c":
        return r @ A
    return _matmul(A.T, r)


def subdict(D: np.ndarray, T: SupportSet) -> np.ndarray:
    """Columns of D restricted to T, in ascending index order."""
    if D.shape[1] != T.universe:
        raise ValueError(f"support universe {T.universe} does not match n={D.shape[1]}")
    return D[:, T.as_array()]


def orthonormal_range(A: np.ndarray) -> np.ndarray:
    """An orthonormal basis of range(A), empty for the zero/empty matrix.

    Basis vectors are left singular vectors whose singular value clears the
    package rank cutoff, so duplicated or nearly collinear columns collapse
    to a single direction instead of poisoning projections.
    """
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    if A.shape[1] == 0 or A.shape[0] == 0:
        return np.zeros((A.shape[0], 0), dtype=A.dtype)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((A.shape[0], 0), dtype=A.dtype)
    cutoff = rank_rcond(A.shape) * s[0]
    return U[:, s > cutoff]


def project(
    D: np.ndarray, T: SupportSet, z: np.ndarray, bases: dict | None = None
) -> np.ndarray:
    """Orthogonal projection of z onto span of the atoms indexed by T.

    bases, when given, holds the orthonormal basis of every support already
    projected onto, keyed by its indices, so projecting onto one of them
    again takes no SVD. One dict serves one matrix D.
    """
    U = None if bases is None else bases.get(T.indices)
    if U is None:
        U = orthonormal_range(subdict(D, T))
        if bases is not None:
            bases[T.indices] = U
    if U.shape[1] == 0:
        return np.zeros_like(z, dtype=np.result_type(D, z))
    return U @ (U.conj().T @ z)


def coproject(D: np.ndarray, T: SupportSet, z: np.ndarray) -> np.ndarray:
    """Residual complement z - P_T z."""
    return z - project(D, T, z)


def captured_and_residual_sq(D: np.ndarray, T: SupportSet, z: np.ndarray) -> tuple[float, float]:
    """(||P_T z||^2, ||z - P_T z||^2) computed from one basis, residual clamped >= 0."""
    U = orthonormal_range(subdict(D, T))
    total = float(np.real(np.vdot(z, z)))
    if U.shape[1] == 0:
        return 0.0, total
    cap = float(np.linalg.norm(U.conj().T @ z) ** 2)
    return cap, max(total - cap, 0.0)


# ||R||_F ||R^-1||_F bounds the condition number from above. A product below
# _CERTIFY_MARGIN / rcond keeps the smallest singular value above ten times
# the rank cut, far from any rank decision.
_CERTIFY_MARGIN = 0.1


def _min_norm_coef(A: np.ndarray, y: np.ndarray, rcond: float) -> np.ndarray:
    """argmin ||A a - y||_2 of least norm, singular values at most rcond
    sigma_max taken as zero (the three branches of ls_synthesize)."""
    m, s = A.shape
    if s > m:
        return np.linalg.lstsq(A, y, rcond=rcond)[0]
    # [A | y] = Q R: R_s = R[:s, :s] has A's singular values, and Q^H y's
    # first s entries are R[:s, s]
    R = np.linalg.qr(np.column_stack((A, y)), mode="r")
    R_s, qy = R[:s, :s], R[:s, s]
    try:  # [R_s^-1 q_y | R_s^-1], by back substitution
        X = np.linalg.solve(R_s, np.column_stack((qy, np.eye(s, dtype=R.dtype))))
    except np.linalg.LinAlgError:  # an exactly zero pivot
        X = None
    if X is not None and _norm(R_s) * _norm(X[:, 1:]) * rcond < _CERTIFY_MARGIN:
        return X[:, 0]
    U, sigma, Vh = np.linalg.svd(R_s)
    keep = sigma > rcond * sigma[0]
    return Vh[keep].conj().T @ ((U[:, keep].conj().T @ qy) / sigma[keep])


def ls_synthesize(M: np.ndarray, D: np.ndarray, T: SupportSet, y: np.ndarray) -> np.ndarray:
    """Signal-space least-squares fit restricted to a support.

    Returns x_p = D_T a where a = argmin ||M D_T a - y||_2, taking the
    minimum-norm solution when M D_T is rank deficient. The output always
    lies in range(D_T); an empty support gives the zero signal.

    The fit takes one of three branches. With no more columns than rows,
    [M D_T | y] = Q R is factored once, and R's leading square block R_s has
    the singular values of M D_T:
    * certified: when ||R_s||_F ||R_s^-1||_F certifies a condition number
      far below 1 / rank_rcond, a solves R_s a = Q^H y;
    * truncated SVD: otherwise a comes from the SVD of R_s, cut at
      rank_rcond like lstsq.
    Wider supports take lstsq itself. The QR branches give lstsq's answer,
    rounded differently.
    """
    out_dtype = np.result_type(M, D, y)
    if len(T) == 0:
        return np.zeros(D.shape[0], dtype=out_dtype)
    cols = subdict(D, T)
    A = _matmul(M, cols)
    rcond = rank_rcond(A.shape)
    try:
        coef = _min_norm_coef(A, y, rcond)
    except np.linalg.LinAlgError:
        # LAPACK's SVD can fail to converge on a well-posed A and converge on
        # A / ||A||_F. rcond is relative, so that problem has the same
        # minimum-norm solution, times ||A||_F.
        scale = np.linalg.norm(A)
        coef = _min_norm_coef(A / scale, y, rcond) / scale
    return cols @ coef


def top_k_indices(magnitudes: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries, ties resolved to the lowest index.

    Returns indices in ascending order. Relies on a stable sort of the negated
    magnitudes so equal values keep their original (ascending-index) order.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    k = min(k, magnitudes.shape[0])
    order = np.argsort(-magnitudes, kind="stable")
    return np.sort(order[:k])
