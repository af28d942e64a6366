"""Support sets, projections, and the min-norm synthesis solve."""

import numpy as np
import pytest

from sigspace import (
    SupportSet,
    captured_and_residual_sq,
    coproject,
    ls_synthesize,
    orthonormal_range,
    project,
    rank_rcond,
    rng_from,
    subdict,
    top_k_indices,
)
from sigspace import linalg
from sigspace.linalg import _adjoint_apply, _matmul

EPS = np.finfo(np.float64).eps


def random_problem(rng, complex_field=False):
    d = int(rng.integers(2, 8))
    n = int(rng.integers(1, 10))
    if complex_field:
        D = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
        z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    else:
        D = rng.standard_normal((d, n))
        z = rng.standard_normal(d)
    size = int(rng.integers(0, n + 1))
    T = SupportSet.from_iterable(rng.choice(n, size=size, replace=False), n)
    return D, T, z


class TestSupportSet:
    def test_strictly_increasing_required(self):
        with pytest.raises(ValueError):
            SupportSet((2, 1), 5)
        with pytest.raises(ValueError):
            SupportSet((1, 1), 5)

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            SupportSet((-1, 0), 5)
        with pytest.raises(ValueError):
            SupportSet((0, 5), 5)

    def test_from_iterable_sorts_and_dedupes(self):
        T = SupportSet.from_iterable([4, 1, 4, 2], 6)
        assert T.indices == (1, 2, 4)

    def test_union_and_protocols(self):
        a = SupportSet((0, 3), 5)
        b = SupportSet((1, 3), 5)
        u = a.union(b)
        assert u.indices == (0, 1, 3)
        assert len(u) == 3
        assert 3 in u and 2 not in u
        assert list(u) == [0, 1, 3]

    def test_union_universe_mismatch(self):
        with pytest.raises(ValueError):
            SupportSet((0,), 4).union(SupportSet((0,), 5))

    def test_empty(self):
        T = SupportSet.empty(7)
        assert len(T) == 0 and T.universe == 7

    def test_numpy_indices_coerced(self):
        T = SupportSet.from_iterable(np.array([2, 0], dtype=np.int64), 4)
        assert all(isinstance(i, int) for i in T.indices)


class TestSubdict:
    def test_column_order_follows_indices(self):
        D = np.arange(12.0).reshape(3, 4)
        T = SupportSet((1, 3), 4)
        assert np.array_equal(subdict(D, T), D[:, [1, 3]])

    def test_universe_mismatch(self):
        with pytest.raises(ValueError):
            subdict(np.eye(3), SupportSet((0,), 4))


class TestOrthonormalRange:
    def test_orthonormal_columns(self):
        rng = rng_from(11)
        A = rng.standard_normal((6, 3))
        U = orthonormal_range(A)
        assert U.shape == (6, 3)
        assert np.allclose(U.conj().T @ U, np.eye(3), atol=1e-12)

    def test_duplicate_columns_collapse(self):
        v = np.array([1.0, 2.0, 3.0])
        U = orthonormal_range(np.column_stack([v, v, 2 * v]))
        assert U.shape[1] == 1

    def test_zero_and_empty(self):
        assert orthonormal_range(np.zeros((4, 3))).shape == (4, 0)
        assert orthonormal_range(np.zeros((4, 0))).shape == (4, 0)


class TestProjection:
    def test_idempotent_and_orthogonal(self):
        for trial in range(1000):
            rng = rng_from(21, trial)
            D, T, z = random_problem(rng, complex_field=trial % 2 == 1)
            p = project(D, T, z)
            z_sq = float(np.real(np.vdot(z, z)))
            again = project(D, T, p)
            assert np.linalg.norm(again - p) <= 1e-10 * max(np.linalg.norm(p), 1.0)
            inner = abs(np.vdot(p, z - p))
            assert inner <= 1e-10 * max(z_sq, 1.0)

    def test_pythagoras(self):
        for trial in range(300):
            rng = rng_from(22, trial)
            D, T, z = random_problem(rng, complex_field=trial % 3 == 0)
            cap, res = captured_and_residual_sq(D, T, z)
            z_sq = float(np.real(np.vdot(z, z)))
            assert cap >= 0 and res >= 0
            assert abs((cap + res) - z_sq) <= 1e-9 * max(z_sq, 1.0)

    def test_coproject_complements(self):
        rng = rng_from(23)
        D, T, z = random_problem(rng)
        assert np.allclose(project(D, T, z) + coproject(D, T, z), z, atol=1e-12)

    def test_empty_support_projects_to_zero(self):
        D = np.eye(4)
        z = np.ones(4)
        assert np.array_equal(project(D, SupportSet.empty(4), z), np.zeros(4))

    def test_full_span_projects_to_signal(self):
        D = np.eye(3)
        z = np.array([1.0, -2.0, 0.5])
        T = SupportSet((0, 1, 2), 3)
        assert np.allclose(project(D, T, z), z, atol=1e-12)


def _ls_noise(rng, shape, complex_field):
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _ls_gaussian(seed, m, n_support, complex_field, d=12, n=20):
    """(M, D, T, y): a Gaussian m x d M (real, as in the sweeps), a Gaussian
    D of n atoms and a support of n_support of them."""
    rng = rng_from(36, seed)
    D = _ls_noise(rng, (d, n), complex_field)
    M = rng.standard_normal((m, d))
    T = SupportSet.from_iterable(rng.choice(n, size=n_support, replace=False), n)
    return M, D, T, _ls_noise(rng, m, complex_field)


def _ls_duplicated(complex_field):
    M, D, T, y = _ls_gaussian(1, 10, 5, complex_field)
    i = T.indices[0]
    j = next(j for j in range(D.shape[1]) if j not in T)
    D[:, j] = D[:, i]
    return M, D, T.union(SupportSet((j,), D.shape[1])), y


def _ls_rank_deficient(complex_field):
    M, D, T, y = _ls_gaussian(2, 10, 6, complex_field)
    rng = rng_from(37)
    D = D[:, :3] @ _ls_noise(rng, (3, D.shape[1]), complex_field)
    return M, D, T, y


def _ls_near_the_cut(complex_field):
    """M = I and D_T with singular values from 1 down to 3 times the cut:
    full rank, but too close to the cut for the QR certificate."""
    rng = rng_from(38)
    m, s = 10, 6
    U = np.linalg.qr(_ls_noise(rng, (m, s), complex_field))[0]
    V = np.linalg.qr(_ls_noise(rng, (s, s), complex_field))[0]
    sigma = np.logspace(0, np.log10(3 * rank_rcond((m, s))), s)
    D = (U * sigma) @ V.conj().T
    return np.eye(m), D, SupportSet(tuple(range(s)), s), _ls_noise(rng, m, complex_field)


LS_INSTANCES = {
    "full-rank": lambda c: _ls_gaussian(0, 10, 6, c),
    "near-the-cut": _ls_near_the_cut,
    "duplicated": _ls_duplicated,
    "rank-deficient": _ls_rank_deficient,
    "wider": lambda c: _ls_gaussian(3, 4, 6, c),
}
# the branch of ls_synthesize each instance takes, and the rank it keeps
LS_BRANCHES = {"full-rank": "certified", "near-the-cut": "svd", "duplicated": "svd",
               "rank-deficient": "svd", "wider": "lstsq"}
LS_RANKS = {"full-rank": 6, "near-the-cut": 6, "duplicated": 5, "rank-deficient": 3, "wider": 4}


class TestLsSynthesize:
    def test_normal_equations_and_range(self):
        for trial in range(300):
            rng = rng_from(31, trial)
            complex_field = trial % 2 == 1
            d = int(rng.integers(2, 8))
            n = int(rng.integers(1, 10))
            m = int(rng.integers(1, 9))
            if complex_field:
                D = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
                M = rng.standard_normal((m, d)) + 1j * rng.standard_normal((m, d))
                y = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            else:
                D = rng.standard_normal((d, n))
                M = rng.standard_normal((m, d))
                y = rng.standard_normal(m)
            size = int(rng.integers(1, n + 1))
            T = SupportSet.from_iterable(rng.choice(n, size=size, replace=False), n)
            x = ls_synthesize(M, D, T, y)
            A = M @ subdict(D, T)
            # stationarity of the least-squares objective
            grad = np.linalg.norm(A.conj().T @ (y - M @ x))
            assert grad <= 1e-8 * max(np.linalg.norm(y), 1.0) * max(np.linalg.norm(A), 1.0)
            # the estimate never leaves the span of the chosen atoms
            in_range = project(D, T, x)
            assert np.linalg.norm(x - in_range) <= 1e-9 * max(np.linalg.norm(x), 1.0)

    def test_exact_interpolation(self):
        rng = rng_from(32)
        D = rng.standard_normal((5, 7))
        M = rng.standard_normal((6, 5))
        T = SupportSet((1, 4), 7)
        x_true = subdict(D, T) @ np.array([0.7, -1.2])
        x = ls_synthesize(M, D, T, M @ x_true)
        assert np.allclose(x, x_true, atol=1e-9)

    def test_duplicate_atoms_pick_min_norm_fit(self):
        # two copies of the same atom: the fit is still unique in signal space
        v = np.array([1.0, 0.0, 2.0])
        D = np.column_stack([v, v])
        M = np.eye(3)
        y = 3.0 * v
        T = SupportSet((0, 1), 2)
        x = ls_synthesize(M, D, T, y)
        assert np.allclose(x, y, atol=1e-10)

    def test_empty_support_returns_zero(self):
        M = np.eye(3)
        D = np.eye(3)
        x = ls_synthesize(M, D, SupportSet.empty(3), np.ones(3))
        assert np.array_equal(x, np.zeros(3))

    def test_real_problem_matches_complex_embedding(self):
        rng = rng_from(33)
        D = rng.standard_normal((4, 6))
        M = rng.standard_normal((5, 4))
        y = rng.standard_normal(5)
        T = SupportSet((0, 2, 5), 6)
        x_real = ls_synthesize(M, D, T, y)
        x_cplx = ls_synthesize(M.astype(complex), D.astype(complex), T, y.astype(complex))
        assert np.linalg.norm(x_cplx - x_real) <= 1e-12 * max(np.linalg.norm(x_real), 1.0)

    def test_a_solve_that_does_not_converge_is_solved_scaled(self, monkeypatch):
        # LAPACK's SVD can fail on a well-posed matrix and converge on it
        # scaled by 1 / ||A||_F; the scaled solve has the same min-norm answer.
        # Each fallback's own SVD call fails once: the SVD of R on a support
        # that the QR certificate refuses, and lstsq on a wider one.
        for name, call in (("duplicated", "svd"), ("wider", "lstsq")):
            M, D, T, y = LS_INSTANCES[name](True)
            expected = ls_synthesize(M, D, T, y)
            solver = getattr(np.linalg, call)
            calls = []

            def fails_once(A, *args, **kwargs):
                calls.append(np.linalg.norm(A))
                if len(calls) == 1:
                    raise np.linalg.LinAlgError("SVD did not converge")
                return solver(A, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(linalg.np.linalg, call, fails_once)
                x = ls_synthesize(M, D, T, y)
            assert len(calls) == 2
            assert abs(calls[1] - 1.0) <= 1e-14  # the retry solves A / ||A||_F
            assert np.linalg.norm(x - expected) <= 1e-13 * np.linalg.norm(expected)

    @pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("name", sorted(LS_BRANCHES))
    def test_fits_match_the_truncated_svd_reference(self, name, complex_field, monkeypatch):
        """Each instance takes its expected branch and gives D_T a for the
        minimum-norm a of the dense truncated SVD of M D_T at the rank_rcond
        cut, within rounding: 16 eps times the condition number of what is
        kept (the reference and lstsq differ by up to 1.6 eps times it)."""
        M, D, T, y = LS_INSTANCES[name](complex_field)
        A = M @ subdict(D, T)
        U, sigma, Vh = np.linalg.svd(A, full_matrices=False)
        keep = sigma > rank_rcond(A.shape) * sigma[0]
        want = subdict(D, T) @ (Vh[keep].conj().T @ ((U[:, keep].conj().T @ y) / sigma[keep]))
        calls = []
        with monkeypatch.context() as patch:
            for call in ("solve", "svd", "lstsq"):
                solver = getattr(np.linalg, call)

                def recording(*args, _call=call, _solver=solver, **kwargs):
                    calls.append(_call)
                    return _solver(*args, **kwargs)

                patch.setattr(linalg.np.linalg, call, recording)
            x = ls_synthesize(M, D, T, y)
        branch = "lstsq" if "lstsq" in calls else "svd" if "svd" in calls else "certified"
        assert branch == LS_BRANCHES[name]
        assert keep.sum() == LS_RANKS[name]
        kept_condition = sigma[0] / sigma[keep][-1]
        assert np.linalg.norm(x - want) <= 16 * EPS * kept_condition * np.linalg.norm(want)


class TestMatmul:
    """_matmul runs a real A times a complex X on a real kernel: the sums may
    round differently from A.astype(complex) @ X, every other pair is plain @."""

    @pytest.mark.parametrize("cols", [None, 1, 7])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_real_times_complex_matches_the_complex_product(self, cols, transposed):
        for seed in range(20):
            rng = rng_from(35, seed)
            m, d = (int(v) for v in rng.integers(1, 60, size=2))
            A = rng.standard_normal((d, m)).T if transposed else rng.standard_normal((m, d))
            shape = (2 * d,) if cols is None else (2 * d, cols)
            X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            strided = X[::2] if cols is None else np.repeat(X[::2], 2, axis=1)[:, ::2]
            for operand in (np.ascontiguousarray(X[::2]), strided, X[::-2]):
                got = _matmul(A, operand)
                ref = A.astype(complex) @ operand
                assert got.dtype == ref.dtype and got.shape == ref.shape
                tol = 4 * EPS * np.linalg.norm(A) * np.linalg.norm(operand)
                assert np.abs(got - ref).max() <= tol

    def test_other_dtype_pairs_are_plain_matmul(self):
        rng = rng_from(37)
        real = rng.standard_normal((6, 5))
        cplx = real + 1j * rng.standard_normal((6, 5))
        x_real = rng.standard_normal(5)
        x_cplx = x_real + 1j * rng.standard_normal(5)
        pairs = [
            (real, x_real), (real, x_real[:, None]), (cplx, x_cplx), (cplx, x_real),
            (real.astype(np.float32), x_cplx), (real, x_cplx.astype(np.complex64)),
            (real.astype(np.int64), x_cplx), (cplx, np.column_stack([x_cplx, x_cplx])),
        ]
        for A, X in pairs:
            got, ref = _matmul(A, X), A @ X
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes()

    def test_adjoint_of_a_real_matrix_on_a_complex_vector(self):
        rng = rng_from(38)
        A = rng.standard_normal((11, 7))
        r = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        got = _adjoint_apply(A, r)
        assert np.abs(got - A.T.astype(complex) @ r).max() <= 4 * EPS * np.linalg.norm(A) * np.linalg.norm(r)
        x = rng.standard_normal(11)
        assert _adjoint_apply(A, x).tobytes() == (x @ A).tobytes()


class TestTopK:
    def test_selects_largest(self):
        mags = np.array([3.0, 5.0, 1.0, 0.0])
        assert list(top_k_indices(mags, 2)) == [0, 1]

    def test_tie_breaks_to_lowest_index(self):
        mags = np.array([1.0, 2.0, 2.0, 2.0])
        assert list(top_k_indices(mags, 2)) == [1, 2]

    def test_all_zero_gives_leading_indices(self):
        assert list(top_k_indices(np.zeros(5), 3)) == [0, 1, 2]

    def test_k_equals_length(self):
        assert sorted(top_k_indices(np.array([2.0, 1.0]), 2)) == [0, 1]
