"""eps_omp_recover without the measured dictionary, against the dense reference.

eps_omp_recover never builds M D. It correlates the residual with the
measured atoms as D^H (M^H r) and forms the measured atom M d_i of a pick
only when the re-fit needs it. The dense reference runs the same greedy core
over the columns of ``M @ D.matrix``, with the dense (M D)^H r, followed by
the same min-norm fit. The two correlations round differently, so only a
near-tie could make them pick differently; on these instances they must pick
the same support, and the same support gives the same estimate bit for bit.
"""

from functools import partial

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    eps_omp_recover,
    gaussian_measurements,
    ls_synthesize,
    overcomplete_dft,
    rng_from,
    seed_sequence,
)
from sigspace.dictionaries import SALT_MEASUREMENT
from sigspace.linalg import _adjoint_apply
from sigspace.projections import _greedy

EPS_VALUES = (0.0, 0.3, float(np.sqrt(0.1)))


def dense_eps_omp_recover(y, M, D, k, eps):
    A = M @ D.matrix
    support = _greedy(
        A.shape, lambda i: A[:, i], partial(_adjoint_apply, A), y, k, D.neighbor_table(eps)
    )[1]
    return ls_synthesize(M, D.matrix, support, y), support


def _noise(rng, shape, complex_field):
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _unit_columns(A):
    return A / np.linalg.norm(A, axis=0)


def _duplicated(seed):
    A = _unit_columns(rng_from(seed).standard_normal((10, 16)))
    A[:, 11] = A[:, 5]
    return Dictionary(A)


def _rank_deficient(seed):
    rng = rng_from(seed)
    return Dictionary(_unit_columns(rng.standard_normal((10, 4)) @ rng.standard_normal((4, 20))))


DICTIONARIES = {
    "real": lambda: Dictionary(_unit_columns(_noise(rng_from(501), (24, 48), False))),
    "complex": lambda: Dictionary(_unit_columns(_noise(rng_from(502), (24, 48), True))),
    "dft4": lambda: overcomplete_dft(16, 4),
    "duplicated": lambda: _duplicated(503),
    "rank4": lambda: _rank_deficient(504),
}


def problems(D, m, seed, count=12):
    """(M, y) pairs: a zero y and noisy syntheses of up to three atoms."""
    rng = rng_from(seed)
    complex_field = D.field_tag == "complex"
    M = gaussian_measurements(m, D.d, seed_sequence(seed, SALT_MEASUREMENT), D.field_tag).matrix
    out = [(M, np.zeros(m, dtype=M.dtype))]
    for j in range(count):
        support = rng.choice(D.n, size=1 + j % 3, replace=False)
        x = D.matrix[:, support] @ _noise(rng, support.size, complex_field)
        out.append((M, M @ x + 0.01 * _noise(rng, m, complex_field)))
    return out


@pytest.mark.parametrize("eps", EPS_VALUES)
@pytest.mark.parametrize("name", sorted(DICTIONARIES))
def test_matches_the_dense_reference(name, eps):
    D = DICTIONARIES[name]()
    m = max(4, (2 * D.d) // 3)
    for M, y in problems(D, m, 510):
        for k in (1, 2, 3):
            x_hat, support = eps_omp_recover(y, M, D, k, eps)
            x_ref, support_ref = dense_eps_omp_recover(y, M, D, k, eps)
            assert support == support_ref
            assert x_hat.dtype == x_ref.dtype
            assert x_hat.tobytes() == x_ref.tobytes()

