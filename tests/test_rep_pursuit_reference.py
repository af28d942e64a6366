"""iht-rep against a verbatim copy of its earlier loop.

``ref_iht_rep_select`` below is that loop as it stood before the best
iterate was kept as a coefficient vector (its support built once, at return),
the residual norm was taken with ``projections._norm`` and the top-k step was
inlined. Those changes do no arithmetic of their own, so the iterates are the
same bits: the supports must be equal and the RuntimeWarnings (the iteration
cap) identical, on every instance.

The instances cover both fields, d from 2 to 11, n from d to 19 and k from 1
to n + 1, with generic, duplicated-atom and contracted dictionaries, exactly
2-sparse, zero and generic signals, and a one-iteration cap.
"""

import warnings

import numpy as np
import pytest

from sigspace import Dictionary, SupportSet, iht_rep_select, overcomplete_dft, rng_from, top_k_indices

# ---------------------------------------------------------------------------
# reference loop


def _sparse_support(values):
    return SupportSet.from_iterable(np.flatnonzero(values), values.shape[0])


def ref_iht_rep_select(D, z, k, max_iters=200, rel_tol=1e-6):
    if k < 1:
        raise ValueError("k must be >= 1")
    alpha = np.zeros(D.n, dtype=np.result_type(D.matrix, z))
    r = z.astype(alpha.dtype, copy=True)
    z_norm = float(np.linalg.norm(z))
    prev_res = float(np.linalg.norm(r))
    best_res, best_support = prev_res, _sparse_support(alpha)
    converged = prev_res <= 1e-12 * max(z_norm, 1.0)
    for _ in range(max_iters):
        if converged:
            break
        v = alpha + D.analysis(r)
        keep = top_k_indices(np.abs(v), k)
        new_alpha = np.zeros_like(alpha)
        new_alpha[keep] = v[keep]
        if np.array_equal(new_alpha, alpha):
            converged = True
            break
        alpha = new_alpha
        r = z - D.matrix @ alpha
        res = float(np.linalg.norm(r))
        if res < best_res:
            best_res, best_support = res, _sparse_support(alpha)
        if res <= 1e-12 * max(z_norm, 1.0) or abs(prev_res - res) < rel_tol * prev_res:
            converged = True
        prev_res = res
    if not converged:
        warnings.warn("iht-rep hit its iteration cap while still improving", RuntimeWarning)
    return best_support


# ---------------------------------------------------------------------------
# instances

BLOCKS = 12
PER_BLOCK = 100
SIGNALS = ("generic", "2-sparse", "zero")
ATOMS = ("unit-norm", "duplicated", "contracted")


def _draw(rng, shape, complex_field):
    out = rng.standard_normal(shape)
    if complex_field:
        out = out + 1j * rng.standard_normal(shape)
    return out


def make_case(index):
    """(D, z, k, max_iters) of one instance; the index fixes every draw."""
    rng = rng_from(5151, index)
    complex_field = index % 2 == 1
    d = int(rng.integers(2, 12))
    n = int(rng.integers(d, 20))
    k = int(rng.integers(1, n + 2))
    atoms_kind = ATOMS[index // 2 % len(ATOMS)]
    signal = SIGNALS[index // 6 % len(SIGNALS)]
    max_iters = 1 if index % 17 == 0 else 200
    if index % 23 == 0 and d * 2 <= 19:
        D = overcomplete_dft(d, 2)  # the FFT analysis path
        n = D.n
        k = min(k, n + 1)
    else:
        atoms = _draw(rng, (d, n), complex_field)
        atoms = atoms / np.linalg.norm(atoms, axis=0)
        if atoms_kind == "duplicated" and n >= 3:
            atoms[:, n - 1] = atoms[:, 0]
            atoms[:, n - 2] = -atoms[:, 1]
        elif atoms_kind == "contracted":
            atoms = atoms / np.linalg.norm(atoms, 2)
        D = Dictionary(atoms)
    if signal == "zero":
        z = np.zeros(d, dtype=D.matrix.dtype)
    elif signal == "2-sparse":
        cols = rng.choice(n, size=min(2, n), replace=False)
        z = D.matrix[:, cols] @ _draw(rng, cols.size, complex_field)
    else:
        z = _draw(rng, d, complex_field)
    return D, z, k, max_iters


def _run(select, D, z, k, max_iters):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        support = select(D, z, k, max_iters)
    return support, [(w.category, str(w.message)) for w in caught]


# ---------------------------------------------------------------------------
# tests


@pytest.mark.parametrize("block", range(BLOCKS))
def test_iht_rep_matches_reference(block):
    for index in range(block * PER_BLOCK, (block + 1) * PER_BLOCK):
        D, z, k, max_iters = make_case(index)
        support, caught = _run(iht_rep_select, D, z, k, max_iters)
        ref_support, ref_caught = _run(ref_iht_rep_select, D, z, k, max_iters)
        assert support == ref_support, index
        assert caught == ref_caught, index


def test_the_instances_cover_the_stated_range():
    cases = [make_case(index) for index in range(BLOCKS * PER_BLOCK)]
    assert {D.matrix.dtype.kind for D, *_ in cases} == {"f", "c"}
    assert {D.d for D, *_ in cases} == set(range(2, 12))
    assert all(D.d <= D.n <= 19 for D, *_ in cases)
    assert all(1 <= k <= D.n + 1 for D, _, k, _ in cases)
    assert any(k == D.n + 1 for D, _, k, _ in cases)
    assert any(max_iters == 1 for *_, max_iters in cases)
    assert any(not z.any() for _, z, _, _ in cases)
    assert any(D._fft for D, *_ in cases)
