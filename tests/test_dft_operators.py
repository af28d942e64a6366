"""The overcomplete DFT's FFT operators against the dense products.

``overcomplete_dft`` runs ``D^H r`` by FFT and builds its eps neighbor table
from one correlation row. A dictionary holding the same matrix
but built by hand (or loaded from a container that is not the exact DFT)
takes the dense product and the row-by-row table, which are the reference
here.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from sigspace import (
    Dictionary,
    SelectionScheme,
    load_dictionary,
    overcomplete_dft,
    rng_from,
    save_container,
    save_dictionary,
    select,
)
from sigspace.dictionaries import _dft_rows
from sigspace.recovery import eps_omp_recover

DIMS = (5, 12, 31, 100, 256)
REDUNDANCIES = tuple(range(1, 9))
GEOMETRIES = [(d, r) for d in DIMS for r in REDUNDANCIES]
EPS_VALUES = (0.0, 0.1, math.sqrt(0.1), 0.5, 0.9, 0.99)
TOL = 1e-12


@functools.lru_cache(maxsize=None)
def pair(d, redundancy):
    """(the FFT dictionary, a dense twin holding the same matrix)."""
    D = overcomplete_dft(d, redundancy)
    return D, Dictionary(D.matrix, kind="dft", redundancy=redundancy, unit_norm=True)


def _draw(seed, shape, complex_field):
    rng = rng_from(seed)
    if complex_field:
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return rng.standard_normal(shape)


def _dense_analysis(D, r):
    return (r.conj() @ D.matrix).conj()


@pytest.mark.parametrize("complex_field", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("d, redundancy", GEOMETRIES)
def test_fft_analysis_matches_the_dense_product(d, redundancy, complex_field):
    D, dense = pair(d, redundancy)
    r = _draw(1000 * d + redundancy, d, complex_field)
    got = D.analysis(r)
    assert got.shape == (D.n,)
    assert np.linalg.norm(got - _dense_analysis(D, r)) <= TOL * np.linalg.norm(r)
    assert np.array_equal(dense.analysis(r), _dense_analysis(D, r))


@pytest.mark.parametrize("complex_field", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("d, redundancy", GEOMETRIES)
def test_fft_measured_dictionary_matches_the_dense_product(d, redundancy, complex_field):
    # the recoveries never build M D: they correlate with it as D^H (M^H r)
    D, dense = pair(d, redundancy)
    M = _draw(2000 * d + redundancy, (7, d), complex_field)
    r = _draw(4000 * d + redundancy, 7, complex_field)
    expected = (M @ D.matrix).conj().T @ r
    for operator in (D, dense):
        got = operator.analysis(M.conj().T @ r)
        assert got.shape == (D.n,)
        assert np.linalg.norm(got - expected) <= TOL * np.linalg.norm(M) * np.linalg.norm(r)


@pytest.mark.parametrize("d, redundancy", GEOMETRIES)
def test_circulant_neighbor_tables_equal_the_dense_tables(d, redundancy):
    D, dense = pair(d, redundancy)
    for eps in EPS_VALUES:
        fast, slow = D.neighbor_table(eps), dense.neighbor_table(eps)
        assert len(fast) == len(slow) == D.n
        for i, (a, b) in enumerate(zip(fast, slow)):
            assert np.array_equal(a, b), (eps, i)


def test_fft_operators_refuse_a_signal_of_the_wrong_length():
    D = overcomplete_dft(12, 3)
    with pytest.raises(ValueError, match="signal length"):
        D.analysis(np.ones(11))


def test_exact_dft_container_loads_with_the_fft_operators(tmp_path):
    d, redundancy = 12, 3
    save_dictionary(tmp_path / "dft.sgc", overcomplete_dft(d, redundancy))
    D = load_dictionary(tmp_path / "dft.sgc")
    r = _draw(3001, d, True)
    assert np.array_equal(D.analysis(r), np.fft.fft(r, d * redundancy) / math.sqrt(d))


def test_perturbed_dft_container_takes_the_dense_branch(tmp_path):
    d, redundancy = 12, 3
    matrix = overcomplete_dft(d, redundancy).matrix.copy()
    matrix[5, 17] += 1e-9
    save_container(tmp_path / "dft.sgc", matrix, kind="dft", unit_norm=True, redundancy=redundancy)
    D = load_dictionary(tmp_path / "dft.sgc")
    assert D.kind == "dft"
    for complex_field in (False, True):
        r = _draw(3002, d, complex_field)
        assert np.array_equal(D.analysis(r), (r.conj() @ D.matrix).conj())


def test_dft_tag_with_the_wrong_redundancy_takes_the_dense_branch(tmp_path):
    d = 8
    matrix = overcomplete_dft(d, 2).matrix
    save_container(tmp_path / "dft.sgc", matrix, kind="dft", unit_norm=True, redundancy=4)
    D = load_dictionary(tmp_path / "dft.sgc")
    r = _draw(3004, d, True)
    assert np.array_equal(D.analysis(r), (r.conj() @ D.matrix).conj())


@pytest.mark.parametrize("d,redundancy", [(64, 3), (256, 4), (1024, 4)])
def test_blockwise_dft_rows_have_the_bytes_of_the_whole_build(d, redundancy):
    n = d * redundancy
    whole = overcomplete_dft(d, redundancy).matrix.T
    for rows in (max(1, (1 << 18) // d), 7, 1000):
        for start in range(0, n, rows):
            block = _dft_rows(d, n, start, min(start + rows, n))
            assert block.tobytes() == whole[start:start + rows].tobytes(), (rows, start)


def test_a_dft_container_is_compared_in_every_block(tmp_path):
    # at d = 512 the loader compares 512 atoms at a time: four blocks
    d, redundancy = 512, 4
    matrix = overcomplete_dft(d, redundancy).matrix
    save_container(tmp_path / "exact.sgc", matrix, kind="dft", unit_norm=True,
                   redundancy=redundancy)
    assert load_dictionary(tmp_path / "exact.sgc")._fft
    for atom in (0, 1535, 1536, d * redundancy - 1):
        perturbed = matrix.copy()
        perturbed[d - 1, atom] += 1e-9
        save_container(tmp_path / "dft.sgc", perturbed, kind="dft", unit_norm=True,
                       redundancy=redundancy)
        assert not load_dictionary(tmp_path / "dft.sgc")._fft, atom


@pytest.mark.parametrize("kind", ("threshold", "omp", "eps-omp", "eps-threshold",
                                  "cosamp-rep", "iht-rep"))
def test_selections_agree_with_the_dense_twin(kind):
    # complex signals: a real z ties |d_j^* z| with |d_{n-j}^* z| exactly, and
    # rounding then decides the tie differently in the two products
    # the representation pursuits may stop at their iteration cap; both
    # paths must then warn alike (iht-rep does on every seed here)
    D, dense = pair(31, 4)
    eps = 0.5 if kind.startswith("eps") else 0.0
    scheme = SelectionScheme(kind, 3, eps=eps)
    for seed in range(10):
        z = _draw(4000 + seed, D.d, True)
        fast, fast_warnings = _select_recording_warnings(scheme, D, z)
        slow, slow_warnings = _select_recording_warnings(scheme, dense, z)
        assert fast == slow, seed
        assert fast_warnings == slow_warnings, seed


def _select_recording_warnings(scheme, D, z):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        support = select(scheme, D, z)
    return support, [(w.category, str(w.message)) for w in caught]


def test_direct_pursuit_agrees_with_the_dense_twin():
    D, dense = pair(31, 4)
    for seed in range(10):
        M = _draw(5000 + seed, (16, D.d), True)
        y = M @ D.matrix[:, [3, 40, 77]] @ np.array([1.0, -0.5j, 0.3])
        x_fast, T_fast = eps_omp_recover(y, M, D, 3, 0.5)
        x_slow, T_slow = eps_omp_recover(y, M, dense, 3, 0.5)
        assert T_fast == T_slow
        assert np.linalg.norm(x_fast - x_slow) <= 1e-10 * np.linalg.norm(x_slow)
