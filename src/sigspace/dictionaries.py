"""Dictionaries, measurement operators, and their on-disk container format.

Randomness contract: every generator in the package is a PCG64 seeded through a
``numpy.random.SeedSequence`` whose entropy is a list of nonnegative integers
``[base_seed, salt, index...]``, and only numpy's public seeding is used. A
Gaussian measurement matrix is one (m, d) standard normal block from one such
generator, so it depends on its seed alone, never on how the work is
scheduled. Every Gaussian array is a standard normal draw of its shape; a
complex one takes the real parts first, then the imaginary parts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .linalg import _adjoint_apply

# Salts for derived seed streams. Fixed for the life of the file format.
SALT_SIGNAL = 1
SALT_MEASUREMENT = 2
SALT_NOISE = 3
SALT_ESTIMATOR = 4

_DICT_KINDS = ("custom", "identity", "unitary", "dft")


def seed_sequence(*parts: int) -> np.random.SeedSequence:
    """SeedSequence over an explicit entropy list of nonnegative ints."""
    ints = [int(p) for p in parts]
    if any(p < 0 for p in ints):
        raise ValueError("seed material must be nonnegative")
    return np.random.SeedSequence(ints)


def rng_from(*parts: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed_sequence(*parts)))


def _as_seed_sequence(seed: int | np.random.SeedSequence, salt: int) -> np.random.SeedSequence:
    """seed itself, or the int seed's stream seed_sequence(seed, salt)."""
    return seed if isinstance(seed, np.random.SeedSequence) else seed_sequence(seed, salt)


def _gaussian(
    rng: np.random.Generator, size: int | tuple[int, int], complex_field: bool
) -> np.ndarray:
    """A standard normal array: standard_normal(size), or for a complex field
    the real parts drawn first, then the imaginary parts."""
    if not complex_field:
        return rng.standard_normal(size)
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


class _NeighborTable(tuple):
    """A neighbor table (one index array per atom) and its closure size zeta,
    the largest set, decided once when the table is built.

    An atom's correlation with itself is 1 up to rounding, above every
    threshold, so each set holds its own atom and zeta = 1 means that every
    closure is the atom alone.
    """

    def __new__(cls, sets):
        table = super().__new__(cls, sets)
        table.zeta = max(map(len, table), default=0)
        return table


@dataclass(eq=False)
class Dictionary:
    """A d x n synthesis operator whose columns are atoms.

    kind is a coarse tag used by the container format and the CLI; it carries
    no behavior beyond bookkeeping. Correlation-derived structures (used by the
    extension schemes) and the support bases of the exhaustive certificates
    and the brute-force oracle are cached per instance, so the matrix must not
    change after construction.

    The analysis operator D^H r runs by FFT when the matrix is exactly
    overcomplete_dft(d, redundancy): that function marks its instance, and
    load_dictionary marks a container whose payload equals it bit for bit. Any
    other matrix, whatever its kind tag, takes the dense product.

    The greedy schemes re-fit from the Gram columns D^H d_i of their picks
    (Batch-OMP). A dense dictionary caches each Gram column as it is first
    computed and keeps it: at most n columns, the whole n x n Gram matrix
    (n^2 entries, 8 MiB for a real n = 1024), each computed once. The
    overcomplete DFT's Gram matrix is circulant, so it keeps one row,
    written twice, and every Gram column is a view into it. The Gram columns
    of measured atoms M d_i depend on M and are never cached here.

    Every dictionary stores its matrix column-major (Fortran order), the
    layout in which overcomplete_dft builds and load_container returns every
    payload, so each atom is contiguous and a support gather D[:, T] reads
    whole columns. A column-major input is kept as it is, without a copy; a
    row-major or strided one is copied once, so matrix then no longer shares
    memory with the caller's array.
    """

    matrix: np.ndarray
    kind: str = "custom"
    redundancy: int = 0
    unit_norm: bool = False
    _neighbor_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _support_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _gram_cache: dict = field(default_factory=dict, repr=False, compare=False)
    _fft: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix)
        if self.matrix.ndim != 2:
            raise ValueError("dictionary matrix must be 2-D")
        self.matrix = np.asfortranarray(self.matrix)
        if not np.isfinite(self.matrix).all():
            raise ValueError("dictionary matrix must be finite")
        if self.kind not in _DICT_KINDS:
            raise ValueError(f"unknown dictionary kind {self.kind!r}")

    @property
    def d(self) -> int:
        return self.matrix.shape[0]

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def field_tag(self) -> str:
        return "complex" if np.iscomplexobj(self.matrix) else "real"

    def atom(self, i: int) -> np.ndarray:
        return self.matrix[:, i]

    def atom_norms(self) -> np.ndarray:
        return np.linalg.norm(self.matrix, axis=0)

    def analysis(self, r: np.ndarray) -> np.ndarray:
        """D^H r: the inner product of every atom with r.

        For the overcomplete DFT this is the length-n zero-padded FFT of r
        over sqrt(d), O(n log n) instead of O(n d).
        """
        if not self._fft:
            return _adjoint_apply(self.matrix, r)
        if r.shape != (self.d,):
            raise ValueError("signal length must match the dictionary dimension")
        return np.fft.fft(r, self.n) / math.sqrt(self.d)

    def gram_column(self, i: int) -> np.ndarray:
        """D^H d_i, read-only, computed by analysis on first use and kept.

        i indexes like matrix[:, i]: -n <= i < n, a negative i counting from
        the end (and sharing the cache entry of i + n), and any other i
        raises IndexError. <d_j, d_i> of the overcomplete DFT depends only on
        (j - i) mod n, so its only cached entry is the doubled row
        [g_0 | g_0], g_0 = D^H d_0, and column i (g_0 rolled by i) is the
        view of its n entries from n - i on.
        """
        n = self.n
        if not -n <= i < n:
            raise IndexError(f"index {i} is out of bounds for axis 1 with size {n}")
        if i < 0:
            i += n  # one cache entry per column
        if not self._fft:
            g = self._gram_cache.get(i)
            if g is None:
                g = self.analysis(self.matrix[:, i])
                g.flags.writeable = False
                self._gram_cache[i] = g
            return g
        row = self._gram_cache.get(0)
        if row is None:
            g0 = self.analysis(self.matrix[:, 0])
            row = np.concatenate((g0, g0))
            row.flags.writeable = False
            self._gram_cache[0] = row
        return row[n - i:2 * n - i]

    def correlation_rows(self, indices: np.ndarray) -> np.ndarray:
        """|<d_i, d_j>| / (||d_i|| ||d_j||) for j in indices, all i; shape (len(indices), n)."""
        norms = self.atom_norms()
        if np.any(norms == 0):
            raise ValueError("dictionary contains a zero atom")
        block = self.matrix[:, indices]
        rows = np.abs(block.conj().T @ self.matrix)
        rows /= norms[indices][:, None]
        rows /= norms[None, :]
        return rows

    def neighbor_table(self, eps: float) -> tuple[np.ndarray, ...]:
        """Per-atom extension sets: sorted j with correlation(i, j) >= 1 - max(eps^2, 1e-12).

        The 1e-12 slack makes eps = 0 capture exactly collinear (e.g. repeated)
        atoms despite floating-point rounding in the Gram products. The
        overcomplete DFT's correlations depend only on (j - i) mod n, so its
        table comes from one correlation row: row i is row 0 shifted by i.
        The table is built once per eps and carries its largest set size as
        .zeta (see _NeighborTable).
        """
        if not 0.0 <= eps < 1.0:
            raise ValueError("eps must lie in [0, 1)")
        key = float(eps)
        table = self._neighbor_cache.get(key)
        if table is not None:
            return table
        threshold = 1.0 - max(eps * eps, 1e-12)
        if self._fft:
            hits = np.flatnonzero(self.correlation_rows(np.arange(1))[0] >= threshold)
            table = _NeighborTable(np.sort((np.arange(self.n)[:, None] + hits) % self.n, axis=1))
        else:
            sets = []
            block = 512
            for start in range(0, self.n, block):
                idx = np.arange(start, min(start + block, self.n))
                rows = self.correlation_rows(idx)
                for r in range(rows.shape[0]):
                    hits = np.flatnonzero(rows[r] >= threshold)
                    sets.append(hits.astype(np.intp))
            table = _NeighborTable(sets)
        self._neighbor_cache[key] = table
        return table


@dataclass(eq=False)
class MeasurementModel:
    """An m x d measurement operator."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix)
        if self.matrix.ndim != 2:
            raise ValueError("measurement matrix must be 2-D")

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


def overcomplete_dft(d: int, redundancy: int) -> Dictionary:
    """Redundant DFT dictionary: atom j has entries exp(2*pi*i*t*j/n)/sqrt(d).

    n = d * redundancy. Atoms are unit norm by the 1/sqrt(d) scale; adjacent
    atoms of the 4x version correlate at about 0.9003, which is what makes the
    clustered experiments hard for plain greedy selection. The matrix is
    column-major (Fortran order), so every atom is contiguous in memory.
    """
    if d < 1 or redundancy < 1:
        raise ValueError("d and redundancy must be positive")
    n = d * redundancy
    D = Dictionary(_dft_rows(d, n, 0, n).T, kind="dft", redundancy=redundancy, unit_norm=True)
    D._fft = True
    return D


def _dft_rows(d: int, n: int, start: int, stop: int) -> np.ndarray:
    """Atoms start..stop-1 of overcomplete_dft(d, n // d), as the rows of a
    C-order array computed in place: entry (j, t) gets the bits of
    exp(2 pi i t j / n) / sqrt(d). Every entry is computed on its own, so a
    block of rows has the bytes of the same rows of the whole array, and the
    .T of the whole array is the column-major matrix."""
    atoms = (2j * np.pi / n) * (np.arange(start, stop)[:, None] * np.arange(d))
    np.exp(atoms, out=atoms)
    atoms /= np.sqrt(d)
    return atoms


def identity_dictionary(d: int) -> Dictionary:
    return Dictionary(np.eye(d), kind="identity", redundancy=1, unit_norm=True)


def random_orthogonal_dictionary(d: int, seed: int) -> Dictionary:
    """Seeded Haar-ish orthogonal dictionary via QR of a Gaussian matrix."""
    rng = rng_from(seed)
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    Q = Q * np.sign(np.diag(R))  # fix the QR sign ambiguity for reproducibility
    return Dictionary(Q, kind="unitary", redundancy=1, unit_norm=True)


def gaussian_measurements(
    m: int,
    d: int,
    seed: int | np.random.SeedSequence,
    field_tag: str = "real",
) -> MeasurementModel:
    """i.i.d. Gaussian measurement operator with E|entry|^2 = 1/m.

    field_tag "real" draws N(0, 1/m) entries; "complex" draws circular complex
    Gaussians of the same second moment. M is one row-major (m, d) block
    (_gaussian: for a complex field the real block first, then the imaginary
    block) drawn by one PCG64 seeded by the seed's sequence, so it depends on
    the seed alone. A SeedSequence seed is read, not advanced.
    """
    if m < 1 or d < 1:
        raise ValueError("m and d must be positive")
    if field_tag not in ("real", "complex"):
        raise ValueError("field_tag must be 'real' or 'complex'")
    complex_field = field_tag == "complex"
    rng = np.random.Generator(np.random.PCG64(_as_seed_sequence(seed, SALT_MEASUREMENT)))
    mat = _gaussian(rng, (m, d), complex_field)
    mat /= np.sqrt(2 * m if complex_field else m)
    return MeasurementModel(mat)


def coherence(D: Dictionary) -> float:
    """Largest normalized correlation between two distinct atoms."""
    if D.n < 2:
        return 0.0
    best = 0.0
    block = 1024
    for start in range(0, D.n, block):
        idx = np.arange(start, min(start + block, D.n))
        rows = D.correlation_rows(idx)
        rows[np.arange(idx.size), idx] = 0.0
        best = max(best, float(rows.max()))
    return best


def gram_profile(D: Dictionary, i: int) -> np.ndarray:
    """Normalized correlations of atom i with all n-1 others, sorted descending."""
    if not 0 <= i < D.n:
        raise IndexError(f"atom index {i} out of range for n={D.n}")
    row = D.correlation_rows(np.asarray([i]))[0]
    row = np.delete(row, i)
    return np.sort(row)[::-1]


# ---------------------------------------------------------------------------
# Binary container format
#
#   offset size  field
#   0      4     magic b"SGC1"
#   4      2     version (u16 LE) = 1
#   6      1     scalar tag: 0 real, 1 complex
#   7      1     kind tag: 0 custom, 1 identity, 2 unitary, 3 dft
#   8      1     unit-norm flag: 0/1
#   9      1     reserved (0)
#   10     2     reserved (0)
#   12     4     redundancy (u32 LE, 0 when not applicable)
#   16     8     rows (u64 LE)
#   24     8     cols (u64 LE)
#   32     ...   payload: column-major little-endian float64; complex entries
#                interleave (re, im) pairs
# ---------------------------------------------------------------------------

_MAGIC = b"SGC1"
_HEADER = struct.Struct("<4sHBBBBHIQQ")
_KIND_TAGS = {name: tag for tag, name in enumerate(_DICT_KINDS)}
_TAG_KINDS = {tag: name for name, tag in _KIND_TAGS.items()}


@dataclass(frozen=True)
class ContainerMeta:
    field_tag: str
    kind: str
    unit_norm: bool
    redundancy: int
    shape: tuple[int, int]


def save_container(
    path: str | Path,
    array: np.ndarray,
    kind: str = "custom",
    unit_norm: bool = False,
    redundancy: int = 0,
) -> None:
    """Write a 2-D array (vectors as single-column matrices) to the container format."""
    arr = np.asarray(array)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("container payload must be 1-D or 2-D")
    if kind not in _KIND_TAGS:
        raise ValueError(f"unknown kind {kind!r}")
    complex_tag = 1 if np.iscomplexobj(arr) else 0
    payload_dtype = "<c16" if complex_tag else "<f8"
    header = _HEADER.pack(
        _MAGIC,
        1,
        complex_tag,
        _KIND_TAGS[kind],
        1 if unit_norm else 0,
        0,
        0,
        int(redundancy),
        arr.shape[0],
        arr.shape[1],
    )
    payload = np.asarray(arr, dtype=payload_dtype).ravel(order="F").tobytes()
    Path(path).write_bytes(header + payload)


def load_container(path: str | Path) -> tuple[np.ndarray, ContainerMeta]:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated container header")
    magic, version, scalar, kind_tag, unit, _r0, _r1, redundancy, rows, cols = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise ValueError(f"{path}: unsupported container version {version}")
    if scalar not in (0, 1):
        raise ValueError(f"{path}: bad scalar tag {scalar}")
    if kind_tag not in _TAG_KINDS:
        raise ValueError(f"{path}: bad kind tag {kind_tag}")
    dtype = np.dtype("<c16") if scalar else np.dtype("<f8")
    expected = _HEADER.size + rows * cols * dtype.itemsize
    if len(raw) != expected:
        raise ValueError(f"{path}: payload size {len(raw) - _HEADER.size} does not match {rows}x{cols}")
    flat = np.frombuffer(raw, dtype=dtype, offset=_HEADER.size)
    arr = flat.reshape((rows, cols), order="F").astype(dtype.newbyteorder("="), copy=True)
    meta = ContainerMeta(
        field_tag="complex" if scalar else "real",
        kind=_TAG_KINDS[kind_tag],
        unit_norm=bool(unit),
        redundancy=int(redundancy),
        shape=(int(rows), int(cols)),
    )
    return arr, meta


def save_dictionary(path: str | Path, D: Dictionary) -> None:
    save_container(path, D.matrix, kind=D.kind, unit_norm=D.unit_norm, redundancy=D.redundancy)


def load_dictionary(path: str | Path) -> Dictionary:
    """The container's dictionary; a "dft" payload that equals
    overcomplete_dft(d, redundancy) bit for bit gets its FFT operators.

    The payload is compared with the formula block by block (about 4 MiB of
    atoms at a time), so no second DFT matrix is built."""
    arr, meta = load_container(path)
    D = Dictionary(arr, kind=meta.kind, redundancy=meta.redundancy, unit_norm=meta.unit_norm)
    d, n, r = arr.shape[0], arr.shape[1], meta.redundancy
    if meta.kind == "dft" and d >= 1 and r >= 1 and n == d * r:
        rows = max(1, (1 << 18) // d)
        D._fft = all(
            np.array_equal(arr.T[start:start + rows], _dft_rows(d, n, start, min(start + rows, n)))
            for start in range(0, n, rows)
        )
    return D
