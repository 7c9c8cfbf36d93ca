"""Exact spin operators on tensor-product spaces.

Everything is real: transverse couplings are always written through the
ladder operators S+ and S-, so no matrix in the package is ever complex.
The tensor index is mixed-radix with site 0 slowest (leftmost Kronecker
factor), a bit-exact basis convention for all cross-module checks: state
(m_0, ..., m_{L-1}), digit m_x < d_x, sits at sum_x m_x stride_x with
stride_x = d_{x+1} ... d_{L-1}.  Every Hamiltonian comes from
``_local_sum``: a nonzero (a, b) <- (c, d) of a matrix on sites x, y moves
column j to row j + (a - c) stride_x + (b - d) stride_y, so all terms are
emitted as COO triples and compressed to CSR once.  Diagonals are summed
into one vector in term order, which rounds exactly like adding the
embedded terms one after another; off-diagonal entries of one-site and
S^3-conserving two-site terms change every digit they act on, so terms on
different sites never share a position.  Exact zeros are dropped.

The total-spin operators are S^+ (``total_spin_ops``, read from the
digits of the product index; S^- is its transpose) and S^3, which is
diagonal and read from ``HilbertShape.total_m`` without a matrix.
``spin_matrices`` and the ``heisenberg_bond`` matrix are cached per spin,
as read-only arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import to_dense

__all__ = [
    "HalfInt",
    "LocalSpinOps",
    "RealOperator",
    "HilbertShape",
    "TotalSpinOps",
    "spin_matrices",
    "total_spin_ops",
    "heisenberg_bond",
]


@functools.total_ordering
class HalfInt:
    """Exact half-integer (spin magnitudes and total-spin labels).

    Stored as twice the value, so arithmetic and comparisons are exact.
    """

    __slots__ = ("twice",)

    def __init__(self, twice):
        if not isinstance(twice, (int, np.integer)):
            raise TypeError("twice must be an integer (twice the value)")
        self.twice = int(twice)

    @classmethod
    def coerce(cls, x):
        """Accept a HalfInt, an integer, or a float equal to n/2."""
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, (int, np.integer)):
            return cls(2 * int(x))
        t = 2.0 * float(x)
        if abs(t - round(t)) > 1e-9:
            raise ValueError(f"{x!r} is not a half-integer")
        return cls(int(round(t)))

    @property
    def value(self):
        return self.twice / 2.0

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __eq__(self, other):
        try:
            return self.twice == HalfInt.coerce(other).twice
        except (TypeError, ValueError):
            return NotImplemented

    def __lt__(self, other):
        return self.twice < HalfInt.coerce(other).twice

    def __hash__(self):
        return hash(("HalfInt", self.twice))

    def __repr__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@dataclass(frozen=True)
class LocalSpinOps:
    """sz, s+ and s- for a single spin-s site, ordered m = s, s-1, ..., -s."""

    s: HalfInt
    sz: np.ndarray
    splus: np.ndarray
    sminus: np.ndarray


class RealOperator:
    """Real matrix on a fixed basis; dense ndarray or scipy sparse."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        if sp.issparse(matrix):
            matrix = matrix.tocsr()
        else:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2:
                raise ValueError("expected a 2-d matrix")
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator must be square")
        self.matrix = matrix

    @property
    def dim(self):
        return self.matrix.shape[0]

    def dense(self):
        return to_dense(self.matrix)

    def __repr__(self):
        kind = "sparse" if sp.issparse(self.matrix) else "dense"
        return f"RealOperator(dim={self.dim}, {kind})"


class HilbertShape:
    """Tensor-product space of spins: one factor of dimension 2s+1 per site."""

    __slots__ = ("spins",)

    def __init__(self, spins):
        self.spins = tuple(HalfInt.coerce(s) for s in spins)
        if any(s.twice < 0 for s in self.spins):
            raise ValueError("spin magnitudes must be >= 0")

    @property
    def local_dims(self):
        return tuple(s.twice + 1 for s in self.spins)

    @property
    def nsites(self):
        return len(self.spins)

    @property
    def dim(self):
        d = 1
        for ld in self.local_dims:
            d *= ld
        return d

    @property
    def s_max(self):
        return HalfInt(sum(s.twice for s in self.spins))

    def total_m(self):
        """Total S^3 eigenvalue of every product-basis state, in index order."""
        m = np.zeros(1)
        for s in self.spins:  # one site's m = s down to -s
            m = (m[:, None] + np.arange(s.twice, -s.twice - 1, -2) / 2.0).ravel()
        return m

    def __repr__(self):
        return f"HilbertShape({list(self.spins)!r})"


@functools.lru_cache(maxsize=64)
def spin_matrices(s):
    """Standard spin-s matrices sz, s+, s- via the ladder-operator formula.

    Cached per spin; the arrays are read-only, so no caller can change
    the cached copy.
    """
    s = HalfInt.coerce(s)
    if s.twice < 0:
        raise ValueError("spin must be >= 0")
    d = s.twice + 1
    sval = s.value
    sz = np.diag(np.arange(s.twice, -s.twice - 1, -2) / 2.0)
    splus = np.zeros((d, d))
    for i in range(d - 1):
        m = sval - i - 1  # <m+1| S+ |m>
        splus[i, i + 1] = np.sqrt(sval * (sval + 1) - m * (m + 1))
    ops = LocalSpinOps(s=s, sz=sz, splus=splus, sminus=splus.T.copy())
    for a in (ops.sz, ops.splus, ops.sminus):
        a.flags.writeable = False
    return ops


def _local_sum(shape, terms):
    """CSR sum over ``terms`` of (sites, local matrix), identity elsewhere.

    ``local`` acts on the tensor product of ``sites`` (distinct, in the
    index order of ``np.kron`` over them); see the module docstring.
    """
    grid = np.arange(shape.dim).reshape(shape.local_dims)  # C order: site 0 slowest
    diag = np.zeros(shape.dim)
    rows, cols, vals = [], [], []
    for sites, local in terms:
        sites = tuple(sites)
        if len(set(sites)) != len(sites) or not set(sites) <= set(range(grid.ndim)):
            raise ValueError(f"sites {sites} are not distinct sites of {shape}")
        # offsets[a]: index of local state a with every other digit 0;
        # bases: the indices whose digits on these sites are all 0
        on = tuple(slice(None) if x in sites else 0 for x in range(grid.ndim))
        offsets = grid[on].transpose(np.argsort(np.argsort(sites))).ravel()
        bases = grid[tuple(0 if x in sites else slice(None) for x in range(grid.ndim))].ravel()
        local = np.asarray(local, dtype=float)
        if local.shape != (offsets.size,) * 2:
            raise ValueError(f"local matrix is {local.shape}, sites {sites} "
                             f"have dimension {offsets.size}")
        diag[offsets[:, None] + bases] += np.diagonal(local)[:, None]
        r, c = np.nonzero(local - np.diag(np.diagonal(local)))
        rows.append((offsets[r, None] + bases).ravel())
        cols.append((offsets[c, None] + bases).ravel())
        vals.append(np.repeat(local[r, c], bases.size))
    nonzero = np.flatnonzero(diag)
    data = np.concatenate(vals + [diag[nonzero]])
    ij = (np.concatenate(rows + [nonzero]), np.concatenate(cols + [nonzero]))
    return sp.csr_matrix((data, ij), shape=(shape.dim, shape.dim))


@dataclass(frozen=True)
class TotalSpinOps:
    sptot: RealOperator


def total_spin_ops(shape):
    """Total S^+ = sum_x S^+_x, read from the digits of the product index.
    S^- is its transpose and S^3 is diagonal, read from
    ``HilbertShape.total_m``.

    Row r has one entry per site x whose digit a_x is below 2 s_x (digit 0
    is m = s): column r + stride_x, value ``spin_matrices(s_x).splus``
    [a_x, a_x + 1].  Sites are visited from the last
    (stride 1) to the first, so every row's columns come out ascending and
    the CSR arrays are those of the ``_local_sum`` build, with no COO pass.
    """
    dims = shape.local_dims
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    index = np.arange(shape.dim)
    digits = [index // stride % d for stride, d in zip(strides, dims)]
    raisable = [digit < d - 1 for digit, d in zip(digits, dims)]
    indptr = np.zeros(shape.dim + 1, dtype=np.int64)
    np.cumsum(sum(raisable, np.zeros(shape.dim, dtype=np.int64)), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    data = np.empty(indptr[-1])
    filled = indptr[:-1].copy()
    for x in reversed(range(shape.nsites)):
        rows = np.flatnonzero(raisable[x])
        pos = filled[rows]
        indices[pos] = rows + strides[x]
        data[pos] = np.diagonal(spin_matrices(shape.spins[x]).splus, 1)[digits[x][rows]]
        filled[rows] += 1
    return TotalSpinOps(sptot=RealOperator(
        sp.csr_matrix((data, indices, indptr), shape=(shape.dim, shape.dim))))


def heisenberg_bond(s1, s2):
    """S.S on two sites, built as sz*sz + (s+ s- + s- s+)/2 (cached, read-only)."""
    return RealOperator(_bond_matrix(HalfInt.coerce(s1), HalfInt.coerce(s2)))


@functools.lru_cache(maxsize=64)
def _bond_matrix(s1, s2):
    a, b = spin_matrices(s1), spin_matrices(s2)
    m = (
        np.kron(a.sz, b.sz)
        + 0.5 * np.kron(a.splus, b.sminus)
        + 0.5 * np.kron(a.sminus, b.splus)
    )
    m.flags.writeable = False
    return m
