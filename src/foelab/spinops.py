"""Exact spin operators on tensor-product spaces.

Everything is real: transverse couplings are always written through the
ladder operators S+ and S-, so no matrix in the package is ever complex.
The tensor index is mixed-radix with site 0 slowest (leftmost Kronecker
factor), a bit-exact basis convention for all cross-module checks: state
(m_0, ..., m_{L-1}), digit m_x < d_x, sits at sum_x m_x stride_x with
stride_x = d_{x+1} ... d_{L-1}.

A ``LocalHamiltonian`` keeps its local terms (sites, local matrix),
checked once when it is made, and ``_local_sum``, the one assembler of
spin operators, assembles a sum of terms between sorted sets of product
indices: the whole space, one S^3 block, or (for S^+) one block to the
next.  A nonzero (a, b) <- (c, d) of a matrix on sites x, y moves column
j to j + (a - c) stride_x + (b - d) stride_y, and the row is that
image's rank among the targets (on the whole space the image itself);
images outside the targets are left out.  Diagonals are summed into one
vector in term order, which rounds like adding the embedded terms one
after another, so a block is bit for bit the slice of the full matrix;
off-diagonal entries of one-site and S^3-conserving two-site terms change
every digit they act on, so terms on different sites never share a
position.  Exact zeros are dropped.  ``_s3_block`` enumerates one S^3
block; ``HilbertShape.total_m`` scans every state, for shapes of one term.

``spin_matrices`` and ``heisenberg_bond`` are cached per spin and return
read-only arrays.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError

__all__ = [
    "HalfInt",
    "LocalSpinOps",
    "HilbertShape",
    "LocalHamiltonian",
    "spin_matrices",
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


@dataclass(frozen=True, eq=False)
class LocalHamiltonian:
    """Sum of local terms (sites, local matrix) on a tensor-product space;
    ``matrix``, its CSR on the whole product basis, is assembled on first
    read and kept (the sector routes assemble S^3 blocks from ``terms``)."""

    shape: HilbertShape
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            _checked_term(self.shape, sites, local) for sites, local in self.terms))

    @functools.cached_property
    def matrix(self):
        return _local_sum(self.shape, self.terms)

    @property
    def dim(self):
        return self.shape.dim

    def dense(self):
        return self.matrix.toarray()


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


def _checked_term(shape, sites, local):
    """(sites, local) as a tuple and a float array, or ValueError unless the
    sites are distinct sites of ``shape`` and ``local`` acts on them."""
    sites = tuple(sites)
    if len(set(sites)) != len(sites) or not set(sites) <= set(range(shape.nsites)):
        raise ValueError(f"sites {sites} are not distinct sites of {shape}")
    local = np.asarray(local, dtype=float)
    d = int(np.prod([shape.local_dims[x] for x in sites], dtype=np.int64))
    if local.shape != (d, d):
        raise ValueError(f"local matrix is {local.shape}, sites {sites} have dimension {d}")
    return sites, local


def _local_sum(shape, terms, states=None, targets=None):
    """CSR sum over ``terms`` of (sites, local matrix), identity elsewhere,
    from the sorted product indices ``states`` (column i: the i-th) to
    ``targets`` (row i: the i-th; default ``states``), all states by
    default.  An image outside ``targets`` is left out, and only a square
    sum (no ``targets``) has diagonal entries.  ``local`` acts on the
    tensor product of ``sites`` (distinct, in ``np.kron`` order), as
    ``LocalHamiltonian`` checks; the terms are not checked again here.
    """
    dims = shape.local_dims
    strides = np.cumprod((1,) + dims[:0:-1])[::-1]
    src = np.arange(shape.dim) if states is None else np.asarray(states)
    diag = np.zeros(src.size)
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for sites, local in terms:
        # c: each source's local state on these sites; offsets[a]: the index
        # of local state a with every other digit 0
        c, offsets = 0, np.zeros(1, dtype=np.int64)
        for x in sites:
            c = c * dims[x] + src // strides[x] % dims[x]
            offsets = (offsets[:, None] + strides[x] * np.arange(dims[x])).ravel()
        diag += np.diagonal(local)[c]
        # the off-diagonal nonzeros (a, b), ordered by column b: source i
        # emits the count[i] of column c_i, from number first[i] on
        b, a = np.nonzero((local - np.diag(np.diagonal(local))).T)
        count = np.bincount(b, minlength=offsets.size)[c]
        first = np.searchsorted(b, np.arange(offsets.size))[c]
        source = np.repeat(np.arange(src.size), count)
        entry = np.arange(source.size) + np.repeat(first - np.cumsum(count) + count, count)
        rows.append(src[source] + (offsets[a] - offsets[b])[entry])
        cols.append(source)
        vals.append(local[a, b][entry])
    image, cols, vals = np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)
    if states is None and targets is None:
        rows = image  # on the full space an index is its own rank
    else:
        tgt = src if targets is None else np.asarray(targets)
        rows = np.searchsorted(tgt, image)
        found = rows < tgt.size
        found[found] = tgt[rows[found]] == image[found]
        rows, cols, vals = rows[found], cols[found], vals[found]
    if targets is None:
        nonzero = np.flatnonzero(diag)
        rows, cols = np.concatenate((rows, nonzero)), np.concatenate((cols, nonzero))
        vals = np.concatenate((vals, diag[nonzero]))
    return sp.csr_matrix((vals, (rows, cols)),
                         shape=(src.size if targets is None else len(targets), src.size))


def _s3_block(shape, M):
    """Sorted product indices of the S^3 = M block, the states whose digits
    (m_x = s_x - digit_x) sum to S_max - M, with no product-space array:
    from the last site up each prefix c extends to c + digit stride_x, still
    increasing, and a prefix that can no longer reach that sum is dropped,
    so at most max d_x times the block size live at once.  NumericalError
    when the product indices pass int64."""
    if shape.dim > np.iinfo(np.int64).max:
        raise NumericalError(f"the {shape.dim} product states pass int64 indices")
    top = shape.s_max.twice  # the largest digit sum
    target, odd = divmod(top - M.twice, 2)
    if odd or not 0 <= target <= top:
        return np.zeros(0, dtype=np.int64)
    # a kept sum is at most top, so a prefix plus one digit is at most 2 top
    c, k = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.min_scalar_type(2 * top))
    left, stride = top, 1  # left: the largest digit sum of the sites still to place
    for d in reversed(shape.local_dims):
        left -= d - 1
        c = (stride * np.arange(d)[:, None] + c).ravel()
        k = (np.arange(d, dtype=k.dtype)[:, None] + k).ravel()
        keep = (k <= target) & (k >= target - left)
        c, k, stride = c[keep], k[keep], stride * d
    return c


@functools.lru_cache(maxsize=64)
def heisenberg_bond(s1, s2):
    """S.S on two sites, built as sz*sz + (s+ s- + s- s+)/2 (cached, read-only)."""
    a, b = spin_matrices(s1), spin_matrices(s2)
    m = (
        np.kron(a.sz, b.sz)
        + 0.5 * np.kron(a.splus, b.sminus)
        + 0.5 * np.kron(a.sminus, b.splus)
    )
    m.flags.writeable = False
    return m
