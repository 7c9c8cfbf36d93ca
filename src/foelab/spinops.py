"""Exact spin operators on tensor-product spaces.

Everything is real: transverse couplings are always written through the
ladder operators S+ and S-, so no matrix in the package is ever complex.
The tensor index is mixed-radix with site 0 slowest (leftmost Kronecker
factor), a bit-exact basis convention for all cross-module checks: state
(m_0, ..., m_{L-1}), digit m_x < d_x, sits at sum_x m_x stride_x with
stride_x = d_{x+1} ... d_{L-1}.  Every tensor-product operator comes from
``_local_sum``: a nonzero (a, b) <- (c, d) of a matrix on sites x, y moves
column j to row j + (a - c) stride_x + (b - d) stride_y, so all terms are
emitted as COO triples and compressed to CSR once.  Diagonals are summed
into one vector in term order, which rounds exactly like adding the
embedded terms one after another; off-diagonal entries of one-site and
S^3-conserving two-site terms change every digit they act on, so terms on
different sites never share a position.  Exact zeros are dropped.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .linalg import max_abs, max_asymmetry, to_dense

__all__ = [
    "HalfInt",
    "LocalSpinOps",
    "RealOperator",
    "HilbertShape",
    "TotalSpinOps",
    "spin_matrices",
    "embed_site",
    "embed_product",
    "total_spin_ops",
    "casimir",
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

    def is_integer(self):
        return self.twice % 2 == 0

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
    """Real matrix on a fixed basis; dense ndarray or scipy sparse.

    ``symmetric`` is detected at construction time (raising/lowering totals
    are legitimately non-symmetric, Hamiltonians must come out symmetric).
    """

    __slots__ = ("matrix", "basis_tag", "symmetric")

    def __init__(self, matrix, basis_tag="tensor-product"):
        if sp.issparse(matrix):
            matrix = matrix.tocsr()
        else:
            matrix = np.asarray(matrix, dtype=float)
            if matrix.ndim != 2:
                raise ValueError("expected a 2-d matrix")
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator must be square")
        self.matrix = matrix
        self.basis_tag = basis_tag
        scale = 1.0 if self.dim == 0 else max(1.0, max_abs(matrix))
        self.symmetric = max_asymmetry(matrix) <= 1e-12 * scale

    @property
    def dim(self):
        return self.matrix.shape[0]

    def dense(self):
        return to_dense(self.matrix)

    def sub(self, idx):
        """Dense submatrix on the given basis indices."""
        idx = np.asarray(idx, dtype=int)
        if sp.issparse(self.matrix):
            return self.matrix[idx][:, idx].toarray()
        return self.matrix[np.ix_(idx, idx)]

    def __repr__(self):
        kind = "sparse" if sp.issparse(self.matrix) else "dense"
        return f"RealOperator(dim={self.dim}, {kind}, basis={self.basis_tag!r})"


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


def spin_matrices(s):
    """Standard spin-s matrices sz, s+, s- via the ladder-operator formula."""
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
    return LocalSpinOps(s=s, sz=sz, splus=splus, sminus=splus.T.copy())


def embed_site(shape, site, local):
    """Embed a one-site matrix into the full space (identity elsewhere)."""
    return RealOperator(_local_sum(shape, [((site,), local)]))


def embed_product(shape, locals_by_site):
    """Sparse Kronecker product with given one-site factors, identity elsewhere."""
    local = np.ones((1, 1))
    for site in sorted(locals_by_site):
        local = np.kron(local, np.asarray(locals_by_site[site], dtype=float))
    return _local_sum(shape, [(sorted(locals_by_site), local)])


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
    s3tot: RealOperator
    sptot: RealOperator
    smtot: RealOperator


def total_spin_ops(shape):
    """Total S^3, S^+, S^- as sums of one-site operators."""
    s3 = sp.diags(shape.total_m(), format="csr")
    s3.eliminate_zeros()
    splus = _local_sum(shape, [((x,), spin_matrices(s).splus)
                               for x, s in enumerate(shape.spins)])
    return TotalSpinOps(
        s3tot=RealOperator(s3),
        sptot=RealOperator(splus),
        smtot=RealOperator(splus.T.tocsr()),
    )


def casimir(shape):
    """Total-spin Casimir S3^2 + (S+S- + S-S+)/2; eigenvalues S(S+1)."""
    tot = total_spin_ops(shape)
    s3, spl, smn = tot.s3tot.matrix, tot.sptot.matrix, tot.smtot.matrix
    c = s3 @ s3 + (spl @ smn + smn @ spl) * 0.5
    return RealOperator(c)


def heisenberg_bond(s1, s2):
    """S.S on two sites, built as sz*sz + (s+ s- + s- s+)/2."""
    a, b = spin_matrices(s1), spin_matrices(s2)
    m = (
        np.kron(a.sz, b.sz)
        + 0.5 * np.kron(a.splus, b.sminus)
        + 0.5 * np.kron(a.sminus, b.splus)
    )
    return RealOperator(m, basis_tag="two-site tensor")
