"""Exact spin operators on tensor-product spaces.

Everything is real: transverse couplings are always written through the
ladder operators S+ and S-, so no matrix in the package is ever complex.
Site 0 varies slowest in the tensor index (leftmost Kronecker factor),
which fixes a bit-exact basis convention for all cross-module checks.
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

    def m_values(self, site):
        """S^3 eigenvalues of one site in basis order (m = s down to -s)."""
        t = self.spins[site].twice
        return np.arange(t, -t - 1, -2) / 2.0

    def total_m(self):
        """Total S^3 eigenvalue of every product-basis state, in index order."""
        m = np.zeros(1)
        for site in range(self.nsites):
            m = (m[:, None] + self.m_values(site)[None, :]).ravel()
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
    local = np.asarray(local, dtype=float)
    dims = shape.local_dims
    if not 0 <= site < shape.nsites:
        raise ValueError(f"site {site} out of range")
    if local.shape != (dims[site], dims[site]):
        raise ValueError(
            f"local matrix is {local.shape}, site {site} has dimension {dims[site]}"
        )
    return RealOperator(embed_product(shape, {site: local}))


def embed_product(shape, locals_by_site):
    """Sparse Kronecker product with given one-site factors, identity elsewhere.

    Each run of identity sites enters as one identity of the run's dimension.
    """
    factors = []
    run = 1
    for site, d in enumerate(shape.local_dims):
        factor = locals_by_site.get(site)
        if factor is None:
            run *= d
            continue
        if run > 1:
            factors.append(sp.identity(run, format="csr"))
            run = 1
        factors.append(sp.csr_matrix(factor))
    if run > 1 or not factors:
        factors.append(sp.identity(run, format="csr"))
    out = factors[0]
    for factor in factors[1:]:
        out = sp.kron(out, factor, format="csr")
    return out


@dataclass(frozen=True)
class TotalSpinOps:
    s3tot: RealOperator
    sptot: RealOperator
    smtot: RealOperator


def total_spin_ops(shape):
    """Total S^3, S^+, S^- as sums of embedded one-site operators."""
    dim = shape.dim
    s3 = sp.csr_matrix((dim, dim))
    splus = sp.csr_matrix((dim, dim))
    for site in range(shape.nsites):
        ops = spin_matrices(shape.spins[site])
        s3 = s3 + embed_product(shape, {site: ops.sz})
        splus = splus + embed_product(shape, {site: ops.splus})
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
