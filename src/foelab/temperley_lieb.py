"""Arc-diagram bases of highest-weight spaces and their Hamiltonian matrices.

For spin-1/2 chains the highest-weight space of weight S = k/2 - n has a
basis labelled by configurations of n arcs on k vertices that are
(i) non-crossing and (ii) never span an unpaired vertex.  Each arc stands
for a two-site singlet (q-deformed: q|+-> - |-+>), each unpaired vertex for
|+>.  The nearest-neighbour projector algebra acts on these diagrams by
local graphical rules, which makes the Hamiltonian matrix combinatorial:
nonpositive off-diagonal entries and a literal submatrix embedding when a
vertex is appended.

Diagrams are ordered by (last paired vertex, arc list); diagrams whose tail
vertices are unpaired therefore come first, in exactly the order of the
shorter chain's basis, which turns the submatrix statement into an index-wise
prefix comparison and lets a shorter chain's matrix be read off a longer
one (``TLMatrix.leading_block``).

A basis is an m x (k+2) partner array (column v holds the partner of vertex
v, 0 if unpaired) in canonical order; at the API a diagram is its sorted arc
tuple ((x1, y1), ...).  The builder keys each diagram by the integer code
(opener bitmask << k) | closer bitmask (int64 up to k = 31, Python ints
beyond), applies each bond generator to all codes at once, ranks the images
by ``searchsorted`` and raises on an image missing from the basis.  The CSR
matrix A satisfies H V = V A, V the expanded basis vectors; the dense
``TLMatrix.A`` is built on first read, and nothing else forms it.

At q = 1 the n-arc matrix of the chain with couplings J has exactly the
spectrum of the normalized spin-1/2 chain sum_x J_x (1 - 4 S_x.S_{x+1}) on
V^(L/2 - n), so ``diagram_sector_energies`` gives every sector of that
chain from matrices of dimension C(L,n) - C(L,n-1): the minimum is the
certified Perron root with its Collatz-Wielandt bracket, the maximum minus
the bottom eigenvalue of the sign-flipped -DAD (``_top_eigenvalue``).
One loop, ``_diagram_sectors``, builds and solves the sectors, largest
basis first; ``qgroup.q_sector_energies`` reads the same loop at q < 1.
``chain_sector_energies`` sends a ChainSpec there when every spin is 1/2,
and every other chain, or one whose certificates are refused there, to
``sectors.sector_energies``.

The higher-spin generalization (the Frenkel-Khovanov dual canonical basis)
is labelled by ordered Ising configurations whose arrows pair completely by
bracket matching.  Each vector is written straight in the chain's product
basis, from its arcs and each site's symmetrizer weights, with no spin-1/2
arrow space; ``fk_hamiltonian_matrix`` assembles H only on the union of
the vectors' supports, from the chain's local terms, and solves H V = V A
by QR.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError, ReducibleMatrixError
from .hamiltonians import ChainSpec, build_normalized_chain
from .linalg import RESIDUAL_TOL, require_memory
from .sectors import SectorEntry, SectorReport, sector_energies, sector_labels
from .spinops import HalfInt, HilbertShape, _local_sum

__all__ = [
    "TLMatrix",
    "enumerate_arc_diagrams",
    "tl_hamiltonian_matrix",
    "check_dominance",
    "DominanceVerdict",
    "perron_ground_vector",
    "PerronResult",
    "diagram_sector_energies",
    "chain_sector_energies",
    "diagram_count",
    "OrderedIsingBlock",
    "FKBasisVector",
    "fk_highest_weight_basis",
    "fk_hamiltonian_matrix",
    "tl_matrix_csv_rows",
    "tl_basis_csv_rows",
]


def diagram_count(k, n):
    """Number of valid diagrams: C(k,n) - C(k,n-1)."""
    return comb(k, n) - (comb(k, n - 1) if n >= 1 else 0)


# tl_hamiltonian_matrix memory estimate: bytes per diagram and vertex (the
# partner array, the walks that build it and each bond's image codes, keys
# and values).  The tracemalloc peak is 0.22-0.85 of it for k = 16-64 and
# 1.5-104 MB; half-filled bases (2n near k) come closest.
TL_BYTES_PER_DIAGRAM_VERTEX = 96


def _diagram_basis(k, n):
    """Partner array of every n-arc diagram on k vertices, canonically ordered.

    A diagram is a left-to-right walk where each vertex opens an arc, closes
    the most recent open arc, or stays unpaired; the no-span rule allows an
    unpaired vertex only at nesting depth zero.  All walks take each vertex
    together, as arrays, and a walk is dropped once its open arcs and the
    arcs it has yet to open no longer fit on the vertices left.  Row i lists
    the partners of diagram i (column v for vertex v, 0 = unpaired; columns
    0 and k+1 are padding).  NumericalError when the memory estimate of
    the basis and its TL matrix passes physical memory.
    """
    k, n = int(k), int(n)
    if n < 0 or 2 * n > k:
        raise ValueError(f"need 0 <= 2n <= k, got k={k}, n={n}")
    m = diagram_count(k, n)
    require_memory(TL_BYTES_PER_DIAGRAM_VERTEX * k * m,
                   f"the basis of {m} diagrams ({n} arcs on {k} vertices)")
    partners = np.zeros((1, k + 2), dtype=np.int64)
    stack = np.zeros((1, n), dtype=np.int64)  # open vertices, innermost at depth - 1
    depth, opened = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    for pos in range(1, k + 1):
        o = np.flatnonzero(opened < n)  # the walks that can open an arc at pos
        o_partners, o_stack = partners[o], stack[o]
        o_stack[np.arange(len(o)), depth[o]] = pos
        o_depth, o_opened = depth[o] + 1, opened[o] + 1
        c = np.flatnonzero(depth > 0)  # the others leave pos unpaired
        top = stack[c, depth[c] - 1]
        partners[c, top], partners[c, pos] = pos, top
        depth[c] -= 1
        partners = np.concatenate((o_partners, partners))
        stack = np.concatenate((o_stack, stack))
        depth, opened = np.concatenate((o_depth, depth)), np.concatenate((o_opened, opened))
        fits = depth + 2 * (n - opened) <= k - pos
        partners, stack, depth, opened = partners[fits], stack[fits], depth[fits], opened[fits]
    if partners.shape[0] != m:
        raise AssertionError("diagram enumeration does not match the count formula")
    # canonical order: (last paired vertex, x1, y1, ..., xn, yn)
    openers, closers = _arc_ends(partners, n)
    keys = [np.max(np.where(partners > 0, np.arange(k + 2), 0), axis=1)]
    for i in range(n):
        keys += [openers[:, i], closers[:, i]]
    return partners[np.lexsort(keys[::-1])]


def _arc_ends(partners, n):
    """m x n arrays of the openers x1 < ... < xn of each diagram's n arcs
    and of their closers y1, ..., yn."""
    vertex = np.arange(partners.shape[1])
    openers = np.nonzero(partners > vertex)[1].reshape(partners.shape[0], n)
    return openers, np.take_along_axis(partners, openers, axis=1)


def _arc_lists(partners):
    """Sorted (x, y) arc tuples of each row of a partner array."""
    return [tuple((v, p) for v, p in enumerate(row) if p > v)
            for row in partners.tolist()]


def enumerate_arc_diagrams(k, n):
    """Arc tuples ((x1, y1), ...) of all n-arc diagrams on k vertices
    satisfying both rules, canonically ordered."""
    return _arc_lists(_diagram_basis(k, n))


@dataclass(frozen=True)
class TLMatrix:
    """Matrix of H = -2 sum_x J_x U_{x,x+1} on the canonical diagram basis.

    ``matrix`` is the CSR matrix and ``partners`` the basis as a partner
    array; the dense ``A`` is built on first read.
    """

    k: int
    n: int
    q: float
    couplings: tuple
    partners: np.ndarray
    matrix: sp.csr_matrix

    @property
    def dim(self):
        return self.partners.shape[0]

    @functools.cached_property
    def A(self):
        return self.matrix.toarray()

    def leading_block(self, k):
        """The TLMatrix of the first k vertices, read off this one.

        Appending a vertex appends diagrams, so the first diagram_count(k, n)
        diagrams are the k-vertex basis with every vertex above k unpaired,
        and a bond from k on maps each of them outside that prefix or not at
        all: the k-vertex matrix is the leading block, entry for entry
        (Nachtergaele-Spitzer-Starr, J. Stat. Phys. 116 (2004)).
        ValueError unless 2n <= k <= self.k and the prefix leaves every
        vertex above k unpaired.
        """
        if not 2 * self.n <= k <= self.k:
            raise ValueError(f"need 2n <= k <= {self.k} for n={self.n}, got k={k}")
        if k == self.k:
            return self
        m = diagram_count(k, self.n)
        if self.partners[:m, k + 1:].any():
            raise ValueError(f"a leading diagram pairs a vertex above k={k}")
        a = self.matrix
        end = a.indptr[m]
        keep = a.indices[:end] < m
        indptr = np.concatenate(([0], np.cumsum(keep)))[a.indptr[:m + 1]]
        block = sp.csr_matrix((a.data[:end][keep], a.indices[:end][keep], indptr),
                              shape=(m, m))
        return TLMatrix(k=k, n=self.n, q=self.q, couplings=self.couplings[:k - 1],
                        partners=self.partners[:m, :k + 2], matrix=block)

    def off_diagonal_max(self):
        """Largest off-diagonal entry, counting the zero ones (so >= 0)."""
        coo = self.matrix.tocoo()
        return float(coo.data[coo.row != coo.col].max(initial=0.0))


def _tl_csr(partners, couplings, q):
    """CSR matrix of -2 sum_x J_x U_{x,x+1} on a basis given by its partner
    array, every bond applied to all diagrams at once.

    Each diagram is keyed by the code (opener bitmask << k) | closer bitmask,
    bit v-1 standing for vertex v; codes are int64 while 2k < 64 and Python
    ints (object arrays) beyond, so no chain length is capped.  A bubble
    (arc [x,x+1]) gives the diagonal entry; otherwise the image pairs x with
    x+1 and the former partners a, b of x and x+1 with each other (a lone
    partner becomes unpaired), which on the codes is: clear the bits of x,
    x+1, a, b and set opener bits x, min(a,b), closer bits x+1, max(a,b).
    Every image code must be a basis code, else AssertionError.
    Contributions to one entry are summed in bond order starting from 0.0,
    as a dense accumulation would.
    """
    m, k = partners.shape[0], partners.shape[1] - 2
    bit = np.array([0] + [1 << v for v in range(k)] + [0],
                   dtype=np.int64 if 2 * k < 64 else object)
    opener = partners > np.arange(k + 2)
    omask = (opener * bit).sum(axis=1)
    cmask = (((partners > 0) & ~opener) * bit).sum(axis=1)
    codes = (omask << k) | cmask
    cols, order = np.arange(m), np.argsort(codes)
    ranked = codes[order]
    keys, values = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for x in range(1, k):
        w = -2.0 * couplings[x - 1]
        a, b = partners[:, x], partners[:, x + 1]
        bubble = a == x + 1
        move = ~bubble & ((a != 0) | (b != 0))
        a, b = a[move], b[move]
        both = (a != 0) & (b != 0)
        lo = bit[np.where(both, np.minimum(a, b), 0)]
        hi = bit[np.where(both, np.maximum(a, b), 0)]
        keep = ~(bit[x] | bit[x + 1] | bit[a] | bit[b])
        image = ((((omask[move] & keep) | bit[x] | lo) << k)
                 | (cmask[move] & keep) | bit[x + 1] | hi)
        found = order[np.minimum(np.searchsorted(ranked, image), m - 1)]
        if not np.array_equal(codes[found], image):
            raise AssertionError("a bond generator maps a diagram outside the basis")
        keys += [cols[bubble] * (m + 1), found * m + cols[move]]
        values += [np.full(len(keys[-2]), w * -(q + 1.0 / q)), np.full(len(found), w)]
    entries, slot = np.unique(np.concatenate(keys), return_inverse=True)
    data = np.zeros(len(entries))
    np.add.at(data, slot, np.concatenate(values))
    indptr = np.searchsorted(entries // m, np.arange(m + 1))
    return sp.csr_matrix((data, entries % m, indptr), shape=(m, m))


def tl_hamiltonian_matrix(k, n, couplings, q=1.0):
    """Assemble the diagram-basis matrix of -2 sum_x J_x U_{x,x+1}."""
    couplings = tuple(float(j) for j in couplings)
    if not 0 < q < np.inf:
        raise ValueError(f"q must be positive and finite, got {q}")
    if len(couplings) != k - 1:
        raise ValueError("need k-1 couplings")
    if not all(0 < j < np.inf for j in couplings):
        raise ValueError(f"couplings must be positive and finite, got {couplings}")
    partners = _diagram_basis(k, n)
    return TLMatrix(k=k, n=n, q=float(q), couplings=couplings, partners=partners,
                    matrix=_tl_csr(partners, couplings, q))


@dataclass(frozen=True)
class DominanceVerdict:
    ok: bool
    dims_ok: bool
    max_violation: float


# Entrywise tolerance of the sign and dominance comparisons.
ENTRY_TOL = 1e-12


def check_dominance(ak, ak1):
    """Entrywise A^{(k+1,S+1/2)} <= A^{(k,S)} on the shared basis prefix.

    Requires ak1 on k+1 vertices with the same arc count and couplings
    extended by one bond.  A basis of ak1 smaller than ak's has no shared
    prefix: the verdict is dims_ok = ok = False with max_violation nan.
    Otherwise the first d(k,S) basis diagrams of ak1 must be the embeddings
    of ak's basis in order (raises on misalignment).
    """
    if ak1.k != ak.k + 1 or ak1.n != ak.n:
        raise ValueError("dominance compares (k, n) against (k+1, n)")
    d = ak.dim
    if ak1.dim < d:
        return DominanceVerdict(ok=False, dims_ok=False, max_violation=float("nan"))
    if not np.array_equal(ak1.partners[:d, :ak.k + 2], ak.partners):
        raise ValueError("basis prefix misaligned; canonical order violated")
    max_violation = float((ak1.matrix[:d, :d] - ak.matrix).max())
    return DominanceVerdict(ok=max_violation <= ENTRY_TOL, dims_ok=True,
                            max_violation=max_violation)


@dataclass(frozen=True)
class PerronResult:
    """Certified Perron root of a matrix and its strictly positive vector.

    ``bracket`` is the Collatz-Wielandt enclosure (lo, hi) of the root
    computed from ``vector``, and lo <= eigenvalue <= hi.  ``gap`` is the
    distance to the second lowest eigenvalue on the dense route (inf for a
    1 x 1 matrix) and None on the sparse route, which computes no second
    eigenpair.
    """

    vector: np.ndarray
    eigenvalue: float
    gap: float | None
    bracket: tuple


# Dense ``eig`` below this dimension, Arnoldi from it on.  perron_ground_vector
# on a CSR TL matrix (q = 0.5, 2-vCPU x86 VM), dense eig vs Arnoldi SR:
# 0.9 vs 1.6 ms at m = 28, 3.5 vs 2.9 ms at m = 75, 8.4 vs 3.3 ms at
# m = 110.  Arnoldi wins from below m = 75, but the cut stays above every
# TL matrix with k <= 10 (m <= 90), which keeps the dense route's gap.
PERRON_SPARSE_MIN_DIM = 100

# Most Jacobi sweeps spent narrowing a bracket that comes out too wide.
PERRON_REFINE_SWEEPS = 30

# Ulps of max(1, ||A||_inf) (multiples of eps times it) by which the
# solver's root may fall outside its bracket.  eig and Arnoldi return a
# root only to about eps ||A||_inf, not to ulps of the root itself, which
# can be far smaller (couplings 6e-8 ... 0.6 give a root of 1.2e-7).
PERRON_BRACKET_ULPS = 4

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_TINY = np.finfo(float).tiny


def _as_csr(a):
    """Canonical CSR matrix (sorted indices, duplicates summed, no stored
    zeros) of a TLMatrix, a sparse matrix or a dense array, so every input
    form reaches the same arrays.  A TLMatrix's own matrix, which the
    builder makes canonical, is returned as it is."""
    if isinstance(a, TLMatrix):
        a = a.matrix
        if a.has_canonical_format and a.data.all():
            return a
    elif not sp.issparse(a):
        return sp.csr_matrix(np.asarray(a, dtype=float))
    out = sp.csr_matrix(a, dtype=float, copy=True)
    out.sum_duplicates()
    out.eliminate_zeros()
    return out


def _collatz_wielandt_bracket(a, absa, x):
    """Enclosure (lo, hi) of the Perron root of a canonical CSR matrix a
    (``_as_csr``) from any x > 0; absa is the entrywise |a|.

    For A irreducible with nonpositive off-diagonal entries (the caller's
    hypothesis; ``perron_ground_vector`` checks it),
    min_i (Ax)_i/x_i <= lambda <= max_i (Ax)_i/x_i whichever solver
    produced x (Collatz, Math. Z. 48 (1942); Wielandt, Math. Z. 52 (1950)).
    Each row's ratio is widened by its rounding allowance
    gamma_k (|A|x)_i/x_i, gamma_k = k u/(1 - k u) with u the unit roundoff
    and k the largest row nnz + 1 (the row's products and the division).
    An entry of x far below its row's products can make an end infinite
    or nan, which certifies nothing.
    ValueError unless x has one strictly positive entry per row.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (a.shape[0],) or not np.all(x > 0):
        raise ValueError("a Collatz-Wielandt bracket needs a strictly positive vector")
    k = int(np.diff(a.indptr).max()) + 1
    gamma = k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)
    with np.errstate(over="ignore", invalid="ignore"):
        ratio = (a @ x) / x
        slack = gamma * (absa @ x) / x
        return float(np.min(ratio - slack)), float(np.max(ratio + slack))


def _sharpen(a, absa, off, x, lam, width):
    """x and its bracket, after Jacobi sweeps
    x_i <- sum_{j != i} (-a_ij) x_j / (a_ii - lam) while the bracket is
    wider than ``width`` (at most PERRON_REFINE_SWEEPS of them).

    The Perron vector is the fixed point of the sweep, and a_ii > lam on
    every row of an irreducible m x m matrix with m >= 2 and nonpositive
    off-diagonal entries.  A solver gets entries far below the largest only
    to normwise accuracy, and their row ratios spread the bracket (at
    q = 0.05 past 1e-9).  A sweep rebuilds each entry from its neighbours
    as a sum of nonnegative terms, so the entries become accurate relative
    to themselves and the bracket narrows.  ``absa`` is |a| and ``off``
    masks a's off-diagonal entries, all negative: the sweep's matrix is
    |a| without its diagonal.
    """
    lo, hi = _collatz_wielandt_bracket(a, absa, x)
    denom = a.diagonal() - lam
    if hi - lo <= width or np.min(denom) <= 0.0:
        return x, (lo, hi)
    kept = np.concatenate(([0], np.cumsum(off)))[a.indptr]
    neighbours = sp.csr_matrix((absa.data[off], a.indices[off], kept), shape=a.shape)
    for _ in range(PERRON_REFINE_SWEEPS):
        x = (neighbours @ x) / denom
        x = x / np.linalg.norm(x)
        if not np.all(x > 0.0):  # only underflow can zero an entry
            raise NumericalError("ground vector is not strictly positive")
        lo, hi = _collatz_wielandt_bracket(a, absa, x)
        if hi - lo <= width:
            break
    return x, (lo, hi)


def _scale(absa):
    """max(1, ||A||_inf) from the entrywise |A| (a CSR matrix)."""
    return max(1.0, float(absa.sum(axis=1).max()))


def _extremal_pair(a, scale, end):
    """Bottom eigenpair of a CSR matrix: dense ``eig`` below
    PERRON_SPARSE_MIN_DIM, Arnoldi (``eigs``, k = 1, smallest real part,
    start vector of ones, tol = 0) from there on; scale = max(1, ||A||_inf).
    Returns (eigenvalue, v, gap): v real with its largest entry positive,
    gap the distance to the next eigenvalue on the
    dense route (inf for a 1 x 1 matrix) and None on Arnoldi's, which
    computes no second eigenpair.  Each caller's matrix has nonpositive
    off-diagonal entries, so the ones overlap its nonnegative bottom vector.

    NumericalError, naming the ``end`` solved ("ground" or "top"), unless
    ARPACK converges, the eigenvalue is real to 1e-9 scale and
    ||Av - lambda v|| <= RESIDUAL_TOL scale ||v||; which eigenvalue the
    solver found is the caller's to check.
    """
    m = a.shape[0]
    if m < PERRON_SPARSE_MIN_DIM:
        w, vecs = np.linalg.eig(a.toarray())
        order = np.argsort(w.real)
        value, v = w[order[0]], vecs[:, order[0]]
        gap = float(abs(w[order[1]].real - value.real)) if m > 1 else np.inf
    else:
        try:
            w, vecs = sla.eigs(a, k=1, which="SR", v0=np.ones(m), tol=0)
        except sla.ArpackNoConvergence as exc:
            raise NumericalError(f"Arnoldi eigs ({end}) did not converge: {exc}") from exc
        value, v, gap = w[0], vecs[:, 0], None
    if abs(value.imag) > 1e-9 * scale:
        raise NumericalError(f"{end} eigenvalue came out complex")
    value = float(value.real)
    v = v.real / np.sign(v.real[np.argmax(np.abs(v.real))])
    # in units of scale, so entries near 1/q at tiny q do not overflow the norm
    residual = float(np.linalg.norm((a @ v - value * v) / scale))
    if residual > RESIDUAL_TOL * np.linalg.norm(v):
        raise NumericalError(f"{end} pair residual {residual:.3e} (of ||A||_inf) too large")
    return value, v, gap


def perron_ground_vector(A):
    """Strictly positive ground vector of an irreducible matrix with
    nonpositive off-diagonal entries (a TLMatrix, sparse or dense).

    Irreducibility is tested as strong connectivity of the off-diagonal
    nonzero pattern (equivalent to irreducibility of c*I - A for the
    nonnegative matrix obtained after the diagonal shift).  The solver,
    ``_extremal_pair`` (also the one ``_top_eigenvalue`` runs on -DAD), is
    not trusted for which eigenvalue it found.  Certified, else
    NumericalError: a real eigenvalue with ||Av - lambda v|| <=
    RESIDUAL_TOL ||A||_inf ||v||, no entry of v below -1e-10 times the largest (a
    vector of both signs belongs to another eigenvalue), and a
    Collatz-Wielandt bracket at most 1e-9 max(1, ||A||_inf) wide that holds
    the solver's eigenvalue to PERRON_BRACKET_ULPS eps max(1, ||A||_inf).
    The bracket comes from v clamped to positive values and sharpened,
    which must stay strictly positive: entries that span more than 1e10,
    or that rounding left a hair below zero, are the solver's noise, and
    the sweeps rebuild them.  Perron-Frobenius makes the root simple and its vector the only
    positive one, so a positive vector with a tight bracket is the
    certificate.
    The returned eigenvalue is the solver's; when its rounding put it
    that little outside, the bracket is widened to take it in (a wider
    enclosure of the root is still one).  Every check reads the CSR
    matrix; only the dense route forms an m x m array.
    """
    a = _as_csr(A)
    m = a.shape[0]
    off = a.indices != np.repeat(np.arange(m), np.diff(a.indptr))
    if a.data[off].max(initial=0.0) > 0.0:
        raise ValueError("positive off-diagonal entry; no Perron-Frobenius claim")
    # a stores no zeros, and self-loops do not join components
    ncomp, _ = connected_components(a, directed=True, connection="strong")
    if ncomp != 1:
        raise ReducibleMatrixError(
            f"irreducibility failed ({ncomp} strongly connected components); "
            "no positivity claim"
        )
    absa = abs(a)
    scale = _scale(absa)
    lam, v, gap = _extremal_pair(a, scale, "ground")
    if np.min(v) < -1e-10 * np.max(np.abs(v)):
        raise NumericalError("ground vector is not strictly positive")
    tol = 1e-9 * scale
    v, (lo, hi) = _sharpen(a, absa, off, np.maximum(v, _TINY), lam, tol)
    if not np.isfinite(hi - lo):
        raise NumericalError("no finite Collatz-Wielandt bracket: the ground vector's "
                             "entries span more than the floating-point range")
    slack = PERRON_BRACKET_ULPS * np.finfo(float).eps * scale
    if not lo - slack <= lam <= hi + slack:
        raise NumericalError(f"eigenvalue {lam!r} outside the "
                             f"Collatz-Wielandt bracket [{lo!r}, {hi!r}]")
    lo, hi = min(lo, lam), max(hi, lam)
    if hi - lo > tol:
        raise NumericalError(f"Collatz-Wielandt bracket [{lo!r}, {hi!r}] wider than {tol:.1e}")
    return PerronResult(vector=v, eigenvalue=lam, gap=gap, bracket=(lo, hi))


def _top_eigenvalue(tl, floor):
    """Largest eigenvalue theta of a TLMatrix: minus the bottom eigenvalue of
    -DAD, D = diag((-1)^(arcs opening at an odd vertex)), an exact scaling.
    A bond move that is not a bubble swaps an arc opener for a vertex of the
    other parity (an arc spans an even number of paired vertices), so no
    off-diagonal entry of -DAD is positive, at any q.  NumericalError
    unless floor (the Perron root) <= theta <= the Gershgorin upper bound
    + 1e-9 max(1, ||A||_inf).
    """
    a = tl.matrix
    opens_odd = tl.partners[:, 1::2] > np.arange(1, tl.k + 2, 2)
    d = sp.diags((-1.0) ** opens_odd.sum(axis=1))
    flipped = -(d @ a @ d)
    scale = _scale(abs(flipped))
    bottom, _, _ = _extremal_pair(flipped, scale, "top")
    diag = a.diagonal()
    g_hi = float(np.max(diag + np.asarray(abs(a).sum(axis=1)).ravel() - np.abs(diag)))
    if not floor <= -bottom <= g_hi + 1e-9 * scale:
        raise NumericalError(f"top eigenvalue {-bottom!r} outside [{floor!r}, {g_hi!r}]")
    return -bottom


def _diagram_sectors(couplings, q):
    """(S, TLMatrix, PerronResult) of every sector S = L/2 - n,
    n = 0 ... L/2, of the L-vertex chain with these couplings at q: the
    n-arc TL matrix and its certified Perron root.  The largest basis comes
    first, so its memory guard fires before any solve, and each sector is
    built and solved only when it is reached."""
    L = len(couplings) + 1
    for n in sorted(range(L // 2 + 1), key=lambda n: -diagram_count(L, n)):
        tl = tl_hamiltonian_matrix(L, n, couplings, q)
        yield HalfInt(L - 2 * n), tl, perron_ground_vector(tl)


def diagram_sector_energies(couplings):
    """SectorReport of the spin-1/2 chain sum_x J_x (1 - 4 S_x.S_{x+1})
    (``build_normalized_chain`` with every spin 1/2) from its diagram bases.

    For S = L/2 - n, n = 0 ... L/2, the n-arc TL matrix at q = 1 spans
    V^(S) and has exactly the sector's spectrum: its certified Perron root
    (with its bracket) is the sector minimum and its top eigenvalue
    (``_top_eigenvalue``) the maximum, sector by sector as
    ``_diagram_sectors`` reaches them.  No 2^L-dimensional operator, S^3
    block or invariance check: the basis is invariant by construction.
    """
    entries = {S: SectorEntry(pf.eigenvalue, _top_eigenvalue(tl, pf.eigenvalue),
                              tl.dim, pf.bracket)
               for S, tl, pf in _diagram_sectors(tuple(float(j) for j in couplings), 1.0)}
    return SectorReport(entries=dict(sorted(entries.items(), reverse=True)))


def chain_sector_energies(chain):
    """SectorReport of the normalized chain of a ChainSpec: from the
    diagram bases (``diagram_sector_energies``) when every spin is 1/2,
    else, or when that route raises NumericalError (a refused certificate
    or ARPACK non-convergence), by the SU(2) route of
    ``sectors.sector_energies`` on the product space."""
    if all(s.twice == 1 for s in chain.spins):
        try:
            return diagram_sector_energies(chain.couplings)
        except NumericalError:
            pass
    return sector_energies(build_normalized_chain(chain))


# ---------------------------------------------------------------------------
# Higher spin: dual canonical (Frenkel-Khovanov) basis


@dataclass(frozen=True)
class OrderedIsingBlock:
    """One site of magnitude s holding n_down lowered arrows (of 2s)."""

    s: HalfInt
    n_down: int


@dataclass(frozen=True)
class FKBasisVector:
    """Basis vector of a highest-weight space of a higher-spin chain."""

    blocks: tuple  # OrderedIsingBlock per site
    arcs: tuple  # cross-site pairing of arrow slots (1-indexed, global)
    expanded: sp.csr_matrix  # 1 x dim row in the chain's product basis


def _compositions(total, caps):
    """All tuples 0 <= c_i <= caps[i] with sum(c) == total."""
    if not caps:
        if total == 0:
            yield ()
        return
    head, rest = caps[0], caps[1:]
    for c in range(min(head, total) + 1):
        for tail in _compositions(total - c, rest):
            yield (c,) + tail


def _fk_labels(caps, n):
    """(n_down per site, arcs) of every ordered Ising configuration with n
    downs, each site's leftmost, that bracket matching pairs completely:
    each down with the nearest unpaired up to its left (so no arc crosses
    another or spans an unpaired slot).  Slots are numbered from 1 across
    the sites; basis order is by last paired slot, then by arcs."""
    found = []
    for ndowns in _compositions(n, tuple(caps)):
        ups, arcs, slot = [], [], 0
        for c, nd in zip(caps, ndowns):
            if nd > len(ups):  # a down with no up left of it
                break
            arcs += [(ups.pop(), slot + i) for i in range(1, nd + 1)]
            ups += range(slot + nd + 1, slot + c + 1)
            slot += c
        else:
            found.append((ndowns, tuple(sorted(arcs))))
    return sorted(found, key=lambda f: (max((y for _, y in f[1]), default=0), f[1]))


def _fk_expansions(caps, n, arcs):
    """(vector number, product index, coefficient) of the nonzero entries of
    the vectors with these arc lists (n arcs each), sorted by vector, then
    index.  Each arc's singlet lowers its closer (+1) or its opener (-1),
    and a site with d of its 2s arrows lowered is in state m = s - d with
    weight C(2s, d)^(-1/2).  The arcs are multiplied in one at a time on the
    partial supports (a shift by the closer's or the opener's site stride,
    coincident indices summed): no 2^n choices, no 2^(sum 2s) arrow states.
    """
    dims = [c + 1 for c in caps]
    strides = np.cumprod((1,) + tuple(dims[:0:-1]))[::-1]
    site = np.repeat(np.arange(len(caps)), caps)  # site of each arrow slot
    m = len(arcs)
    step = strides[site[np.array(arcs, dtype=np.int64).reshape(m, n, 2) - 1]]
    vid, idx, val = np.arange(m), np.zeros(m, dtype=np.int64), np.ones(m)
    for i in range(n):
        opener, closer = step[vid, i].T  # arc i's site strides, per entry
        vid, val = np.concatenate((vid, vid)), np.concatenate((val, -val))
        idx = np.concatenate((idx + closer, idx + opener))
        order = np.lexsort((idx, vid))
        vid, idx, val = vid[order], idx[order], val[order]
        first = np.ones(len(vid), dtype=bool)
        first[1:] = (vid[1:] != vid[:-1]) | (idx[1:] != idx[:-1])
        val = np.bincount(np.cumsum(first) - 1, weights=val)
        nonzero = val != 0.0
        vid, idx, val = vid[first][nonzero], idx[first][nonzero], val[nonzero]
    for x, c in enumerate(caps):
        val *= 1.0 / np.sqrt([comb(c, j) for j in range(c + 1)])[idx // strides[x] % dims[x]]
    return vid, idx, val


# fk-basis memory estimate: bytes per entry of the d vectors held densely on
# the M = S block (fk_hamiltonian_matrix's column block, its QR copy and Q).
# The tracemalloc peak of the basis and its matrix is 0.58-0.97 of it on the
# 42 chains and labels above 1 MB (spins 1/2 to 2, 6 to 14 sites).
FK_BYTES_PER_BASIS_ENTRY = 48


def fk_highest_weight_basis(spins, S):
    """Dual canonical basis of the weight-S highest-weight space of a chain.

    Each site of magnitude s is the symmetric part of 2s spin-1/2 arrows.
    The ordered Ising configurations whose arrows bracket matching pairs
    completely, with sum(s_x) - S arcs, label the basis (``_fk_labels``),
    and each vector is written straight in the product basis
    (``_fk_expansions``).  NumericalError when the memory estimate passes
    physical memory or product indices pass int64.
    """
    spins = [HalfInt.coerce(s) for s in spins]
    S = HalfInt.coerce(S)
    caps = [s.twice for s in spins]
    n_twice = sum(caps) - S.twice
    if n_twice < 0 or n_twice % 2 != 0:
        raise ValueError(f"total spin {S} is not a label of this chain")
    shape = HilbertShape(spins)
    labels = sector_labels(shape)
    block = sum(d for label, d in labels.items() if label >= S)  # the M = S block
    require_memory(FK_BYTES_PER_BASIS_ENTRY * block * labels.get(S, 0),
                   f"the S={S} basis on the {block}-state M={S} block")
    if shape.dim > np.iinfo(np.int64).max:
        raise NumericalError(f"the {shape.dim} product states pass int64 indices")
    found = _fk_labels(caps, n_twice // 2)
    if not found:  # S is not a label of these spins
        return []
    vid, idx, val = _fk_expansions(caps, n_twice // 2, [arcs for _, arcs in found])
    ends = np.searchsorted(vid, np.arange(len(found) + 1))
    return [FKBasisVector(
        blocks=tuple(OrderedIsingBlock(s=s, n_down=nd) for s, nd in zip(spins, ndowns)),
        arcs=arcs,
        expanded=sp.csr_matrix((val[a:b], idx[a:b], [0, b - a]), shape=(1, shape.dim)))
        for (ndowns, arcs), a, b in zip(found, ends[:-1], ends[1:])]


# Largest cond(V^T V) = cond(R)^2 (V = QR) that fk_hamiltonian_matrix accepts.
FK_GRAM_COND_LIMIT = 1e12


def fk_hamiltonian_matrix(spins, couplings, basis):
    """A with H V = V A for the normalized chain and a basis from
    ``fk_highest_weight_basis``.

    V spans an H-invariant space in the M = S block, so H V stays on the
    union of the vectors' supports: H is assembled there from the local
    terms, V is a dense column block there, and A = R^-1 Q^T (H V) from
    V = QR.  NumericalError past FK_GRAM_COND_LIMIT, or when
    ||H V - V A|| > RESIDUAL_TOL max(1, ||H||_inf) ||V|| (the check that V
    spans an invariant space).
    """
    if not basis:
        raise ValueError("empty basis")
    rows = sp.vstack([b.expanded for b in basis], format="csr")
    support = np.unique(rows.indices)
    v = np.zeros((support.size, rows.shape[0]))
    v[np.searchsorted(support, rows.indices),
      np.repeat(np.arange(rows.shape[0]), np.diff(rows.indptr))] = rows.data
    q, r = la.qr(v, mode="economic")
    cond = np.linalg.cond(r) ** 2
    if cond > FK_GRAM_COND_LIMIT:
        raise NumericalError(f"Gram matrix condition number {cond:.3e} "
                             f"exceeds {FK_GRAM_COND_LIMIT:.0e}")
    h = build_normalized_chain(ChainSpec(spins, couplings))
    hs = _local_sum(h.shape, h.terms, support)
    a = la.solve_triangular(r, q.T @ (hs @ v))
    del q  # the residual's two dense arrays take its place
    residual = hs @ v
    residual -= v @ a
    residual = float(np.linalg.norm(residual))
    bound = RESIDUAL_TOL * max(1.0, float(abs(hs).sum(axis=1).max())) * np.linalg.norm(v)
    if residual > bound:
        raise NumericalError(f"the basis does not span an H-invariant space: "
                             f"||H V - V A|| = {residual:.3e} > {bound:.3e}")
    return a


def tl_matrix_csv_rows(tl):
    """``row,col,value`` CSV lines of the nonzero entries of a TLMatrix, a
    sparse or a dense matrix, in row-major order, each formatted from the
    COO arrays at once (``reports.format_value``'s digits)."""
    coo = _as_csr(tl).tocoo()
    return list(map("%d,%d,%.17g".__mod__,
                    zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist())))


def tl_basis_csv_rows(tl):
    """``diagram_id,arcs`` CSV lines of a TLMatrix's basis, arcs rendered
    like ``1-2;3-4`` and no arc as ``empty``.  Every diagram has exactly n
    arcs, so one format takes each row of the partner array's (opener,
    closer) columns."""
    arcs = np.empty((tl.dim, 2 * tl.n + 1), dtype=np.int64)
    arcs[:, 0] = np.arange(tl.dim)
    arcs[:, 1::2], arcs[:, 2::2] = _arc_ends(tl.partners, tl.n)
    fmt = "%d," + (";".join(["%d-%d"] * tl.n) or "empty")
    return list(map(fmt.__mod__, map(tuple, arcs.tolist())))
