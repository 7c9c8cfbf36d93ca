"""Reference implementations the tests compare foelab against: direct, slow
constructions (Kronecker products, total S^+ and commutators on the whole
product space, S^3 blocks sorted out of it, blocks sliced by scipy's fancy indexing, SVD kernels,
Casimir filtering, the XXZ chain and its quantum-group generators on 2^L
states, droplet sweeps built length by length, CSV rows formatted cell by
cell), the dual canonical basis expanded through the 2^(sum 2s) spin-1/2
arrow space with its Gram-matrix solve, and criterion 5's
comparison-theorem checker.  Neither the CLI nor
the demos run them.
"""

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from foelab.errors import NumericalError
from foelab.hamiltonians import ChainSpec, SpinGraph, build_normalized_chain
from foelab.linalg import max_abs
from foelab.sectors import SectorEntry, SectorReport, _penalty, sector_labels
from foelab.spinops import (HalfInt, HilbertShape, LocalHamiltonian, _local_sum, heisenberg_bond,
                            spin_matrices)
from foelab.qgroup import droplet_bandwidth, droplet_energy
from foelab.temperley_lieb import (ENTRY_TOL, TLMatrix, _as_csr, _collatz_wielandt_bracket,
                                   perron_ground_vector, tl_hamiltonian_matrix)

KERNEL_REL_TOL = 1e-8


def kron_embed(shape, factors):
    """Reference: one sparse Kronecker factor per site, identity elsewhere."""
    ref = None
    for site, d in enumerate(shape.local_dims):
        f = sp.csr_matrix(factors[site]) if site in factors else sp.identity(d, format="csr")
        ref = f if ref is None else sp.kron(ref, f, format="csr")
    return ref


def kernel_basis(block):
    """Orthonormal basis (columns) of the kernel of a sparse rectangular matrix.

    Singular values below KERNEL_REL_TOL times the largest count as zero.  An empty
    row space (0 rows) makes the whole column space the kernel.
    """
    block = block.toarray()
    rows, cols = block.shape
    if cols == 0:
        return np.zeros((0, 0))
    if rows == 0 or max_abs(block) == 0.0:
        return np.eye(cols)
    _, svals, vt = la.svd(block, full_matrices=True)
    cutoff = KERNEL_REL_TOL * svals[0]
    rank = int(np.sum(svals > cutoff))
    return vt[rank:].T.copy()


def s3_blocks(shape):
    """Partition of product-basis indices by total S^3 eigenvalue M, read off
    ``HilbertShape.total_m`` on the whole product space: {HalfInt M: index
    array}, M descending, consecutive pieces of one stable argsort of -2M,
    so each piece is ascending.  The oracle for ``spinops._s3_block``."""
    top = shape.s_max.twice
    k = (top - np.rint(2 * shape.total_m()).astype(np.int64)) // 2  # S_max - M
    order = np.argsort(k, kind="stable")
    ends = np.cumsum(np.bincount(k)).tolist()
    return {HalfInt(top - 2 * i): order[a:b] for i, (a, b) in enumerate(zip([0] + ends, ends))}


def total_splus(shape):
    """Total S^+ on the whole product space, one one-site term per site."""
    return _local_sum(shape, [((x,), spin_matrices(s).splus) for x, s in enumerate(shape.spins)])


def commutator_maxabs(a, b):
    """Largest entry of |AB - BA|, sparse or dense."""
    return max_abs(a @ b - b @ a)


def fancy_block(a, rows, cols=None):
    """a[rows][:, cols] (cols defaults to rows) by scipy's fancy indexing,
    as a CSR matrix with sorted indices."""
    out = sp.csr_matrix(a)[rows][:, rows if cols is None else cols]
    out.sort_indices()
    return out


def raising_slice(splus, index, S):
    """Fancy-indexed S^+ block from the M = S block to the M = S + 1 block
    (0 rows at the top), ``index`` from ``s3_blocks``."""
    return fancy_block(splus, index.get(S + HalfInt(2), index[S][:0]), index[S])


def highest_weight_space(shape, S, splus=None, blocks=None):
    """Orthonormal basis of ker(S+) inside the S^3 = S block, by SVD, as the
    dim x d array of its full-space columns.  Raises NumericalError if d
    differs from ``sector_labels``."""
    S = HalfInt.coerce(S)
    splus = total_splus(shape) if splus is None else splus
    blocks = s3_blocks(shape) if blocks is None else blocks
    if S not in blocks:
        raise ValueError(f"total spin {S} not present for this shape")
    d = sector_labels(shape).get(S, 0)
    if d == 0:
        raise ValueError(f"total spin {S} has an empty highest-weight space")
    cols = blocks[S]
    rows = blocks.get(S + HalfInt(2), np.zeros(0, dtype=int))
    kern = kernel_basis(splus[rows][:, cols])
    if kern.shape[1] != d:
        raise NumericalError(f"kernel dimension {kern.shape[1]} != {d} at S={S}")
    vectors = np.zeros((shape.dim, d))
    vectors[cols] = kern
    return vectors


def _sector_spectrum(hb, sms, S, d):
    """The d eigenvalues of H on V^(S), ascending, from the penalized solve
    on the M = S block alone: eigvalsh of H_SS + c (S-S+)_SS with
    c = (g_hi - g_lo + 1)/(2S + 2), certified by isolation (d-th eigenvalue
    <= g_hi, the next one >= g_hi + 1), else NumericalError."""
    diag = np.diag(hb)
    g_lo, g_hi, c, slack = _penalty(diag, np.abs(hb).sum(axis=1) - np.abs(diag), S)
    w = la.eigvalsh(hb + c * sms)
    if w[d - 1] > g_hi + slack or (len(w) > d and w[d] < g_hi + 1.0 - slack):
        raise NumericalError(f"penalized solve at S={S} does not isolate {d} levels")
    return w[:d]


def penalized_sector_spectra(H):
    """{S: ascending spectrum of H on V^(S)}: one penalized dense solve per
    sector on its own S^3 = S block, sliced from the full H and S^+, the
    oracle for the banded solve."""
    index, splus = s3_blocks(H.shape), total_splus(H.shape)
    out = {}
    for S, d in sector_labels(H.shape).items():
        b = raising_slice(splus, index, S)
        out[S] = _sector_spectrum(fancy_block(H.matrix, index[S]).toarray(),
                                  (b.T @ b).toarray(), S, d)
    return out


def spectrum_by_s3_blocks(H, offset=False):
    """Complete spectrum of H per S^3 block, M descending: one ``eigvalsh``
    of each block assembled from the terms, the oracle for
    ``full_spectrum_by_s3``.  With offset=True the ground energy is 0."""
    out = [(M, la.eigvalsh(_local_sum(H.shape, H.terms, idx).toarray()))
           for M, idx in s3_blocks(H.shape).items()]
    e0 = min(w[0] for _, w in out) if offset else 0.0
    return [(M, w - e0) for M, w in out]


def total_s3(shape):
    """Total S^3, the diagonal of ``HilbertShape.total_m``, as a CSR matrix."""
    return sp.diags(shape.total_m(), format="csr")


def casimir(shape):
    """Total-spin Casimir S3^2 + (S+S- + S-S+)/2; eigenvalues S(S+1)."""
    s3, spl = total_s3(shape), total_splus(shape)
    smn = spl.T.tocsr()
    return s3 @ s3 + (spl @ smn + smn @ spl) * 0.5


def casimir_sector_energies(H, shape):
    """Cross-check oracle: sector energies via Casimir-eigenvector filtering.

    Diagonalizes H and the Casimir on the full space; intended for dims
    up to about 1e3 only.
    """
    c = casimir(shape).toarray()
    w, vecs = la.eigh(c)
    s_of_eig = np.rint(np.sqrt(4 * w + 1) - 1).astype(int)  # 2S from S(S+1)
    entries = {}
    hd = H.dense()
    for ts in np.unique(s_of_eig):
        sel = vecs[:, s_of_eig == ts]
        hs = sel.T @ hd @ sel
        ew = la.eigvalsh(0.5 * (hs + hs.T))
        # each multiplet appears 2S+1 times here; extremes are unaffected
        entries[HalfInt(int(ts))] = SectorEntry(
            float(ew[0]), float(ew[-1]), sel.shape[1] // (ts + 1)
        )
    return SectorReport(entries=entries)


def droplet_rows_per_length(l_values, n_values, qp):
    """Reference: ``qgroup.droplet_csv_rows`` with each (L, n) sector's TL
    matrix built from scratch, L by L and n by n within each L."""
    j = 1.0 / (2.0 * (qp.q + 1.0 / qp.q))
    rows = []
    for L in map(int, l_values):
        for n in map(int, n_values):
            if 1 <= n <= L / 2:
                pf = perron_ground_vector(tl_hamiltonian_matrix(L, n, [j] * (L - 1), qp.q))
                rows.append((L, n, qp.q, pf.eigenvalue, droplet_energy(n, qp),
                             droplet_bandwidth(n, qp), pf.bracket))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def expand_diagram_to_tensor(k, arcs, q=1.0):
    """Expanded vector in (C^2)^k of a diagram given by its arcs (x, y):
    q|+-> - |-+> per arc, |+> on unpaired vertices.

    The arcs must be disjoint pairs 1 <= x < y <= k (else ValueError); the
    index arithmetic below needs that.
    """
    vertices = [v for arc in arcs for v in arc]
    if len(set(vertices)) != len(vertices) or not all(1 <= x < y <= k for x, y in arcs):
        raise ValueError(f"arcs {tuple(arcs)} are not disjoint pairs 1 <= x < y <= {k}")
    v = np.zeros(2 ** k)
    base = 0  # all |+> (bit 0 = |+>), site i weight 2^(k-1-i)
    for choice in itertools.product((0, 1), repeat=len(arcs)):
        idx = base
        coeff = 1.0
        for (x, y), c in zip(arcs, choice):
            if c == 0:  # + at x, - at y
                idx |= 1 << (k - y)
                coeff *= q
            else:  # - at x, + at y
                idx |= 1 << (k - x)
                coeff *= -1.0
        v[idx] += coeff
    return v


def _symmetrizer(twice_s):
    """Isometry from the spin-s site space into (C^2)^(2s) symmetric vectors."""
    w = np.zeros((2 ** twice_s, twice_s + 1))
    for pattern in range(2 ** twice_s):
        w[pattern, bin(pattern).count("1")] = 1.0
    return w / np.sqrt([comb(twice_s, j) for j in range(twice_s + 1)])


def fk_arrow_basis(spins, S):
    """Reference: (arcs, n_down per site) and the dim x d array of the dual
    canonical basis of V^(S), the arrow-space way.

    Every ordered Ising configuration (n_down leftmost downs per site) is
    bracket matched; those without an unmatched down label the basis, in
    (last paired slot, arcs) order.  Each is expanded into the 2^(sum 2s)
    arrow states (``expand_diagram_to_tensor``) and compressed by the
    Kronecker product of the sites' symmetrizers.
    """
    caps = [s.twice for s in spins]
    n = (sum(caps) - S.twice) // 2
    compress = None
    for c in caps:
        w = sp.csr_matrix(_symmetrizer(c).T)
        compress = w if compress is None else sp.kron(compress, w, format="csr")
    found = []
    for ndowns in itertools.product(*(range(c + 1) for c in caps)):
        if sum(ndowns) != n:
            continue
        open_ups, arcs, matched = [], [], True
        slot = 0
        for c, nd in zip(caps, ndowns):
            for is_down in [True] * nd + [False] * (c - nd):
                slot += 1
                if not is_down:
                    open_ups.append(slot)
                elif open_ups:
                    arcs.append((open_ups.pop(), slot))
                else:
                    matched = False
        if matched:
            found.append((tuple(sorted(arcs)), ndowns))
    found.sort(key=lambda f: (max((y for _, y in f[0]), default=0), f[0]))
    v = np.column_stack([compress @ expand_diagram_to_tensor(sum(caps), arcs)
                         for arcs, _ in found]) if found else np.zeros((compress.shape[0], 0))
    return found, v


def fk_gram_matrix(spins, couplings, v):
    """Reference: A with H V = V A from the Gram normal equations
    (V^T V) A = V^T H V, H the normalized chain on the whole product space."""
    h = build_normalized_chain(ChainSpec(spins, couplings)).matrix
    return la.solve(v.T @ v, v.T @ (h @ v), assume_a="sym")


def collatz_wielandt_bracket(A, x):
    """The Collatz-Wielandt bracket ``perron_ground_vector`` certifies with,
    for a TLMatrix, a sparse or a dense matrix and any x > 0."""
    a = _as_csr(A)
    return _collatz_wielandt_bracket(a, abs(a), x)


def matrix_csv_tuples(a):
    """Reference: (row, col, value) of the nonzero entries of a TLMatrix, a
    sparse or a dense matrix, in row-major order, for ``reports.csv_text``
    to format cell by cell."""
    coo = _as_csr(a).tocoo()
    return list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))


def basis_csv_tuples(arc_lists):
    """Reference: (diagram id, arcs like ``1-2;3-4`` or ``empty``) of a list
    of arc tuples."""
    return [(i, ";".join(f"{x}-{y}" for x, y in arcs) or "empty")
            for i, arcs in enumerate(arc_lists)]


@dataclass(frozen=True)
class QTotalOps:
    s3: sp.csr_matrix
    sqplus: sp.csr_matrix
    sqminus: sp.csr_matrix
    t: sp.csr_matrix  # t x t x ... x t


def suq2_generators(L, qp):
    """Deformed total operators on L spin-1/2 sites.

    S+ = sum_x t x ... x t x S+_x x 1 ... 1     (t left of x)
    S- = sum_x 1 x ... x 1 x S-_x x 1/t ... 1/t (1/t right of x)
    """
    L = int(L)
    if L < 1:
        raise ValueError("need L >= 1")
    q = qp.q
    ops = spin_matrices(HalfInt(1))
    t = np.diag([1.0 / q, q])
    tinv = np.diag([q, 1.0 / q])
    shape = HilbertShape([HalfInt(1)] * L)
    s3 = sum(kron_embed(shape, {x: ops.sz}) for x in range(L))
    splus = sum(kron_embed(shape, {**{y: t for y in range(x)}, x: ops.splus})
                for x in range(L))
    sminus = sum(kron_embed(shape, {x: ops.sminus, **{y: tinv for y in range(x + 1, L)}})
                 for x in range(L))
    return QTotalOps(s3=s3, sqplus=splus, sqminus=sminus,
                     t=kron_embed(shape, {y: t for y in range(L)}))


def q_casimir(L, qp):
    """C = S+ S- + ((qT)^{-1} + qT)/(1/q - q)^2, T = t x ... x t."""
    if qp.q > 1.0 - 1e-6:
        raise ValueError("q too close to 1: the Casimir normalization diverges")
    gen = suq2_generators(L, qp)
    q = qp.q
    t_diag = gen.t.diagonal()
    qt = q * t_diag
    diag_part = (1.0 / qt + qt) / (1.0 / q - q) ** 2
    return gen.sqplus @ gen.sqminus + sp.diags(diag_part)


def q_casimir_value(S, qp):
    """Casimir eigenvalue (q^{-(2S+1)} + q^{2S+1})/(1/q - q)^2 at label S."""
    S = HalfInt.coerce(S)
    q = qp.q
    e = S.twice + 1
    return (q ** (-e) + q ** e) / (1.0 / q - q) ** 2


def xxz_boundary_coeff(delta):
    """A(Delta) = (1/2) sqrt(1 - 1/Delta^2) for the XXZ boundary field."""
    if delta <= 1:
        raise ValueError("anisotropy Delta must be > 1")
    return 0.5 * np.sqrt(1.0 - 1.0 / delta**2)


def xxz_bond(delta):
    """One XXZ bond with its share of the boundary field (4x4, spin-1/2).

    h = -[Delta^-1 (S1 S1 + S2 S2) + S3 S3 - 1/4] - A(Delta) (S3_x - S3_{x+1})
    which is the orthogonal projector onto q|+-> - |-+>.  The sign of the
    boundary term is the one that commutes with the quantum-group generators
    (t-dressing to the left of S+); with the opposite sign the kernel method
    for sector energies would not see invariant subspaces.
    """
    a = xxz_boundary_coeff(delta)
    ops = spin_matrices(HalfInt(1))
    transverse = 0.5 * (np.kron(ops.splus, ops.sminus) + np.kron(ops.sminus, ops.splus))
    zz = np.kron(ops.sz, ops.sz)
    field = np.kron(ops.sz, np.eye(2)) - np.kron(np.eye(2), ops.sz)
    return -(transverse / delta + zz - 0.25 * np.eye(4)) - a * field


def build_xxz_chain(L, delta):
    """Spin-1/2 XXZ chain of length L with the symmetric boundary field."""
    L = int(L)
    if L < 2:
        raise ValueError("XXZ chain needs L >= 2")
    if delta <= 1:
        raise ValueError("anisotropy Delta must be > 1")
    shape = HilbertShape([HalfInt(1)] * L)
    bond = xxz_bond(delta)
    return LocalHamiltonian(shape, [((x, x + 1), bond) for x in range(L - 1)])


@dataclass(frozen=True)
class BondPolynomial:
    """Polynomial sum_m coeffs[m] * (S_1.S_2)^m of a nearest-neighbour bond."""

    coeffs: tuple

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in coeffs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def of_matrix(self, m):
        out = np.zeros_like(m)
        power = np.eye(m.shape[0])
        for c in self.coeffs:
            out = out + c * power
            power = power @ m
        return out


def build_general_bond_chain(spins, couplings, polys):
    """Chain with per-bond polynomial interactions J_x * p_x(S_x.S_{x+1})."""
    spins = [HalfInt.coerce(s) for s in spins]
    couplings = [float(j) for j in couplings]
    if len(couplings) != len(spins) - 1 or len(polys) != len(spins) - 1:
        raise ValueError("need one coupling and one polynomial per bond")
    shape = HilbertShape(spins)
    terms = []
    for x, (j, poly) in enumerate(zip(couplings, polys)):
        max_deg = min(spins[x].twice, spins[x + 1].twice)
        if poly.degree > max_deg:
            raise ValueError(
                f"bond {x}: polynomial degree {poly.degree} exceeds 2*min(s1,s2) = {max_deg}"
            )
        ss = heisenberg_bond(spins[x], spins[x + 1])
        terms.append(((x, x + 1), j * poly.of_matrix(ss)))
    return LocalHamiltonian(shape, terms)


def random_connected_graph(rng, nsites, extra_edges=2, spin=HalfInt(1), j_max=2.0):
    """Random connected SpinGraph: random spanning tree plus extra edges."""
    sites = [(i, spin) for i in range(nsites)]
    edges = {}
    for v in range(1, nsites):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(j_max * (1.0 - rng.random()))
    tries = 0
    while len(edges) < nsites - 1 + extra_edges and tries < 50 * (extra_edges + 1):
        tries += 1
        u, v = rng.integers(0, nsites, size=2)
        u, v = int(min(u, v)), int(max(u, v))
        if u != v and (u, v) not in edges:
            edges[(u, v)] = float(j_max * (1.0 - rng.random()))
    return SpinGraph(sites, [(u, v, j) for (u, v), j in edges.items()])


@dataclass(frozen=True)
class MinSpecVerdict:
    hypotheses_ok: bool
    reason: str
    inf_a: float
    inf_b: float
    inequality_ok: bool
    strict_condition: str  # "", "i", "ii" (first one that applies)
    strict_ok: bool


def _inf_spec(a):
    if np.allclose(a, a.T, atol=1e-12):
        return float(la.eigvalsh(a)[0])
    return float(np.min(np.linalg.eigvals(a).real))


def min_spec_comparison(A, B):
    """inf spec(B) <= inf spec(A) for B dominating A entrywise from below.

    A is n x n, B is m x m with n <= m, both with nonpositive off-diagonal
    entries, and B_ij <= A_ij on the shared block.  If B is irreducible and
    either (i) B_ij < A_ij somewhere in the block or (ii) B has a negative
    entry involving an index beyond n, the inequality is strict.  Hypothesis
    violations are reported without making any spectral claim.
    """
    a = A.A if isinstance(A, TLMatrix) else np.asarray(A, dtype=float)
    b = B.A if isinstance(B, TLMatrix) else np.asarray(B, dtype=float)
    n, m = a.shape[0], b.shape[0]
    if n > m:
        return MinSpecVerdict(False, "A larger than B", np.nan, np.nan, False, "", False)
    for name, mat in (("A", a), ("B", b)):
        off = mat - np.diag(np.diag(mat))
        if off.size and off.max() > ENTRY_TOL:
            return MinSpecVerdict(False, f"{name} has positive off-diagonal entries",
                                  np.nan, np.nan, False, "", False)
    if (b[:n, :n] - a).max() > ENTRY_TOL:
        return MinSpecVerdict(False, "B does not dominate A from below",
                              np.nan, np.nan, False, "", False)
    inf_a, inf_b = _inf_spec(a), _inf_spec(b)
    inequality_ok = inf_b <= inf_a + 1e-10 * max(1.0, abs(inf_a))
    strict_condition = ""
    ncomp, _ = connected_components(sp.csr_matrix(b - np.diag(np.diag(b))),
                                    directed=True, connection="strong")
    if ncomp == 1:
        if np.any(b[:n, :n] < a - ENTRY_TOL):
            strict_condition = "i"
        else:
            outer = b.copy()
            outer[:n, :n] = 0.0
            np.fill_diagonal(outer, 0.0)
            if np.any(outer < -ENTRY_TOL):
                strict_condition = "ii"
    strict_ok = (not strict_condition) or (inf_b < inf_a - 0.0)
    return MinSpecVerdict(True, "", inf_a, inf_b, inequality_ok,
                          strict_condition, strict_ok)
