"""Symmetric simple exclusion process: generators, gaps, and the spin map.

The generator acts on functions of particle configurations (at most one
particle per vertex); an edge with rate r exchanges the endpoint occupations.
Everything here is spectral; no trajectories are ever sampled.

Configurations are ordered by the integer value of their occupation
bit-vector, vertex i contributing bit i.

Everything is sparse: a sector generator is one CSR matrix assembled from
per-edge index arrays, and the spin map compares the 2^N-dimensional
generator with the Heisenberg matrix as sparse matrices.  Each gap comes from the two lowest eigenvalues of
a sector: dense ``eigvalsh`` below GAP_SPARSE_MIN_DIM, Lanczos ``eigsh``
above it.  Both routes certify the result: the configuration graph is
connected (so the zero mode is simple), the lowest eigenvalue is zero to
ZERO_MODE_TOL and the gap eigenpair has a small residual.  Memory
estimates made before assembly turn requests larger than physical memory
into NumericalError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as sla
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError
from .hamiltonians import SpinGraph, build_heisenberg
from .linalg import eigvalsh_full, max_abs, require_memory
from .linalg import physical_memory_bytes as _physical_memory_bytes  # patchable probe
from .sectors import s3_blocks
from .spinops import HalfInt, RealOperator

__all__ = [
    "SSEPGenerator",
    "ssep_generator",
    "spectral_gap",
    "check_aldous",
    "AldousReport",
    "verify_spin_map",
    "SpinMapResult",
    "ssep_csv_rows",
]

ZERO_MODE_TOL = 1e-10
RESIDUAL_TOL = 1e-9
# Certified dense eigvalsh is faster below this sector dimension, Lanczos
# above it (measured: 9.3 vs 11.3 ms at m = 330, 21 vs 11 ms at m = 462).
GAP_SPARSE_MIN_DIM = 400
# Memory estimate: bytes per row entry bound (1 + edges per row), and the
# number of 2^N-row matrices alive at once in the spin map; an upper bound,
# about 3x the tracemalloc peak at N = 12..16.
BYTES_PER_ENTRY = 32
SPIN_MAP_MATRICES = 4


@dataclass(frozen=True)
class SSEPGenerator:
    """Generator matrix restricted to the n-particle configurations."""

    n: int
    configs: np.ndarray  # int64 occupation integers (bit i = vertex i), sorted
    L: RealOperator


def _edge_rates(g, rates):
    out = []
    for u, v, j in g.edges:
        r = j if rates is None else float(rates[(u, v)])
        if r <= 0:
            raise ValueError(f"nonpositive rate on edge ({u},{v})")
        out.append((g.site_position(u), g.site_position(v), r))
    return out


def _config_ints(nsites, n):
    """Occupation integers with n particles, in increasing order."""
    ints = np.arange(2 ** nsites, dtype=np.int64)
    count = np.zeros(ints.shape, dtype=np.int64)
    for p in range(nsites):
        count += (ints >> p) & 1
    return ints[count == n]


def _assemble(edge_rates, configs):
    """Sparse generator on sorted occupation integers.

    The diagonal is accumulated edge by edge in edge order, the same
    floating-point sums as a per-configuration loop over the edges.
    """
    dim = len(configs)
    diag = np.zeros(dim)
    rows, cols, vals = [np.arange(dim)], [np.arange(dim)], [diag]
    for pu, pv, r in edge_rates:
        active = np.nonzero(((configs >> pu) ^ (configs >> pv)) & 1)[0]
        diag[active] += r
        swapped = configs[active] ^ ((1 << pu) | (1 << pv))
        rows.append(active)
        cols.append(np.searchsorted(configs, swapped))
        vals.append(np.full(len(active), -r))
    return sp.csr_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(dim, dim))


def _matrix_bytes(dim, nedges):
    """Upper estimate of the memory held while one generator is assembled."""
    return BYTES_PER_ENTRY * dim * (1 + nedges)


def ssep_generator(g: SpinGraph, rates=None, n=1):
    """Exclusion-process generator on the n-particle sector of a graph.

    rates maps (u, v) edge ids to positive jump rates; by default the
    graph's couplings are used.
    """
    nsites = g.nsites
    if not 0 <= n <= nsites:
        raise ValueError(f"particle number {n} out of range")
    edge_rates = _edge_rates(g, rates)
    require_memory(_matrix_bytes(comb(nsites, n), len(edge_rates)) + 24 * 2 ** nsites,
                   _physical_memory_bytes(), f"the {n}-particle generator")
    configs = _config_ints(nsites, n)
    return SSEPGenerator(n=n, configs=configs, L=RealOperator(_assemble(edge_rates, configs)))


def _lowest_two(a):
    """Certified (lambda_0, lambda_1) of a symmetric generator-like matrix.

    a must be a sparse symmetric matrix with nonpositive off-diagonal entries
    and zero row sums (a weighted graph Laplacian), so its zero eigenvalue is
    simple exactly when the off-diagonal graph is connected.  Dense
    ``eigvalsh`` below GAP_SPARSE_MIN_DIM, Lanczos ``eigsh`` above it from a
    fixed random start vector (the uniform vector is the zero mode and spans
    an invariant subspace on its own).  Certified, else NumericalError:
    a connected graph, |lambda_0| <= ZERO_MODE_TOL and
    ||a v - lambda_1 v|| <= RESIDUAL_TOL ||a||_inf ||v||.
    """
    m = a.shape[0]
    upper = sp.triu(a, k=1, format="csr")
    upper.eliminate_zeros()
    ncomp, _ = connected_components(upper, directed=False)
    if ncomp != 1:
        raise NumericalError(
            f"zero eigenvalue not simple ({ncomp} connected components of the "
            "configuration graph); is the graph disconnected?"
        )
    if m < 2:
        raise NumericalError("sector too small to have a gap")
    if m < max(GAP_SPARSE_MIN_DIM, 3):  # eigsh needs k < m
        dense = a.toarray()
        w = eigvalsh_full(dense)
        v = la.eigh(dense, subset_by_index=[1, 1])[1][:, 0]
    else:
        v0 = np.random.default_rng(0).standard_normal(m)
        try:
            w, vecs = sla.eigsh(a, k=2, which="SA", v0=v0, tol=0)
        except sla.ArpackNoConvergence as exc:
            raise NumericalError(f"Lanczos eigsh did not converge: {exc}") from exc
        order = np.argsort(w)
        w, v = w[order], vecs[:, order[1]]
    lam0, lam1 = float(w[0]), float(w[1])
    if abs(lam0) > ZERO_MODE_TOL:
        raise NumericalError(f"lowest eigenvalue {lam0:.3e} is not the zero mode")
    scale = float(abs(a).sum(axis=1).max())
    residual = float(np.linalg.norm(a @ v - lam1 * v))
    if residual > RESIDUAL_TOL * scale * np.linalg.norm(v):
        raise NumericalError(f"gap eigenpair residual {residual:.3e} too large")
    return lam0, lam1


def spectral_gap(gen: SSEPGenerator):
    """Smallest positive eigenvalue of the sector generator.

    The zero eigenvalue must be simple (uniform measure on a connected
    graph); otherwise a diagnostic error is raised.
    """
    return _lowest_two(gen.L.matrix)[1]


@dataclass(frozen=True)
class AldousReport:
    rows: tuple  # (n, sector_dim, lambda_n)
    lambda_1: float
    max_rel_deviation: float
    ok: bool


def check_aldous(g: SpinGraph, rel_tol=1e-9):
    """Gap table over all particle numbers and the gap-equality verdict."""
    if not g.is_connected():
        raise ValueError("gap equality is stated for connected graphs")
    rows = []
    for n in range(1, g.nsites):
        gen = ssep_generator(g, n=n)
        rows.append((n, len(gen.configs), spectral_gap(gen)))
    lam1 = rows[0][2]
    max_rel = max(abs(lam - lam1) / lam1 for _, _, lam in rows)
    return AldousReport(rows=tuple(rows), lambda_1=lam1,
                        max_rel_deviation=max_rel, ok=max_rel <= rel_tol)


@dataclass(frozen=True)
class SpinMapResult:
    max_deviation: float
    ok: bool
    sector_rows: tuple  # (n, lambda_n, second H eigenvalue in the block, diff)


def verify_spin_map(g: SpinGraph):
    """Unitary equivalence of the exclusion generator and the spin chain.

    With all spins 1/2, H = sum_edges J (1/4 - S_x.S_y) and the generator
    with rates J/2 agree entrywise once configurations eta are identified
    with product states via S3_x |eta> = (eta_x - 1/2) |eta>.  The gap in the
    n-particle sector then equals the second-lowest H eigenvalue in the
    S^3 = n - |graph|/2 block.  ``ok`` needs every entry to agree to 1e-12
    and every gap to 1e-9 relative.
    """
    if any(s != HalfInt(1) for _, s in g.sites):
        raise ValueError("the spin map needs every site to carry spin 1/2")
    nsites = g.nsites
    dim = 2 ** nsites
    half_rates = [(pu, pv, 0.5 * r) for pu, pv, r in _edge_rates(g, None)]
    require_memory(SPIN_MAP_MATRICES * _matrix_bytes(dim, len(half_rates)),
                   _physical_memory_bytes(), f"the {nsites}-site spin map")
    configs = np.arange(dim, dtype=np.int64)
    full = _assemble(half_rates, configs).tocoo()

    # eta -> tensor index: occupied means spin up, site 0 varies slowest,
    # i.e. the bit reversal of the complement of eta
    holes = configs ^ (dim - 1)
    perm = np.zeros(dim, dtype=np.int64)
    for p in range(nsites):
        perm |= ((holes >> p) & 1) << (nsites - 1 - p)
    mapped = sp.csr_matrix((full.data, (perm[full.row], perm[full.col])),
                           shape=full.shape)
    del full

    # J (1/4 - S.S) summed over edges; the builder already carries -J S.S
    h = build_heisenberg(g).matrix
    h = h + 0.25 * sum(j for _, _, j in g.edges) * sp.identity(dim, format="csr")
    dev = max_abs(mapped - h)
    del mapped

    blocks = s3_blocks(g.shape)
    rows = []
    gaps_ok = True
    for n in range(1, nsites):
        gen = ssep_generator(g, {(u, v): 0.5 * j for u, v, j in g.edges}, n)
        lam = spectral_gap(gen)
        idx = blocks[HalfInt(2 * n - nsites)]
        second = _lowest_two(h[idx][:, idx])[1]
        diff = abs(lam - second)
        rows.append((n, lam, second, diff))
        if diff > 1e-9 * max(1.0, lam):
            gaps_ok = False
    return SpinMapResult(max_deviation=float(dev),
                         ok=dev <= 1e-12 and gaps_ok,
                         sector_rows=tuple(rows))


def ssep_csv_rows(report: AldousReport):
    """(n, sector_dim, lambda_n, lambda_1, relative_deviation) rows."""
    lam1 = report.lambda_1
    return [(n, dim, lam, lam1, abs(lam - lam1) / lam1)
            for n, dim, lam in report.rows]
