"""Symmetric simple exclusion process: generators, gaps, and the spin map.

The generator acts on functions of particle configurations (at most one
particle per vertex); an edge with rate r exchanges the endpoint occupations.
Everything here is spectral; no trajectories are ever sampled.

A configuration is indexed by its spin-1/2 product state, in the
convention of ``spinops``: vertex x is bit N - 1 - x, and digit 0, spin
up, means occupied.  The n-particle configurations, the indices with
N - n one-bits, are the S^3 = n - N/2 block, in increasing index order
(``spinops._s3_block`` enumerates them, with no 2^N array).  With rates
J/2 the generator is then the matrix of sum_edges J (1/4 - S_x.S_y) index
for index (Caputo-Liggett-Richthammer), so the spin map compares the two
with no relabelling.

Everything is sparse: a sector generator is one CSR matrix assembled from
per-edge index arrays, and the spin map compares the 2^N-dimensional
generator with the Heisenberg matrix as sparse matrices; each spin-map
sector is solved once, as the generator (see ``verify_spin_map``).

Sector N - n is sector n under the complement map eta -> ~eta, which
reverses the index order (index i goes to 2^N - 1 - i), so the gap tables
solve n <= N/2 (largest first, so its memory guard fires before any
solve) and copy each row n > N/2 from row N - n.  A gap is
certified from one eigenpair: dense ``eigh`` below GAP_SPARSE_MIN_DIM;
above it Lanczos ``eigsh`` for the one lowest pair of the generator with
its known zero mode, the uniform vector, deflated (shifted above the whole
spectrum).  The certificates: the configuration graph is connected (so the zero mode is
simple), the uniform vector has residual at most ZERO_MODE_TOL, the gap
pair has a small residual and is orthogonal to the uniform vector.  Memory
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
from .linalg import RESIDUAL_TOL, max_abs, require_memory
from .spinops import HalfInt, HilbertShape, _s3_block

__all__ = [
    "SSEPGenerator",
    "ssep_generator",
    "spectral_gap",
    "check_aldous",
    "gap_graph_problem",
    "AldousReport",
    "verify_spin_map",
    "SpinMapResult",
    "ssep_csv_rows",
]

ZERO_MODE_TOL = 1e-10
# Certified dense eigh of the one pair is faster below this sector
# dimension, the deflated one-pair Lanczos above it.  Best of 5 on
# path-graph sectors, dense vs Lanczos (2 BLAS threads, 2-vCPU VM): 2.3 vs
# 3.5 ms at m = 220, 2.8 vs 3.7 ms at m = 252, 4.7 vs 4.3 ms at m = 330,
# 8.9 vs 5.4 ms at m = 462 and 10.7 vs 5.6 ms at m = 495.
GAP_SPARSE_MIN_DIM = 250
# Memory estimate: bytes per row entry bound (the configuration, the
# diagonal and one entry per edge), per edge (the arrays each edge keeps
# until they are joined), and the number of 2^N-row matrices alive at once
# in the spin map.  ``ssep_generator`` peaks at 0.40-0.95x the estimate
# (tracemalloc; path and star graphs, N = 8-18; complete graphs, N = 8-16).
BYTES_PER_ENTRY = 40
BYTES_PER_EDGE = 1024
SPIN_MAP_MATRICES = 4


@dataclass(frozen=True)
class SSEPGenerator:
    """Generator matrix restricted to the n-particle configurations."""

    n: int
    configs: np.ndarray  # int64 spin-1/2 product indices (module docstring), sorted
    L: sp.csr_matrix


def _edge_rates(g):
    """(bit of u, bit of v, J) of every edge, vertex x at bit N - 1 - x;
    ``SpinGraph`` has J > 0."""
    top = g.nsites - 1
    return [(top - g.site_position(u), top - g.site_position(v), j) for u, v, j in g.edges]


def _assemble(edge_rates, configs):
    """Sparse generator on sorted configuration indices.

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
    """Upper estimate of the memory held while one generator is enumerated
    and assembled."""
    return BYTES_PER_ENTRY * dim * (2 + nedges) + BYTES_PER_EDGE * nedges


def ssep_generator(g: SpinGraph, n=1):
    """Exclusion-process generator on the n-particle sector of a graph,
    with the graph's couplings as jump rates."""
    nsites = g.nsites
    if not 0 <= n <= nsites:
        raise ValueError(f"particle number {n} out of range")
    edge_rates = _edge_rates(g)
    require_memory(_matrix_bytes(comb(nsites, n), len(edge_rates)),
                   f"the {n}-particle generator")
    configs = _s3_block(HilbertShape([HalfInt(1)] * nsites), HalfInt(2 * n - nsites))
    return SSEPGenerator(n=n, configs=configs, L=_assemble(edge_rates, configs))


def _certified_gap(a):
    """Certified smallest positive eigenpair (theta, v) of a generator-like matrix.

    a must be a sparse symmetric matrix with nonpositive off-diagonal entries
    and zero row sums (a weighted graph Laplacian): the uniform vector 1 is
    its zero mode, simple exactly when the off-diagonal graph is connected.
    Dense ``eigh`` of that one pair below GAP_SPARSE_MIN_DIM.  Above it,
    Lanczos ``eigsh`` for the one lowest pair of the deflated operator
    x -> a x + sigma mean(x) 1 with sigma = 2 ||a||_inf, from a fixed random
    start vector: the shift lifts the zero mode above the whole spectrum
    (Gershgorin), so the lowest Ritz pair is the gap.  Certified, else
    NumericalError:
    - the off-diagonal graph is connected with no positive entry;
    - ||a 1||_inf <= ZERO_MODE_TOL, the residual of the exact zero mode
      (it bounds |lambda_0|);
    - ||a v - theta v|| <= RESIDUAL_TOL ||a||_inf ||v|| on the unshifted a;
    - |<1, v>| <= RESIDUAL_TOL sqrt(m) ||v|| and theta > ZERO_MODE_TOL, so
      the zero mode cannot pass as the gap.
    """
    m = a.shape[0]
    upper = sp.triu(a, k=1, format="csr")
    upper.eliminate_zeros()
    if upper.nnz and upper.data.max() > 0.0:
        raise NumericalError("positive off-diagonal entry: not a generator")
    ncomp, _ = connected_components(upper, directed=False)
    if ncomp != 1:
        raise NumericalError(
            f"zero eigenvalue not simple ({ncomp} connected components of the "
            "configuration graph); is the graph disconnected?"
        )
    if m < 2:
        raise NumericalError("sector too small to have a gap")
    drift = float(np.abs(a @ np.ones(m)).max())
    if drift > ZERO_MODE_TOL:
        raise NumericalError(f"the uniform vector is not the zero mode "
                             f"(row sums up to {drift:.3e})")
    scale = float(abs(a).sum(axis=1).max())
    if m < GAP_SPARSE_MIN_DIM:
        w, vecs = la.eigh(a.toarray(), subset_by_index=[1, 1])
        theta, v = float(w[0]), vecs[:, 0]
    else:
        shift = 2.0 * scale / m  # sigma / m
        deflated = sla.LinearOperator((m, m), dtype=float,
                                      matvec=lambda x: a @ x + shift * x.sum())
        v0 = np.random.default_rng(0).standard_normal(m)
        try:
            w, vecs = sla.eigsh(deflated, k=1, which="SA", v0=v0, tol=0)
        except sla.ArpackNoConvergence as exc:
            raise NumericalError(f"Lanczos eigsh did not converge: {exc}") from exc
        theta, v = float(w[0]), vecs[:, 0]
    norm_v = np.linalg.norm(v)
    residual = float(np.linalg.norm(a @ v - theta * v))
    if residual > RESIDUAL_TOL * scale * norm_v:
        raise NumericalError(f"gap eigenpair residual {residual:.3e} too large")
    overlap = abs(float(v.sum()))
    if overlap > RESIDUAL_TOL * np.sqrt(m) * norm_v or theta <= ZERO_MODE_TOL:
        raise NumericalError(f"gap eigenpair (theta = {theta:.3e}, overlap "
                             f"{overlap:.3e} with the uniform vector) is the zero mode")
    return theta, v


def spectral_gap(gen: SSEPGenerator):
    """Smallest positive eigenvalue of the sector generator.

    The zero eigenvalue must be simple (uniform measure on a connected
    graph); otherwise a diagnostic error is raised.
    """
    return _certified_gap(gen.L)[0]


def _mirrored(nsites, solve):
    """[solve(n) for n = 1 .. N - 1], calling solve only for n <= N/2.

    The complement map eta -> ~eta carries the n-particle configurations
    onto the (N - n)-particle ones in reversed index order and the
    generator onto itself, so sector N - n repeats the solved sector n.
    """
    solved = [solve(n) for n in range(nsites // 2, 0, -1)][::-1]  # largest sector first
    return [solved[min(n, nsites - n) - 1] for n in range(1, nsites)]


def gap_graph_problem(g, spin_half=False):
    """What keeps g from the gap equality (two or more sites, connected)
    and, with spin_half, from the spin map (every spin 1/2), or None."""
    if g.nsites < 2:
        return f"needs at least two sites, got {g.nsites}"
    if not g.is_connected():
        return "is disconnected; it needs a connected graph"
    if spin_half and any(s != HalfInt(1) for _, s in g.sites):
        return "needs every site to carry spin 1/2"
    return None


@dataclass(frozen=True)
class AldousReport:
    rows: tuple  # (n, sector_dim, lambda_n)
    lambda_1: float
    max_rel_deviation: float
    ok: bool


def check_aldous(g: SpinGraph, rel_tol=1e-9):
    """Gap table over all particle numbers and the gap-equality verdict.

    Sectors n <= N/2 are solved; sector N - n has the same gap
    (particle-hole symmetry) and keeps its own n and C(N, n).
    """
    if problem := gap_graph_problem(g):
        raise ValueError(f"the graph {problem}")
    nsites = g.nsites
    gaps = _mirrored(nsites, lambda n: spectral_gap(ssep_generator(g, n=n)))
    rows = tuple((n, comb(nsites, n), lam) for n, lam in enumerate(gaps, start=1))
    lam1 = rows[0][2]
    max_rel = max(abs(lam - lam1) / lam1 for _, _, lam in rows)
    return AldousReport(rows=rows, lambda_1=lam1,
                        max_rel_deviation=max_rel, ok=max_rel <= rel_tol)


@dataclass(frozen=True)
class SpinMapResult:
    max_deviation: float
    eigenvalue_bound: float  # ||mapped generator - H||_inf, at least its 2-norm
    ok: bool
    sector_rows: tuple  # (n, lambda_n, x.Hx / x.x at the mapped gap vector x, diff)


def verify_spin_map(g: SpinGraph):
    """Unitary equivalence of the exclusion generator and the spin chain.

    With all spins 1/2, H = sum_edges J (1/4 - S_x.S_y) and the generator
    with rates J/2 agree entrywise on the shared index of the module
    docstring, where S3_x |eta> = (eta_x - 1/2) |eta>.  The gap in the
    n-particle sector then equals the second-lowest H eigenvalue in the
    S^3 = n - |graph|/2 block.  Each sector is solved once, as the
    generator; the row's H value is x.Hx / x.x at its certified gap vector
    v, placed at the sector's indices as x.  E = generator - H is
    symmetric, so ``eigenvalue_bound`` = ||E||_inf >= ||E||_2 and Weyl's
    inequality give |x.Hx / x.x - lambda_2(H block)| <= 2 eigenvalue_bound
    + ||L v - lambda_n v|| / ||v||.  ``ok`` needs every entry to agree to
    1e-12 and every gap to 1e-9 relative.  Row N - n repeats the solved row
    n <= N/2 (particle-hole symmetry; the spin flip M -> -M on the H side).
    """
    if problem := gap_graph_problem(g, spin_half=True):
        raise ValueError(f"the graph {problem}")
    nsites = g.nsites
    dim = 2 ** nsites
    half_rates = [(pu, pv, 0.5 * r) for pu, pv, r in _edge_rates(g)]
    require_memory(SPIN_MAP_MATRICES * _matrix_bytes(dim, len(half_rates)),
                   f"the {nsites}-site spin map")
    # J (1/4 - S.S) summed over edges; the builder already carries -J S.S
    h = build_heisenberg(g).matrix
    h = h + 0.25 * sum(j for _, _, j in g.edges) * sp.identity(dim, format="csr")
    delta = _assemble(half_rates, np.arange(dim, dtype=np.int64)) - h
    dev, bound = max_abs(delta), float(abs(delta).sum(axis=1).max())
    del delta

    def solve(n):
        sector = _s3_block(g.shape, HalfInt(2 * n - nsites))
        lam, v = _certified_gap(_assemble(half_rates, sector))
        x = np.zeros(dim)
        x[sector] = v
        second = float(x @ (h @ x) / (x @ x))
        return lam, second, abs(lam - second)

    rows = tuple((n,) + row for n, row in enumerate(_mirrored(nsites, solve), start=1))
    gaps_ok = all(diff <= 1e-9 * max(1.0, lam) for _, lam, _, diff in rows)
    return SpinMapResult(max_deviation=float(dev), eigenvalue_bound=bound,
                         ok=dev <= 1e-12 and gaps_ok, sector_rows=rows)


def ssep_csv_rows(report: AldousReport):
    """(n, sector_dim, lambda_n, lambda_1, relative_deviation) rows."""
    lam1 = report.lambda_1
    return [(n, dim, lam, lam1, abs(lam - lam1) / lam1)
            for n, dim, lam in report.rows]
