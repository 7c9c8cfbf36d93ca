"""Spectral decomposition by S^3 and by total spin, and level-ordering checks.

Sector energies E(H,S) are the spectrum of H on the highest-weight space
V^(S) = ker(S+) within the S^3 = S block; the label set and dim V^(S) come
from S^3 block-count differences, counted from the site spins without the
product space.  No product-space matrix is formed: invariance is checked
per local term of the ``LocalHamiltonian`` H (against its own sites' S3
and S+), and each route assembles from the terms only the blocks it
solves, H_MM on the sorted indices of the M block and the S+ maps between
blocks (``spinops._local_sum`` on ``spinops._s3_block``); a term within
the tolerance that changes M drops out.  The solve extracts no kernel.
On the M block, B^T B = S-S+ (B = S+ from M to M+1) commutes with H and
is lambda_S = S(S+1) - M(M+1) on every spin-S multiplet, S >= M;
lambda_{S+1} - lambda_S = 2S+2 >= 2M+2.
With g_lo, g_hi the Gershgorin bounds of H_MM (every sector S >= M has its
spectrum in [g_lo, g_hi]) and mu = (g_hi - g_lo + 1)/(2M+2), the spectrum
of H_MM + mu B^T B is the disjoint union over S >= M of
spec H|V^(S) + mu lambda_S: bands in increasing S, consecutive ones at
least 1 apart.

Blocks below SECTOR_SPARSE_MIN_DIM are solved densely.  They are the top
blocks (block sizes grow from M = S_max down to 0), so one ``eigvalsh`` on
the lowest of them, M*, gives every dense sector at once: its ascending
eigenvalues split into runs of dim V^(S), S = M*, M*+1, ... upward, and
run S minus mu lambda_S is the spectrum of H on V^(S).  The full spectra
and the low-energy cross-check come from the same solve on M* = 0 or 1/2,
the largest block: block M is the sum of V^(S) over S >= |M|, so its
spectrum is the union of those bands.  mu B^T B is added
to the dense H block from B's stored entries (mu v_i v_j for each pair in
a row), with no sparse or dense matrix product, and the solve overwrites
that one array.  The certificate: the dimensions fill the block, and each
shifted run lies in [g_lo - tol_S, g_hi + tol_S], tol_S = 1e-9 max(1,
|g_lo|, |g_hi|, mu lambda_S); else NumericalError.  Larger blocks need
only the two extremes, from Lanczos ``eigsh`` on H_MM +- c B^T B with
M = S and c = mu, applied as sparse products: the other multiplets of the
first sit at or above g_hi + 1, those of the second at or below g_lo - 1.
There S+ is certified first ([S+, S-] = 2 S3 on a random vector of the
M = S + 1 block, with B' the S+ map from M = S + 1 to S + 2), then each
Ritz pair by its residual, by ||B v|| ~ 0 (v is a highest-weight vector)
and by min <= g_hi, max >= g_lo.  A failed certificate or ARPACK non-convergence
raises NumericalError.  Both routes check a memory estimate, from block
sizes counted by ``sector_labels``, before they enumerate a block; the
sparse one bounds the stored entries from the terms (per term, its most
off-diagonal entries in one local column) and solves largest block first.

The q-deformed sectors avoid the penalty, because (S+_q)^T S+_q has a
condition number growing like q^-L, which would drown the penalty gap in
rounding; ``qgroup`` uses the diagram basis.  The oracles the tests
compare both routes against, the SVD basis of ker(S+), the Casimir
projector and one penalized solve per sector on its own block, live in
``tests/reference.py``.

Spin-1/2 chains need neither route: ``temperley_lieb.diagram_sector_energies``
reads each sector from its arc-diagram basis, with no 2^L product space,
and ``temperley_lieb.chain_sector_energies`` sends them there.  Graphs,
higher and mixed spins come here, and so do the spin-1/2 chains whose
diagram-route certificates are refused.

Every route returns a ``SectorReport`` of ``SectorEntry`` records: here,
on the diagram route and in ``qgroup``.  An entry carries the
Collatz-Wielandt bracket of its minimum on the diagram and q routes and
None here; its maximum is None on the q route, which solves none.  Every
ordering verdict comes from one rule, ``_ordering``: ``check_foel(report,
tol)`` applies it to the minima (FOEL, and q-FOEL on a ``qgroup`` report),
``check_max_ordering`` to the maxima.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as sla

from .errors import NonInvariantOperatorError, NumericalError
from .linalg import RESIDUAL_TOL, max_abs, require_memory
from .spinops import HalfInt, HilbertShape, _local_sum, _s3_block, spin_matrices

__all__ = [
    "SectorEntry",
    "SectorReport",
    "FoelVerdict",
    "sector_labels",
    "sector_energies",
    "check_foel",
    "check_max_ordering",
    "full_spectrum_by_s3",
    "low_energy_by_deviation",
    "sector_csv_rows",
    "spectrum_csv_rows",
]

STRICT_FOEL_TOL = 1e-8
INVARIANCE_TOL = 1e-10
# Dense m x m float64 arrays estimated per banded solve: the block, which
# the solve overwrites in place, plus index arrays (tracemalloc peak: 1.33
# at m = 924)
DENSE_BLOCK_ARRAYS = 2
# S^3 blocks from about this dimension take Lanczos ``eigsh`` for both
# extremes; the smaller (top) ones share one banded ``eigvalsh`` on the
# lowest of them.  ``sector_energies`` with this constant at m + 1 vs m
# (block m dense vs Lanczos), best of 5, 2 BLAS threads, 2-vCPU x86 VM:
# 0.043 vs 0.067 s at m = 924 (12 spin-1/2), 0.43 vs 0.44 s at m = 1001
# (14 spin-1/2), 0.081 vs 0.113 s at m = 1107 and 0.11 vs 0.12 s at
# m = 1016 (8 spin-1), 0.19 vs 0.17 s at m = 1137 and 1177 (mixed spins),
# 0.19 vs 0.14 s at m = 1287 (13 spin-1/2, uniform).  The crossover lies
# between about 1000 and 1300 depending on the chain, so the constant stays.
SECTOR_SPARSE_MIN_DIM = 1000
# Sparse-route memory estimate: bytes per ``_entry_bound`` entry of H_MM,
# B and B' and the length-m float64 vectors alive in ARPACK (20 Lanczos
# vectors plus work vectors); 1.47-1.95x the tracemalloc peak (at most 16.0
# B per bounded entry) on spin-1/2 chains at L = 13-16, a 14-site graph,
# spin-1 chains at L = 8 (beta = 0, 0.4) and a mixed 9-site chain.
SPARSE_BYTES_PER_ENTRY = 24
LANCZOS_VECTORS = 32


@dataclass(frozen=True)
class SectorEntry:
    min_energy: float
    max_energy: float | None  # None on the q route
    dimension: int
    bracket: tuple | None = None  # Collatz-Wielandt (lo, hi) of min_energy; diagram and q routes


@dataclass(frozen=True)
class SectorReport:
    """Per-total-spin energies; ``check_foel`` and ``check_max_ordering``
    read the verdicts off them."""

    entries: dict  # HalfInt S -> SectorEntry

    @property
    def labels(self):
        return sorted(self.entries, reverse=True)

    @property
    def s_max(self):
        return self.labels[0]


@dataclass(frozen=True)
class FoelVerdict:
    ok: bool
    margins: list  # (S_hi, S_lo, gap) over adjacent present labels
    crossings: list  # pairs with |gap| <= tol
    violations: list  # pairs with gap < -tol

    @property
    def min_margin(self):
        return min((g for _, _, g in self.margins), default=np.inf)


def sector_labels(shape):
    """Total-spin labels present, S descending, with highest-weight dimensions.

    dim V^(S) = N(M=S) - N(M=S+1) where N is the S^3 block size; labels with
    zero difference do not occur in the decomposition.  N is counted, not
    read off the product space: the per-site multiplicities (one state for
    each m = s, ..., -s) convolved as exact integers.
    """
    counts = np.ones(1, dtype=np.int64)
    for s in shape.spins:
        counts = np.convolve(counts, np.ones(s.twice + 1, dtype=np.int64))
    # counts[k] states have 2M = 2 s_max - 2k; keep M >= 0
    dims = np.diff(counts[: shape.s_max.twice // 2 + 1], prepend=0)
    return {HalfInt(shape.s_max.twice - 2 * k): int(d) for k, d in enumerate(dims) if d > 0}


def _block_size(labels, M):
    """Size of the S^3 = M block: one state of each multiplet S >= |M|."""
    return sum(d for S, d in labels.items() if S.twice >= abs(M.twice))


def _raising_terms(shape):
    """Total S^+ as one one-site term per site."""
    return [((x,), spin_matrices(s).splus) for x, s in enumerate(shape.spins)]


@functools.lru_cache(maxsize=64)
def _site_totals(twice):
    """(2 S^3 diagonal, dense S^+) on the tensor product of sites with
    these twice-spins, the first slowest (cached, read-only)."""
    shape = HilbertShape([HalfInt(t) for t in twice])
    twice_m, splus = 2 * shape.total_m(), _local_sum(shape, _raising_terms(shape)).toarray()
    for a in (twice_m, splus):
        a.flags.writeable = False
    return twice_m, splus


def _check_invariance(H):
    """NonInvariantOperatorError unless every term of H commutes with its
    own sites' S^3 (checked first, as max |h_ab| |m_a - m_b|) and S^+, to
    INVARIANCE_TOL max(1, largest |term entry|)."""
    tol = INVARIANCE_TOL * max([1.0] + [max_abs(local) for _, local in H.terms])
    totals = [_site_totals(tuple(H.shape.spins[x].twice for x in sites))
              for sites, _ in H.terms]
    dz = max([max_abs(np.abs(local) * np.subtract.outer(m, m)) / 2
              for (_, local), (m, _) in zip(H.terms, totals)], default=0.0)
    if dz > tol:
        raise NonInvariantOperatorError(f"[H, S3] = {dz:.3e}")
    dz = max([max_abs(local @ splus - splus @ local)
              for (_, local), (_, splus) in zip(H.terms, totals)], default=0.0)
    if dz > tol:
        raise NonInvariantOperatorError(f"[H, S+] = {dz:.3e}")


def _entry_bound(terms, m):
    """Upper bound on the stored entries of a sum of ``terms`` on m states:
    the diagonal and, per term, its most off-diagonal entries in a column."""
    per_column = [np.count_nonzero(local - np.diag(np.diagonal(local)), axis=0).max(initial=0)
                  for _, local in terms]
    return m * (1 + int(sum(per_column)))


def _sector_bands(H, labels, M):
    """{S: ascending spectrum of H on V^(S)} for every label S >= M, from
    the certified banded ``eigvalsh`` on the M block (module docstring);
    NumericalError if the certificate fails."""
    m = _block_size(labels, M)
    require_memory(DENSE_BLOCK_ARRAYS * 8 * m ** 2, f"the dense M={M} block of dimension {m}")
    present = sorted(S for S in labels if S >= M)
    states = _s3_block(H.shape, M)
    if len(states) != m:
        raise NumericalError(f"sector dimensions {[labels[S] for S in present]} "
                             f"do not fill the M={M} block of dimension {len(states)}")
    b = _local_sum(H.shape, _raising_terms(H.shape), states, _s3_block(H.shape, M + HalfInt(2)))
    h = _local_sum(H.shape, H.terms, states)
    hb = h.toarray()
    rowsum = np.bincount(np.repeat(np.arange(m), np.diff(h.indptr)),
                         weights=np.abs(h.data), minlength=m)
    del h
    diag = hb.diagonal().copy()
    g_lo, g_hi, mu, slack = _penalty(diag, rowsum - np.abs(diag), M)
    # every pair (i, j) of stored entries in one row of B adds mu v_i v_j
    k = np.diff(b.indptr)
    first = np.repeat(b.indptr[:-1], k * k)
    width = np.repeat(k, k * k)
    t = np.arange(width.size) - np.repeat(np.cumsum(k * k) - k * k, k * k)
    i, j = first + t // width, first + t % width
    np.add.at(hb, (b.indices[i], b.indices[j]), mu * b.data[i] * b.data[j])
    # hb is symmetric, so its transpose is the same matrix, in the Fortran
    # order LAPACK overwrites without a copy
    w = la.eigvalsh(hb.T, overwrite_a=True)
    bands, start = {}, 0
    for S in present:
        # lambda_S = S(S+1) - M(M+1), exact from the twice-values
        shift = mu * ((S.twice * (S.twice + 2) - M.twice * (M.twice + 2)) // 4)
        run = w[start:start + labels[S]] - shift
        start += labels[S]
        tol = max(slack, 1e-9 * shift)
        if run[0] < g_lo - tol or run[-1] > g_hi + tol:
            raise NumericalError(f"S+ penalty band S={S} on the M={M} block leaves "
                                 f"[{g_lo:.6g}, {g_hi:.6g}]: [{run[0]:.6g}, {run[-1]:.6g}]")
        bands[S] = run
    return bands


def _penalty(diag, radius, S):
    """Gershgorin bounds g_lo, g_hi of a block, the penalty weight c and the
    rounding slack of the certificates."""
    g_lo, g_hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    c = (g_hi - g_lo + 1.0) / (S.twice + 2)
    return g_lo, g_hi, c, 1e-9 * max(1.0, abs(g_lo), abs(g_hi))


def _sector_extremes(H, labels, S):
    """(min, max) of H on V^(S) by Lanczos, without a dense block.

    The lowest eigenvalue of H_MM + c B^T B and the highest of
    H_MM - c B^T B (module docstring), each from ``eigsh`` with k = 1, a
    fixed random start vector and tol = 0, applied as H_MM x +- c B^T (B x)
    so B^T B is never formed.  S+ is certified first: on a seeded random x
    in the M = S + 1 block, with B' the S+ map from M = S + 1 to S + 2,
    ||B B^T x - B'^T B' x - (2S + 2) x|| is at most
    INVARIANCE_TOL S_max (S_max + 1) ||x||, i.e. [S+, S-] = 2 S3 there.
    Then B B^T >= 2S + 2, so dim ker B = d and every other multiplet of
    B^T B sits at 2S + 2 or above.  Each Ritz pair (theta, v) is certified
    too, else NumericalError: ||H_MM v - theta v|| and ||B v|| at most
    RESIDUAL_TOL max(1, |g_lo|, |g_hi|) ||v||, min <= g_hi and max >= g_lo.
    """
    shape = H.shape
    m = _block_size(labels, S)
    # H_MM, and S+ on the M = S and S + 1 blocks (B and B')
    nnz = (_entry_bound(H.terms, m)
           + _entry_bound(_raising_terms(shape), m + _block_size(labels, S + HalfInt(2))))
    require_memory(SPARSE_BYTES_PER_ENTRY * nnz + LANCZOS_VECTORS * 8 * m,
                   f"the sparse S={S} block of dimension {m}")
    states, up = _s3_block(shape, S), _s3_block(shape, S + HalfInt(2))
    b = _local_sum(shape, _raising_terms(shape), states, up)  # S+ from M = S to S + 1
    bt = b.T.tocsr()
    if b.shape[0]:
        b2 = _local_sum(shape, _raising_terms(shape), up, _s3_block(shape, S + HalfInt(4)))
        x = np.random.default_rng(0).standard_normal(b.shape[0])
        top = shape.s_max.value
        dev = float(np.linalg.norm(b @ (bt @ x) - b2.T @ (b2 @ x) - (S.twice + 2) * x))
        if dev > INVARIANCE_TOL * max(1.0, top * (top + 1)) * np.linalg.norm(x):
            raise NumericalError(f"S+ is not a raising operator at M={S + HalfInt(2)}: "
                                 f"||([S+, S-] - 2 S3) x|| = {dev:.3e}")
    hb = _local_sum(shape, H.terms, states)
    diag = hb.diagonal()
    g_lo, g_hi, c, slack = _penalty(diag, abs(hb) @ np.ones(m) - np.abs(diag), S)
    bound = RESIDUAL_TOL * max(1.0, abs(g_lo), abs(g_hi))
    extremes = []
    for weight, which in ((c, "SA"), (-c, "LA")):
        op = sla.LinearOperator((m, m), dtype=float,
                                matvec=lambda x, wt=weight: hb @ x + wt * (bt @ (b @ x)))
        try:
            w, vecs = sla.eigsh(op, k=1, which=which,
                                v0=np.random.default_rng(0).standard_normal(m), tol=0)
        except sla.ArpackNoConvergence as exc:
            raise NumericalError(f"Lanczos eigsh at S={S} did not converge: {exc}") from exc
        theta, v = float(w[0]), vecs[:, 0]
        vnorm = np.linalg.norm(v)
        residual = float(np.linalg.norm(hb @ v - theta * v))
        leak = float(np.linalg.norm(b @ v))
        if residual > bound * vnorm or leak > bound * vnorm:
            raise NumericalError(f"{which} Ritz pair at S={S} not certified "
                                 f"(residual {residual:.3e}, ||S+ v|| {leak:.3e})")
        extremes.append(theta)
    lo, hi = extremes
    if lo > g_hi + slack or hi < g_lo - slack:
        raise NumericalError(f"Lanczos solve at S={S} returned a penalized level")
    return lo, hi


def sector_energies(H):
    """Min/max energy of the LocalHamiltonian H in every total-spin sector.

    S^3 blocks of dimension >= SECTOR_SPARSE_MIN_DIM take the sparse
    Lanczos route, largest first, so its memory guard fires before any
    solve; the smaller ones are the top blocks, and one banded solve on the
    lowest of them gives all their sectors (module docstring).  H must
    commute with the total-spin operators (checked term by term; raises
    NonInvariantOperatorError otherwise).
    """
    _check_invariance(H)
    labels = sector_labels(H.shape)
    # eigsh needs k < m; block sizes grow from the top down to M = 0
    dense = [S for S in labels if _block_size(labels, S) < max(SECTOR_SPARSE_MIN_DIM, 2)]
    extremes = {S: _sector_extremes(H, labels, S) for S in sorted(set(labels) - set(dense))}
    bands = _sector_bands(H, labels, min(dense)) if dense else {}
    entries = {}
    for S, d in labels.items():
        lo, hi = (bands[S][0], bands[S][-1]) if S in bands else extremes[S]
        entries[S] = SectorEntry(float(lo), float(hi), d)
    return SectorReport(entries=entries)


def _ordering(values, tol):
    """Verdict that ``values`` ({S: energy}, S descending) strictly decrease
    in S, each adjacent pair by more than tol: the margin of (S_hi, S_lo) is
    values[S_lo] - values[S_hi]; |margin| <= tol is a crossing, a margin
    below -tol a violation."""
    labels = list(values)
    margins, crossings, violations = [], [], []
    for s_hi, s_lo in zip(labels, labels[1:]):
        gap = values[s_lo] - values[s_hi]
        margins.append((s_hi, s_lo, float(gap)))
        if abs(gap) <= tol:
            crossings.append((s_hi, s_lo, float(gap)))
        elif gap < 0:
            violations.append((s_hi, s_lo, float(gap)))
    ok = not crossings and not violations
    return FoelVerdict(ok=ok, margins=margins, crossings=crossings,
                       violations=violations)


def check_foel(report, strict_tol=STRICT_FOEL_TOL):
    """FOEL: E(H,S) strictly decreasing in S (margin > strict_tol), over
    adjacent present labels (``_ordering`` on the minima)."""
    return _ordering({S: report.entries[S].min_energy for S in report.labels}, strict_tol)


def check_max_ordering(report, s_low=HalfInt(2)):
    """Ordering of maximal sector energies over the labels S >= s_low.

    For the ferromagnetic sign convention the top of the spectrum is the
    antiferromagnetic ground state, so max energies strictly decrease as S
    increases (Lieb-Mattis ordering read from the top), each by more than
    1e-10 (``_ordering`` on the maxima).
    """
    return _ordering({S: report.entries[S].max_energy
                      for S in report.labels if S >= s_low}, 1e-10)


def full_spectrum_by_s3(H, offset=False):
    """Complete spectrum of the SU(2)-invariant LocalHamiltonian H per S^3
    block: list of (M, sorted eigenvalues), M descending, each the union of
    the bands S >= |M| of the banded solve on the lowest block (module
    docstring).  With offset=True the ground energy is shifted to exactly 0.
    """
    _check_invariance(H)
    labels = sector_labels(H.shape)
    bands = _sector_bands(H, labels, min(labels))
    e0 = min(w[0] for w in bands.values()) if offset else 0.0
    top = H.shape.s_max.twice
    return [(M, np.sort(np.concatenate([w for S, w in bands.items()
                                        if S.twice >= abs(M.twice)])) - e0)
            for M in map(HalfInt, range(top, -top - 1, -2))]


def _levels(bands, labels, cutoff):
    """Ascending levels up to ``cutoff`` of the sectors ``labels``, 2S + 1 times each."""
    w = np.sort(np.concatenate([np.repeat(bands[S], S.twice + 1) for S in labels]))
    return w[w <= cutoff]


def low_energy_by_deviation(H, N):
    """All eigenvalues of the LocalHamiltonian H up to E(H, S_max - N),
    from N+1 sectors only.

    Assumes H has the FOEL property, so the sectors S_max, ..., S_max - N
    contain every eigenvalue below the cutoff.  It needs all d eigenvalues
    of each sector: one banded solve on the M = S_max - N block gives them,
    whatever its size.  Each multiplet eigenvalue is expanded with
    multiplicity 2S+1.  On spaces of dimension <= 1024 the result is
    cross-checked against every sector's levels up to the cutoff, from the
    banded solve on the lowest block (none needed when N is the last
    label); a mismatch means the FOEL precondition failed.
    """
    _check_invariance(H)
    dims = sector_labels(H.shape)
    labels = list(dims)
    if N < 0 or N >= len(labels):
        raise ValueError(f"deviation count N must be in [0, {len(labels) - 1}]")
    bands = _sector_bands(H, dims, labels[N])
    tol = 1e-9 * max(1.0, max(float(np.max(np.abs(w))) for w in bands.values()))
    # with N the last label every sector was diagonalized: the whole spectrum
    cutoff = np.inf if N == len(labels) - 1 else float(bands[labels[N]][0])
    keep = _levels(bands, labels[: N + 1], cutoff + tol)
    if H.dim <= 1024 and cutoff < np.inf:
        every = _levels(_sector_bands(H, dims, labels[-1]), labels, cutoff + tol)
        if len(every) != len(keep) or max_abs(every - keep) > 1e-8:
            raise NonInvariantOperatorError(
                "sector-truncated spectrum disagrees with every sector's levels; "
                "the FOEL precondition does not hold for this operator")
    return keep


def sector_csv_rows(report):
    """Rows (S_times2, dim, min_energy, max_energy), S descending."""
    return [
        (s.twice, report.entries[s].dimension,
         report.entries[s].min_energy, report.entries[s].max_energy)
        for s in report.labels
    ]


def spectrum_csv_rows(spectrum_by_m):
    """Rows (M_times2, energy) from full_spectrum_by_s3 output."""
    rows = []
    for m, w in spectrum_by_m:
        rows.extend((m.twice, float(e)) for e in w)
    return rows
