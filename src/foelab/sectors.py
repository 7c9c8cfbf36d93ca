"""Spectral decomposition by S^3 and by total spin, and level-ordering checks.

Sector energies E(H,S) are the spectrum of H on the highest-weight space
V^(S) = ker(S+) within the S^3 = S block; the label set and dim V^(S) come
from S^3 block-count differences.  The solve extracts no kernel.  On the
M = S block, B^T B = S-S+ (B = S+ from M = S to M = S+1) commutes with H, is
0 on V^(S) and S'(S'+1) - S(S+1) >= 2S+2 on every multiplet S' > S.  With
g_lo, g_hi the Gershgorin bounds of H_MM and c = (g_hi - g_lo + 1)/(2S+2),
the other multiplets of H_MM + c B^T B sit at or above g_hi + 1, so its
lowest d = dim V^(S) eigenvalues are the sector spectrum.  Each solve is
certified (d-th eigenvalue <= g_hi, next one >= g_hi + 1, else
NumericalError) and checks its memory estimate before the dense block is
formed.  The q-deformed sectors avoid the penalty, because (S+_q)^T S+_q
has a condition number growing like q^-L, which would drown the penalty gap
in rounding; ``qgroup`` uses the diagram basis.  The SVD basis
(``highest_weight_space``) and the Casimir projector are the oracles tests
compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la

from .errors import NonInvariantOperatorError, NumericalError
from .linalg import commutator_maxabs, eigvalsh_full, kernel_basis, max_abs, require_memory
from .linalg import physical_memory_bytes as _physical_memory_bytes  # patchable probe
from .spinops import HalfInt, casimir, total_spin_ops

__all__ = [
    "SectorEntry",
    "SectorReport",
    "HighestWeightBasis",
    "FoelVerdict",
    "MaxOrderingVerdict",
    "s3_blocks",
    "sector_labels",
    "highest_weight_space",
    "sector_energies",
    "check_foel",
    "check_max_ordering",
    "full_spectrum_by_s3",
    "low_energy_by_deviation",
    "casimir_sector_energies",
    "sector_csv_rows",
    "spectrum_csv_rows",
]

STRICT_FOEL_TOL = 1e-8
INVARIANCE_TOL = 1e-10
# Dense m x m float64 arrays estimated per block solve (tracemalloc peak: ~3)
DENSE_BLOCK_ARRAYS = 4


@dataclass(frozen=True)
class SectorEntry:
    min_energy: float
    max_energy: float
    dimension: int


@dataclass
class SectorReport:
    """Per-total-spin extremal energies plus ordering verdicts."""

    entries: dict  # HalfInt S -> SectorEntry
    foel_ok: bool = False
    foel_margins: list = field(default_factory=list)  # (S_hi, S_lo, gap)
    liebmattis_max_ok: bool = False

    @property
    def labels(self):
        return sorted(self.entries, reverse=True)

    @property
    def s_max(self):
        return self.labels[0]


@dataclass(frozen=True)
class HighestWeightBasis:
    """Orthonormal basis (columns) of ker(S+) within the S^3 = S block."""

    S: HalfInt
    vectors: np.ndarray  # full-space column vectors, dim x d

    @property
    def dimension(self):
        return self.vectors.shape[1]


@dataclass(frozen=True)
class FoelVerdict:
    ok: bool
    margins: list  # (S_hi, S_lo, gap) over adjacent present labels
    crossings: list  # pairs with |gap| <= tol
    violations: list  # pairs with gap < -tol

    @property
    def min_margin(self):
        return min((g for _, _, g in self.margins), default=np.inf)


@dataclass(frozen=True)
class MaxOrderingVerdict:
    ok: bool
    margins: list  # (S_hi, S_lo, max(S_lo) - max(S_hi))


def s3_blocks(shape):
    """Partition of product-basis indices by total S^3 eigenvalue M.

    Returns {HalfInt M: index array}, M descending.
    """
    m = shape.total_m()
    twice_m = np.rint(2 * m).astype(int)
    blocks = {}
    for tm in np.unique(twice_m)[::-1]:
        blocks[HalfInt(int(tm))] = np.nonzero(twice_m == tm)[0]
    return blocks


def sector_labels(shape, blocks=None):
    """Total-spin labels present, with highest-weight dimensions.

    dim V^(S) = N(M=S) - N(M=S+1) where N is the S^3 block size; labels with
    zero difference do not occur in the decomposition.
    """
    blocks = s3_blocks(shape) if blocks is None else blocks
    sizes = {m.twice: len(idx) for m, idx in blocks.items()}
    out = {}
    for tm, n in sizes.items():
        if tm < 0:
            continue
        d = n - sizes.get(tm + 2, 0)
        if d > 0:
            out[HalfInt(tm)] = d
    return out


def highest_weight_space(shape, S, total_ops=None, blocks=None):
    """Orthonormal basis of ker(S+) inside the S^3 = S block, by SVD.

    Raises NumericalError if its dimension differs from ``sector_labels``.
    """
    S = HalfInt.coerce(S)
    total_ops = total_spin_ops(shape) if total_ops is None else total_ops
    blocks = s3_blocks(shape) if blocks is None else blocks
    if S not in blocks:
        raise ValueError(f"total spin {S} not present for this shape")
    d = sector_labels(shape, blocks).get(S, 0)
    if d == 0:
        raise ValueError(f"total spin {S} has an empty highest-weight space")
    cols = blocks[S]
    rows = blocks.get(S + HalfInt(2), np.zeros(0, dtype=int))
    kern = kernel_basis(total_ops.sptot.matrix[rows][:, cols])
    if kern.shape[1] != d:
        raise NumericalError(f"kernel dimension {kern.shape[1]} != {d} at S={S}")
    vectors = np.zeros((shape.dim, d))
    vectors[cols] = kern
    return HighestWeightBasis(S=S, vectors=vectors)


def _require_invariance(H, total_ops, su2=True):
    scale = max(1.0, max_abs(H.matrix))
    dz = commutator_maxabs(H.matrix, total_ops.s3tot.matrix)
    if dz > INVARIANCE_TOL * scale:
        raise NonInvariantOperatorError(f"[H, S3] = {dz:.3e}")
    if su2:
        dp = commutator_maxabs(H.matrix, total_ops.sptot.matrix)
        if dp > INVARIANCE_TOL * scale:
            raise NonInvariantOperatorError(f"[H, S+] = {dp:.3e}")


def _sector_spectrum(H, total_ops, blocks, S, d):
    """The d eigenvalues of H on V^(S), ascending: the certified penalized
    solve on the M = S block described in the module docstring."""
    cols = blocks[S]
    require_memory(DENSE_BLOCK_ARRAYS * 8 * len(cols) ** 2, _physical_memory_bytes(),
                   f"the dense S={S} block of dimension {len(cols)}")
    rows = blocks.get(S + HalfInt(2), np.zeros(0, dtype=int))
    raising = total_ops.sptot.matrix[rows][:, cols]
    hb = H.sub(cols)
    diag = np.diag(hb)
    radius = np.abs(hb).sum(axis=1) - np.abs(diag)
    g_lo, g_hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    c = (g_hi - g_lo + 1.0) / (S.twice + 2)
    w = la.eigvalsh(hb + c * (raising.T @ raising).toarray())
    slack = 1e-9 * max(1.0, abs(g_lo), abs(g_hi))
    if w[d - 1] > g_hi + slack or (len(w) > d and w[d] < g_hi + 1.0 - slack):
        raise NumericalError(f"penalized solve at S={S} does not isolate {d} levels")
    return w[:d]


def sector_energies(H, shape, strict_tol=STRICT_FOEL_TOL):
    """Min/max energy of H in every total-spin sector, with FOEL verdict.

    H must commute with the total-spin operators (checked; raises
    NonInvariantOperatorError otherwise).
    """
    total_ops = total_spin_ops(shape)
    _require_invariance(H, total_ops)
    blocks = s3_blocks(shape)
    entries = {}
    for S, d in sorted(sector_labels(shape, blocks).items(), reverse=True):
        w = _sector_spectrum(H, total_ops, blocks, S, d)
        entries[S] = SectorEntry(float(w[0]), float(w[-1]), d)
    report = SectorReport(entries=entries)
    foel = check_foel(report, strict_tol)
    report.foel_ok = foel.ok
    report.foel_margins = foel.margins
    report.liebmattis_max_ok = check_max_ordering(report).ok
    return report


def check_foel(report, strict_tol=STRICT_FOEL_TOL):
    """FOEL: E(H,S) strictly decreasing in S (margin > strict_tol).

    Adjacent present labels are compared; near-ties (|gap| <= tol) are
    flagged as level crossings, negative gaps as violations.
    """
    labels = report.labels
    margins, crossings, violations = [], [], []
    for s_hi, s_lo in zip(labels, labels[1:]):
        gap = report.entries[s_lo].min_energy - report.entries[s_hi].min_energy
        margins.append((s_hi, s_lo, float(gap)))
        if abs(gap) <= strict_tol:
            crossings.append((s_hi, s_lo, float(gap)))
        elif gap < 0:
            violations.append((s_hi, s_lo, float(gap)))
    ok = not crossings and not violations
    return FoelVerdict(ok=ok, margins=margins, crossings=crossings,
                       violations=violations)


def check_max_ordering(report, s_low=HalfInt(2), s_high=None, tol=1e-10):
    """Ordering of maximal sector energies over [s_low, s_high].

    For the ferromagnetic sign convention the top of the spectrum is the
    antiferromagnetic ground state, so max energies strictly decrease as S
    increases (Lieb-Mattis ordering read from the top).
    """
    labels = [s for s in report.labels if s >= s_low]
    if s_high is not None:
        labels = [s for s in labels if s <= HalfInt.coerce(s_high)]
    margins = []
    ok = True
    for s_hi, s_lo in zip(labels, labels[1:]):
        diff = report.entries[s_lo].max_energy - report.entries[s_hi].max_energy
        margins.append((s_hi, s_lo, float(diff)))
        if diff <= tol:
            ok = False
    return MaxOrderingVerdict(ok=ok, margins=margins)


def full_spectrum_by_s3(H, shape, offset=False):
    """Complete spectrum per S^3 block: list of (M, sorted eigenvalues).

    With offset=True the ground energy is shifted to exactly 0.
    """
    total_ops = total_spin_ops(shape)
    _require_invariance(H, total_ops, su2=False)
    out = []
    for m, idx in s3_blocks(shape).items():
        out.append((m, eigvalsh_full(H.sub(idx))))
    if offset:
        e0 = min(w[0] for _, w in out)
        out = [(m, w - e0) for m, w in out]
    return out


def low_energy_by_deviation(H, shape, N, cutoff_policy="inclusive"):
    """All eigenvalues of H up to E(H, S_max - N), from N+1 sectors only.

    Assumes H has the FOEL property, so the sectors S_max, ..., S_max - N
    contain every eigenvalue below the cutoff.  Each multiplet eigenvalue is
    expanded with multiplicity 2S+1.  On spaces of dimension <= 1024 the
    result is cross-checked against the truncated full spectrum; a mismatch
    means the FOEL precondition failed.
    """
    if cutoff_policy not in ("inclusive", "exclusive"):
        raise ValueError("cutoff_policy must be 'inclusive' or 'exclusive'")
    total_ops = total_spin_ops(shape)
    _require_invariance(H, total_ops)
    blocks = s3_blocks(shape)
    dims = sector_labels(shape, blocks)
    labels = sorted(dims, reverse=True)
    if N < 0 or N >= len(labels):
        raise ValueError(f"deviation count N must be in [0, {len(labels) - 1}]")
    tol = 1e-9 * max(1.0, max_abs(H.matrix))
    collected = []
    cutoff = None
    for S in labels[: N + 1]:
        w = _sector_spectrum(H, total_ops, blocks, S, dims[S])
        if S == labels[N]:
            cutoff = float(w[0])
        collected.extend((float(e), S.twice + 1) for e in w)
    if N == len(labels) - 1:
        # every sector was diagonalized; the union is the whole spectrum
        cutoff = np.inf
    if cutoff_policy == "inclusive":
        keep = [e for e, mult in collected for _ in range(mult) if e <= cutoff + tol]
    else:
        keep = [e for e, mult in collected for _ in range(mult) if e < cutoff - tol]
    keep = np.array(sorted(keep))
    if shape.dim <= 1024:
        full = eigvalsh_full(H.matrix)
        if cutoff_policy == "inclusive":
            truncated = full[full <= cutoff + tol]
        else:
            truncated = full[full < cutoff - tol]
        if len(truncated) != len(keep) or max_abs(truncated - keep) > 1e-8:
            raise NonInvariantOperatorError(
                "sector-truncated spectrum disagrees with the full spectrum; "
                "the FOEL precondition does not hold for this operator"
            )
    return keep


def casimir_sector_energies(H, shape):
    """Cross-check oracle: sector energies via Casimir-eigenvector filtering.

    Diagonalizes H and the Casimir on the full space; intended for dims
    up to about 1e3 only.
    """
    c = casimir(shape).dense()
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
