"""Quantum-group symmetry machinery for the anisotropic (XXZ) chain.

The deformation parameter q in (0,1) corresponds to anisotropy
Delta = (q + 1/q)/2 > 1.  Sector energies need no kernel extraction and no
2^L space: on the n-arc diagram basis (arcs are deformed singlets
q|+-> - |-+>) of the weight S = L/2 - n highest-weight space, H_L is the TL
matrix with couplings 1/(2(q + 1/q)), of dimension C(L,n) - C(L,n-1) and
with exactly the sector's spectrum; its bottom is its certified Perron root
(Nachtergaele-Starr, CMP 218 (2001)), which comes with its Collatz-Wielandt
bracket.  ``q_sector_energies`` reads those roots off the diagram route's
sector loop (``temperley_lieb._diagram_sectors``) into a
``sectors.SectorReport`` of ``SectorEntry`` records whose maximum is None
(no top eigenvalue is solved); ``sectors.check_foel`` decides the q-FOEL
ordering.  The SU_q(2)
generators, the q-Casimir and the 2^L-state XXZ chain that the tests check
this against are in ``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .sectors import SectorEntry, SectorReport
from .temperley_lieb import _diagram_sectors, perron_ground_vector, tl_hamiltonian_matrix

__all__ = [
    "QParam",
    "q_sector_energies",
    "droplet_energy",
    "droplet_bandwidth",
    "finite_droplet_energy",
    "droplet_csv_rows",
]


@dataclass(frozen=True)
class QParam:
    """Deformation parameter q in (0,1); anisotropy Delta = (q + 1/q)/2."""

    q: float

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie strictly between 0 and 1")

    @property
    def delta(self):
        return 0.5 * (self.q + 1.0 / self.q)


def _couplings(L, qp):
    """The L - 1 bond couplings 1/(2(q + 1/q)) of H_L on the diagram basis."""
    return [1.0 / (2.0 * (qp.q + 1.0 / qp.q))] * (L - 1)


def _sector_matrix(L, n, qp):
    """The spin-deviation-n TL matrix of H_L, whose Perron root is
    E(H_L, S = L/2 - n)."""
    return tl_hamiltonian_matrix(L, n, _couplings(L, qp), qp.q)


def q_sector_energies(L, qp):
    """E(H_L, S) for every total-spin label: a SectorReport of SectorEntry
    with max_energy None.

    Every sector S = L/2 - n is the n-arc TL matrix, of dimension
    C(L,n) - C(L,n-1) as at q = 1, solved largest first so its memory guard
    fires before any solve (``temperley_lieb._diagram_sectors``).
    ``sectors.check_foel`` gives the q-FOEL verdict.
    """
    L = int(L)
    if L < 2:
        raise ValueError("need L >= 2")
    entries = {S: SectorEntry(pf.eigenvalue, None, tl.dim, pf.bracket)
               for S, tl, pf in _diagram_sectors(_couplings(L, qp), qp.q)}
    return SectorReport(entries=dict(sorted(entries.items(), reverse=True)))


def droplet_energy(n, qp):
    """Ground energy of an n-spin droplet in an infinite polarized background:
    E(n) = (1 - q^2)(1 - q^n) / ((1 + q^2)(1 + q^n))."""
    n = int(n)
    if n < 1:
        raise ValueError("droplet size n must be >= 1")
    q = qp.q
    return (1.0 - q * q) * (1.0 - q ** n) / ((1.0 + q * q) * (1.0 + q ** n))


def droplet_bandwidth(n, qp):
    """Width of the droplet band: 4 q^n (1 - q^2) / ((1 + q^n)(1 - q^n)).

    Decays like q^n, so droplets become infinitely heavy as n grows.
    """
    n = int(n)
    if n < 1:
        raise ValueError("droplet size n must be >= 1")
    q = qp.q
    return 4.0 * q ** n * (1.0 - q * q) / ((1.0 + q ** n) * (1.0 - q ** n))


def finite_droplet_energy(L, n, qp):
    """Minimal XXZ chain energy in the sector of n overturned spins.

    This is the sector energy E(H_L, S = L/2 - n) (spin deviation n) rather
    than the raw S^3-block minimum: the block always contains a member of
    the zero-energy maximal multiplet, while the sector energy is the
    finite-volume droplet level that decreases monotonically in L toward
    the infinite-chain droplet energy.  Needs n <= L/2 so the label exists.
    """
    L, n = int(L), int(n)
    if not 1 <= n <= L / 2:
        raise ValueError("need 1 <= n <= L/2 for the spin-deviation sector")
    return perron_ground_vector(_sector_matrix(L, n, qp)).eigenvalue


def droplet_csv_rows(l_values, n_values, qp):
    """(L, n, q, finite_energy, E_infinity, bandwidth, bracket) sweep rows,
    sorted by (n, L); pairs with 2n > L are skipped.  ``bracket`` is the
    Collatz-Wielandt enclosure (lo, hi) of finite_energy; the first six
    items are the droplet.csv columns.

    One TL matrix is built per droplet size n, at the largest length of the
    sweep that admits it; every shorter chain is its leading block
    (``TLMatrix.leading_block``).  The sectors are solved L by L, n by n
    within each L.
    """
    l_values, n_values = [int(L) for L in l_values], [int(n) for n in n_values]
    top = {}
    for n in n_values:
        lengths = [L for L in l_values if 1 <= n <= L / 2]
        if lengths and n not in top:
            top[n] = _sector_matrix(max(lengths), n, qp)
    rows = []
    for L in l_values:
        for n in n_values:
            if 1 <= n <= L / 2:
                pf = perron_ground_vector(top[n].leading_block(L))
                rows.append((L, n, qp.q, pf.eigenvalue, droplet_energy(n, qp),
                             droplet_bandwidth(n, qp), pf.bracket))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows
