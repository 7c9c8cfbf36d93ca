"""Tour of ferromagnetic ordering of energy levels (FOEL) on chains.

Builds a few open ferromagnetic chains, decomposes their spectra by total
spin, and prints the sector minima: for every chain the minimum energy
strictly decreases as the total spin grows, so the ground state is the
maximal multiplet and the first excitation lives one rung below it.  FOEL
also means the top N + 1 sectors hold every level up to E(S_max - N): for
the uniform chain that low spectrum is read off those sectors alone and
printed next to the same levels of the full spectrum.
"""

import numpy as np

from foelab import (
    ChainSpec,
    build_normalized_chain,
    check_foel,
    low_energy_by_deviation,
    sector_energies,
)
from foelab.hamiltonians import random_chain
from foelab.spinops import HalfInt


def show(title, chain):
    h = build_normalized_chain(chain)
    report = sector_energies(h)
    print(f"\n{title}")
    print(f"  spins 2s = {[s.twice for s in chain.spins]}, "
          f"J = {np.round(chain.couplings, 3).tolist()}, dim = {chain.shape.dim}")
    for s in report.labels:
        e = report.entries[s]
        print(f"  S = {str(s):>4}:  E_min = {e.min_energy:10.6f}   "
              f"E_max = {e.max_energy:10.6f}   (multiplets: {e.dimension})")
    verdict = check_foel(report)
    print(f"  FOEL: {'holds' if verdict.ok else 'FAILS'}, "
          f"smallest adjacent margin = {verdict.min_margin:.3e}")


def levels(w):
    """Distinct levels with their multiplicities, e.g. '0.000000 x7'."""
    values, counts = np.unique(np.round(w, 6) + 0.0, return_counts=True)
    return ", ".join(f"{v:.6f} x{c}" for v, c in zip(values, counts))


def show_low_spectrum(chain, N):
    h = build_normalized_chain(chain)
    low = low_energy_by_deviation(h, N)
    full = np.linalg.eigvalsh(h.dense())
    top = f"levels up to E(S_max - {N}) from the top {N + 1} sectors"
    print(f"  {top}: {levels(low)}")
    print(f"  {'the same levels of the full spectrum':<{len(top)}}: {levels(full[:len(low)])}")


def main():
    uniform = ChainSpec([HalfInt(1)] * 6, [1.0] * 5)
    show("Uniform spin-1/2 chain, L = 6", uniform)
    show_low_spectrum(uniform, 2)
    show("Mixed magnitudes (1/2, 1, 3/2, 1), random couplings",
         ChainSpec([HalfInt(1), HalfInt(2), HalfInt(3), HalfInt(2)],
                   [0.7, 1.9, 0.4]))
    rng = np.random.default_rng(2024)
    show("Random chain drawn like the verification ensemble",
         random_chain(rng, max_sites=7, max_dim=1500))

    print("\nEven rings are different: the strict ordering genuinely fails there.")
    from foelab import SpinGraph, build_heisenberg

    ring = SpinGraph([(i, HalfInt(1)) for i in range(6)],
                     [(i, (i + 1) % 6, 1.0) for i in range(6)])
    report = sector_energies(build_heisenberg(ring))
    for s in report.labels:
        print(f"  S = {str(s):>2}:  E_min = {report.entries[s].min_energy:10.6f}")
    verdict = check_foel(report)
    print(f"  six-cycle verdict: ok={verdict.ok}, "
          f"violations={[(str(a), str(b), round(g, 6)) for a, b, g in verdict.violations]}")


if __name__ == "__main__":
    main()
