"""Droplet energies of the anisotropic chain versus the closed forms.

The quantum-group symmetric XXZ chain (anisotropy Delta = (q + 1/q)/2 > 1,
boundary field included) has, in the sector with n overturned spins, a
lowest level that decreases strictly with the volume toward the
infinite-chain droplet energy

    E(n) = (1 - q^2)(1 - q^n) / ((1 + q^2)(1 + q^n)),

the bottom of a band of width 4 q^n (1 - q^2) / ((1 + q^n)(1 - q^n)).
The finite-size excess is set by the band discretization (about
bandwidth * pi^2 / 4L^2), which the table makes visible.
"""

import numpy as np

from foelab.qgroup import (
    QParam,
    droplet_bandwidth,
    droplet_csv_rows,
    droplet_energy,
    finite_droplet_energy,
)
from foelab.reports import write_csv


def main():
    qp = QParam(0.5)
    print(f"q = {qp.q}, Delta = {qp.delta}")
    for n in (1, 2, 3):
        print(f"  E({n}) = {droplet_energy(n, qp):.8f}   "
              f"bandwidth({n}) = {droplet_bandwidth(n, qp):.8f}")

    print("\nfinite-volume sector minima (n = 2):")
    prev = None
    for L in range(5, 15):
        e = finite_droplet_energy(L, 2, qp)
        excess = e - droplet_energy(2, qp)
        note = f"ratio {prev / excess:.3f}" if prev else ""
        print(f"  L = {L:2d}:  E = {e:.8f}   excess = {excess:.3e}  {note}")
        prev = excess
    print("the excess ratios approach (L/(L-1))^2: the band-bottom")
    print("discretization, so convergence in L is quadratic, not exponential")

    rows = droplet_csv_rows(range(4, 15), [1, 2, 3], qp)
    path = write_csv("droplet_sweep.csv",
                     ("L", "n", "q", "finite_energy", "E_infinity", "bandwidth"),
                     [row[:6] for row in rows])
    print(f"\nwrote the full sweep to {path}")


if __name__ == "__main__":
    main()
