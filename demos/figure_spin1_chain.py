"""Spectrum of the five-site spin-1 ferromagnetic chain, sector by sector.

Reproduces the classic level diagram data: the full spectrum per S^3 block
(offset so the ground energy is zero), the FOEL ordering of the sector
minima over S = 0..5, and the antiferromagnetic (Lieb-Mattis) ordering of
the sector maxima over S = 1..5.  Writes the plot data as CSV.
"""

from foelab import (
    SpinGraph,
    build_heisenberg,
    check_foel,
    check_max_ordering,
    sector_energies,
)
from foelab.reports import write_csv
from foelab.sectors import full_spectrum_by_s3, spectrum_csv_rows
from foelab.spinops import HalfInt


def main():
    g = SpinGraph.path([HalfInt(2)] * 5, [1.0] * 4)
    h = build_heisenberg(g)

    spectrum = full_spectrum_by_s3(h, offset=True)
    path = write_csv("figure_spin1_L5.csv", ("M_times2", "energy"),
                     spectrum_csv_rows(spectrum))
    print(f"wrote {sum(len(w) for _, w in spectrum)} levels to {path}")

    report = sector_energies(h)
    print("\nsector minima (offset by the ground energy):")
    e0 = report.entries[report.s_max].min_energy
    for s in report.labels:
        e = report.entries[s]
        print(f"  S = {s}:  min = {e.min_energy - e0:9.6f}   max = {e.max_energy - e0:9.6f}")
    print(f"\nFOEL ordering of minima:            {check_foel(report).ok}")
    max_verdict = check_max_ordering(report, s_low=HalfInt(2))
    print(f"Lieb-Mattis ordering of maxima 1..5: {max_verdict.ok}")
    print("(the S = 0 maximum sits below the S = 1 maximum, which is why")
    print(" the antiferromagnetic ordering is stated for S >= 1 here)")


if __name__ == "__main__":
    main()
