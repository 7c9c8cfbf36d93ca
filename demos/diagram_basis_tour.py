"""The arc-diagram (Temperley-Lieb) machinery behind the chain proof.

Shows the non-crossing diagram basis, the Hamiltonian matrix on it with its
nonpositive off-diagonal entries, the strictly positive Perron-Frobenius
ground vector and the Collatz-Wielandt bracket of its energy, the literal
submatrix embedding when one vertex is appended, and the higher-spin (dual
canonical) generalization.
"""

import numpy as np

from foelab import (
    check_dominance,
    enumerate_arc_diagrams,
    fk_hamiltonian_matrix,
    fk_highest_weight_basis,
    perron_ground_vector,
    tl_hamiltonian_matrix,
)
from foelab.spinops import HalfInt


def main():
    print("All configurations of 2 arcs on 5 vertices (no crossings,")
    print("no arc over an unpaired vertex):")
    for i, arcs in enumerate(enumerate_arc_diagrams(5, 2)):
        paired = {v for arc in arcs for v in arc}
        unpaired = tuple(v for v in range(1, 6) if v not in paired)
        shown = ", ".join(f"[{x},{y}]" for x, y in arcs)
        print(f"  #{i}: {shown:<16} unpaired: {unpaired}")

    tl = tl_hamiltonian_matrix(5, 2, [1.0] * 4)
    print("\nHamiltonian matrix on this basis (uniform couplings):")
    print(np.round(tl.A, 3))
    print(f"largest off-diagonal entry: {tl.off_diagonal_max():g} (never positive)")

    pf = perron_ground_vector(tl)
    print(f"\nground vector (all components strictly positive): "
          f"{np.round(pf.vector / pf.vector.max(), 4)}")
    lo, hi = pf.bracket
    print(f"ground energy {pf.eigenvalue:.15f}, gap to the next level {pf.gap:.6f}")
    print(f"certified bracket [{lo:.15f}, {hi:.15f}]: min and max of")
    print("(Av)_i/v_i, which enclose the Perron root for any positive v")

    bigger = tl_hamiltonian_matrix(6, 2, [1.0] * 5)
    verdict = check_dominance(tl, bigger)
    print(f"\nappending a vertex: the 5-vertex matrix reappears as the leading")
    print(f"submatrix of the 6-vertex one (max prefix violation "
          f"{verdict.max_violation:g}), and the new entries are nonpositive,")
    print("which is what drives the energy ordering down the induction.")

    print("\nHigher spin works the same way through symmetrized arrow blocks:")
    spins = [HalfInt(2)] * 3  # three spin-1 sites
    for twice_s in (6, 4, 2, 0):
        basis = fk_highest_weight_basis(spins, HalfInt(twice_s))
        print(f"  S = {twice_s // 2}: {len(basis)} basis vectors")
    a = fk_hamiltonian_matrix(spins, [1.0, 1.0], fk_highest_weight_basis(spins, HalfInt(2)))
    print("matrix at S = 1 (off-diagonals again nonpositive):")
    print(np.round(a, 4))


if __name__ == "__main__":
    main()
