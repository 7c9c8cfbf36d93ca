"""foelab: spectra of ferromagnetic spin models ordered by total spin.

Builds Heisenberg-type Hamiltonians on finite graphs and chains, decomposes
their spectra by total spin, and checks the ferromagnetic ordering of energy
levels (FOEL) together with its supporting structures: Temperley-Lieb
diagram bases with their sign/dominance properties, the quantum-group
symmetric XXZ chain with droplet energies, and the exclusion-process
spectral-gap equality via the spin map.
"""

from .spinops import (
    HalfInt,
    HilbertShape,
    LocalHamiltonian,
    LocalSpinOps,
    heisenberg_bond,
    spin_matrices,
)
from .hamiltonians import (
    ChainSpec,
    SpinGraph,
    build_heisenberg,
    build_normalized_chain,
    build_spin1_beta_chain,
    parse_graph_spec,
)
from .sectors import (
    FoelVerdict,
    SectorReport,
    check_foel,
    check_max_ordering,
    full_spectrum_by_s3,
    low_energy_by_deviation,
    sector_energies,
)
from .temperley_lieb import (
    TLMatrix,
    chain_sector_energies,
    check_dominance,
    diagram_sector_energies,
    enumerate_arc_diagrams,
    fk_hamiltonian_matrix,
    fk_highest_weight_basis,
    perron_ground_vector,
    tl_hamiltonian_matrix,
)
from .qgroup import (
    QParam,
    droplet_bandwidth,
    droplet_energy,
    finite_droplet_energy,
    q_sector_energies,
)
from .ssep import (
    SSEPGenerator,
    check_aldous,
    spectral_gap,
    ssep_generator,
    verify_spin_map,
)

__version__ = "0.1.0"
