"""Exact simulator of a two-component fermion lattice model.

The package builds the model's honeycomb spin image through a
Jordan-Wigner mapping with zigzag site ordering, constructs and braids
its abelian excitations with string operators, runs the cavity
quantum-nondemolition controlled-string protocol, and compiles charge
qubit circuit capacitances into the effective couplings that realize
the model.
"""

from .anyons import (
    ControlledString,
    FusionResult,
    QndParams,
    ReadoutRecord,
    StringSpec,
    VortexMap,
    braid_phase,
    braid_phase_on_state,
    cavity_superposition,
    fuse_check,
    interferometry_run,
    jc_swap,
    qnd_closed_form_deviation,
    qnd_unitary,
    vortex_map,
)
from .circuit import (
    DeviceNetwork,
    DeviceParams,
    EffectiveCouplings,
    chain_couplings,
    charging_energy,
    jc_resonance,
    long_range_warning,
    qnd_frequencies,
    two_device_couplings,
)
from .hamiltonian import (
    DiagonalOracle,
    HamiltonianTerms,
    build_device_hamiltonian,
    build_spin_hamiltonian,
    dense_matrix,
    ground_sector,
    predicted_ground_degeneracy,
    spectrum,
)
from .lattice import HoneycombLayout, SquareLattice, build_layout
from .operators import (
    BLACK,
    DOWN,
    UP,
    WHITE,
    bond_parity_op,
    link_zz_op,
    majorana_op,
    x_string_device,
    x_string_op,
    z_op,
    z_op_device,
    z_op_from_majoranas,
)
from .pauli import PauliString, commutes, multiply, multiply_all
from .states import (
    StateVector,
    apply_pauli,
    basis_state,
    energy_moments,
    expectation,
    expectations,
    overlap,
    project_ground,
    random_state,
)

__version__ = "0.1.0"
