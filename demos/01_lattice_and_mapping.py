# Walk through the lattice geometry and the fermion-to-spin mapping.
#
# A rows x cols square lattice with bonds along one diagonal direction
# decomposes into independent chains.  Every site becomes a vertical
# link of a honeycomb lattice (white site above black), every bond owns
# a plaquette, and a zigzag Jordan-Wigner order turns the fermion model
# into a sum of commuting Pauli strings whose spectrum matches the
# fermion energies configuration for configuration.

import numpy as np

from semionlab import (
    DiagonalOracle,
    build_layout,
    build_spin_hamiltonian,
    ground_sector,
    spectrum,
)

layout = build_layout(2, 3)
print(layout.to_text())

print("chains:", layout.chains())
print("bonds:", layout.square.bonds)
print("complete hexagons:", layout.complete_plaquettes())
print()

# The spin image: one plaquette term per bond and species family, one
# ZZ term per vertical link.  Boundary bonds carry truncated plaquettes.
j_up, j_down, u = 1.0, 0.8, 1.3
ham = build_spin_hamiltonian(layout, j_up, j_down, u)
print(f"spin Hamiltonian: {len(ham.terms)} terms, "
      f"all commute: {ham.all_terms_commute()}")
for coeff, op in ham.terms[:6]:
    print(f"  {coeff:+.2f} * {op}")
print("  ...")
print()

# The whole point: the spin spectrum is the fermion spectrum, as a
# multiset over all occupation configurations, to machine precision.
eig = spectrum(ham)
oracle = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
print(f"spin spectrum size {eig.size}, fermion enumeration {oracle.size}")
print(f"max |spin - fermion| after sorting: {np.max(np.abs(eig - oracle)):.3e}")
print(f"ground energy: {eig[0]:.6f}")
# levels within 1e-12 of the sum of |coefficients| count as one
print(f"ground degeneracy: {ground_sector(ham)[2]} "
      f"(= 2 ** number_of_chains = {2 ** len(layout.chains())})")
