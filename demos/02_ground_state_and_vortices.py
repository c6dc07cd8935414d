# Build the topological ground state and watch vortices appear.
#
# The ground state is the all-zeros basis state (all Z eigenvalues +1)
# projected onto the +1 eigenspace of every plaquette stabilizer of
# both families.  Site operations then create excitations: a single
# effective-X flips the plaquettes its symplectic footprint predicts,
# and applying it twice restores the vacuum.

from semionlab import (
    StringSpec,
    apply_pauli,
    build_layout,
    build_spin_hamiltonian,
    energy_moments,
    project_ground,
    spectrum,
    vortex_map,
)
from semionlab.lattice import BLACK

layout = build_layout(2, 3)
ground = project_ground(layout)

ham = build_spin_hamiltonian(layout, 1.0, 1.0, 1.0)
energy, variance = energy_moments(ground, ham)
eig = spectrum(ham)
print(f"projected-state energy: {energy:.12f}")
print(f"spectrum minimum:       {eig[0]:.12f}")
print(f"energy variance:        {variance:.3e}  (a true eigenstate)")
print()


def show(vmap, label):
    print(label)
    for k, (w, wt) in enumerate(vmap.values):
        print(f"  plaquette {k}: up {w:+.3f}   down {wt:+.3f}")


base = vortex_map(ground, layout)
show(base, "vacuum flux map (all +1):")
print()

flip = StringSpec.site_flip(layout, 0, BLACK)
excited = apply_pauli(ground, flip.operator)
vmap = vortex_map(excited, layout)
show(vmap, "after one effective-X at square site 0 (black):")
print("flipped:", vmap.flipped_against(base))
print()

restored = apply_pauli(excited, flip.operator)
print("after applying the same operation again:")
print("flipped:", vortex_map(restored, layout).flipped_against(base))
