# The cavity side: photon-conditioned strings and the ancilla swap.
#
# A dispersive coupling chi * n_c * sum(Z) evolved for tau = pi/(2 chi)
# does nothing in the zero-photon sector and applies (-i)^N times the
# Z-string in the one-photon sector.  Preparing the cavity in a photon
# superposition therefore interferes "string applied" with "string not
# applied": the surviving cavity coherence reads out the string
# eigenvalue without touching the qubits.  A resonant ancilla swap
# supplies the photon states.

import math

import numpy as np

from semionlab import (
    ControlledString,
    PauliString,
    QndParams,
    StringSpec,
    apply_pauli,
    basis_state,
    build_layout,
    cavity_superposition,
    expectation,
    interferometry_run,
    jc_swap,
    project_ground,
    qnd_closed_form_deviation,
    qnd_unitary,
    random_state,
)
from semionlab.lattice import BLACK, WHITE

# Closed form versus exact exponential, both photon sectors.
for n in (1, 2, 4, 8):
    params = QndParams.canonical(chi=0.9, sites=tuple(range(n)))
    dev = qnd_closed_form_deviation(params, n_qubits=n)
    print(f"N={n}: closed form vs exponential, operator norm {dev:.2e}")
print("one-photon gate for N=2:",
      qnd_unitary(QndParams.canonical(1.0, (0, 1)), 1, 2), "(= -ZZ)")
print()

# Interferometry on the lattice ground state: a loop of whole links is
# a stabilizer product and reads +1; add an enclosed excitation and the
# same readout flips to -1.
layout = build_layout(2, 3)
ground = project_ground(layout, cavity_dim=2)
loop = [layout.rank(0, BLACK), layout.rank(0, WHITE),
        layout.rank(1, BLACK), layout.rank(1, WHITE)]
print("vacuum readout:    ",
      interferometry_run(layout, ground, loop).inferred_eigenvalue)
flip = StringSpec.site_flip(layout, 0, BLACK)
excited = apply_pauli(ground, flip.operator)
print("with one excitation:",
      interferometry_run(layout, excited, loop).inferred_eigenvalue)
print()

# The readout is linear, so it works for arbitrary states, not just
# eigenstates of the string.
rng = np.random.default_rng(1)
qubits = random_state(4, rng=rng)
sites = (0, 3)
s = 1 / math.sqrt(2)
out = ControlledString(sites).apply(cavity_superposition(qubits, s, s))
coherence = complex(np.vdot(out.blocks()[0], out.blocks()[1]))
direct = expectation(qubits, PauliString(4, 0, 0b1001, 0)).real
print("random state: inferred", (2 * coherence * 1j ** len(sites)).real,
      "| direct", direct)

# Photon-state preparation by the resonant swap: one qubit excitation
# moves into the cavity with a -i phase at t = pi / (2 Omega).
omega = 1.0
st = basis_state(1, bits=1, cavity_dim=2)
swapped = jc_swap(st, omega, math.pi / (2 * omega))
print("swap amplitudes:", np.round(swapped.amplitudes, 12))
