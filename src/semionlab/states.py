"""Dense state vectors over a qubit register tensored with a cavity mode.

Basis order is cavity-index major, qubit bits minor: amplitude index
``n_c * 2**n_qubits + bits``.  ``cavity_dim = 1`` means no cavity.
State values are treated as immutable; every operation returns a new
vector, so concurrent read-only use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    ZeroProjectionError,
    _require_capacity,
)
from .hamiltonian import HamiltonianTerms
from .lattice import HoneycombLayout
from .operators import DOWN, UP, plaquette_op
from .pauli import PauliString, apply_to_amplitudes

__all__ = [
    "StateVector",
    "basis_state",
    "reference_state",
    "random_state",
    "apply_pauli",
    "expectation",
    "overlap",
    "project_ground",
    "energy_moments",
]


def _amplitude_count(n_qubits: int, cavity_dim: int) -> int:
    """Amplitudes of a cavity (x) qubit register, checked before allocation."""
    if cavity_dim < 1:
        raise DimensionMismatchError("cavity_dim must be >= 1")
    return _require_capacity(cavity_dim * (1 << n_qubits),
                             f"state over {cavity_dim} x 2**{n_qubits}")


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over cavity (x) qubits."""

    n_qubits: int
    cavity_dim: int
    amplitudes: np.ndarray

    def __post_init__(self):
        expected = _amplitude_count(self.n_qubits, self.cavity_dim)
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (expected,):
            raise DimensionMismatchError(
                f"expected {expected} amplitudes, got {amps.shape}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def qubit_dim(self) -> int:
        return 1 << self.n_qubits

    def blocks(self) -> np.ndarray:
        """View shaped (cavity_dim, 2**n_qubits)."""
        return self.amplitudes.reshape(self.cavity_dim, self.qubit_dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroProjectionError("cannot normalize the zero vector")
        return StateVector(self.n_qubits, self.cavity_dim,
                           self.amplitudes / n)

    def with_fixed_phase(self) -> "StateVector":
        """Rotate the global phase so the largest amplitude is real positive."""
        k = int(np.argmax(np.abs(self.amplitudes)))
        a = self.amplitudes[k]
        if a == 0:
            return self
        return StateVector(self.n_qubits, self.cavity_dim,
                           self.amplitudes * (abs(a) / a))

    def to_table(self) -> list[tuple[int, float, float]]:
        """Debug snapshot as (basis index, real, imag) rows."""
        return [(i, float(a.real), float(a.imag))
                for i, a in enumerate(self.amplitudes) if a != 0]


def basis_state(n_qubits: int, bits: int = 0, cavity_dim: int = 1,
                cavity_level: int = 0) -> StateVector:
    if not 0 <= bits < (1 << n_qubits):
        raise DimensionMismatchError(f"bits {bits} outside register")
    if not 0 <= cavity_level < cavity_dim:
        raise DimensionMismatchError("cavity level outside truncation")
    amps = np.zeros(_amplitude_count(n_qubits, cavity_dim), dtype=complex)
    amps[cavity_level * (1 << n_qubits) + bits] = 1.0
    return StateVector(n_qubits, cavity_dim, amps)


def reference_state(layout: HoneycombLayout, cavity_dim: int = 1) -> StateVector:
    """Product state with every honeycomb Z eigenvalue +1.

    Under the bit convention that is the all-bits-zero register; it seeds
    the stabilizer projection of :func:`project_ground`.
    """
    return basis_state(layout.n_sites, 0, cavity_dim)


def random_state(n_qubits: int, cavity_dim: int = 1,
                 rng: np.random.Generator | None = None) -> StateVector:
    rng = rng or np.random.default_rng()
    dim = _amplitude_count(n_qubits, cavity_dim)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n_qubits, cavity_dim, amps).normalized()


def apply_pauli(state: StateVector, op: PauliString) -> StateVector:
    """Apply a Pauli string to the qubit register; cavity factor untouched."""
    if op.n_sites != state.n_qubits:
        raise DimensionMismatchError(
            f"operator on {op.n_sites} sites, register has {state.n_qubits}")
    out = apply_to_amplitudes(op, state.blocks())
    return StateVector(state.n_qubits, state.cavity_dim, out.ravel())


def overlap(u: StateVector, v: StateVector) -> complex:
    if (u.n_qubits, u.cavity_dim) != (v.n_qubits, v.cavity_dim):
        raise DimensionMismatchError("state dimensions differ")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def expectation(state: StateVector, op: PauliString) -> complex:
    """<state| op |state>; real up to 1e-12 for Hermitian operators."""
    val = overlap(state, apply_pauli(state, op))
    if op.is_hermitian() and abs(val.imag) > 1e-12:
        raise AssertionError(
            f"Hermitian expectation came out complex: {val}")
    return val


def project_ground(layout: HoneycombLayout, cavity_dim: int = 1) -> StateVector:
    """Stabilized ground state: project every plaquette family to +1.

    Applies ``(1 + W)`` for the up- and down-family operator of every
    bond plaquette to the reference state and normalizes.  The result is
    a +1 eigenstate of every plaquette operator and of every link ZZ. A
    projection that annihilates the state would signal an inconsistent
    sign convention and raises instead of silently renormalizing.
    """
    state = reference_state(layout, cavity_dim)
    amps = state.blocks()
    for plq in layout.bond_plaquettes:
        for family in (UP, DOWN):
            op = plaquette_op(layout, plq, family)
            amps += apply_to_amplitudes(op, amps)
            if not np.any(amps):
                raise ZeroProjectionError(
                    f"plaquette {plq.index} ({family}) annihilated the state")
    out = StateVector(layout.n_sites, cavity_dim, amps.ravel())
    return out.normalized().with_fixed_phase()


def energy_moments(state: StateVector, ham: HamiltonianTerms) -> tuple[float, float]:
    """(<H>, variance) for a Hermitian term list."""
    if ham.n_sites != state.n_qubits:
        raise DimensionMismatchError("Hamiltonian register mismatch")
    hv = ham.apply(state.blocks()).ravel()
    e = float(np.vdot(state.amplitudes, hv).real)
    var = float(np.vdot(hv, hv).real) - e * e
    return e, var
