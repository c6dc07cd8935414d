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
from .lattice import DOWN, UP, HoneycombLayout
from .pauli import (
    PauliString,
    _gf2_reduce,
    apply_pauli_sum,
    pauli_expectations,
)

__all__ = [
    "StateVector",
    "basis_state",
    "reference_state",
    "random_state",
    "apply_pauli",
    "expectation",
    "expectations",
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
    out = apply_pauli_sum([(1, op)], state.n_qubits, state.blocks())
    return StateVector(state.n_qubits, state.cavity_dim, out.ravel())


def overlap(u: StateVector, v: StateVector) -> complex:
    if (u.n_qubits, u.cavity_dim) != (v.n_qubits, v.cavity_dim):
        raise DimensionMismatchError("state dimensions differ")
    return complex(np.vdot(u.amplitudes, v.amplitudes))


def expectation(state: StateVector, op: PauliString) -> complex:
    """<state| op |state>; real up to 1e-12 for Hermitian operators."""
    val = overlap(state, apply_pauli(state, op))
    _check_real(op, val)
    return val


def expectations(state: StateVector, ops) -> list[complex]:
    """``[expectation(state, op) for op in ops]`` in one grouped pass.

    Operators sharing an x-mask share one flip of the amplitudes
    (:func:`~semionlab.pauli.pauli_expectations`); the values agree with
    :func:`expectation` to roundoff, and a Hermitian one that comes out
    complex raises the same ``AssertionError``.
    """
    ops = list(ops)
    values = pauli_expectations(ops, state.blocks()).tolist()
    for op, val in zip(ops, values):
        _check_real(op, val)
    return values


def _check_real(op: PauliString, val: complex) -> None:
    """Raise if a Hermitian ``op`` has a complex expectation ``val``."""
    if op.is_hermitian() and abs(val.imag) > 1e-12:
        raise AssertionError(
            f"Hermitian expectation came out complex: {val}")


def project_ground(layout: HoneycombLayout, cavity_dim: int = 1) -> StateVector:
    """Stabilized ground state: project every plaquette family to +1.

    The result is ``(1 + W)`` for the up- and down-family operator of
    every bond plaquette, in that order, applied to the reference state
    and normalized: a +1 eigenstate of every plaquette operator and of
    every link ZZ.  It is built on its support only.  Starting from basis
    index 0, each ``W = i**p X(x) Z(z)`` maps basis index ``t`` to
    ``t ^ x`` with the factor ``i**p (-1)**popcount(t & z)``.  If ``x``
    is outside the GF(2) span of the x-masks so far, the image is new
    and the support doubles; otherwise ``W`` permutes the support and its
    image is added in place.  A projection that annihilates the state
    would signal an inconsistent sign convention and raises instead of
    silently renormalizing.  The phase is fixed as
    :meth:`StateVector.with_fixed_phase` fixes it, and the support is
    scattered once into the zero-photon block; every other block is zero.
    The tests keep the full-register projection loop as the reference.
    """
    size = _amplitude_count(layout.n_sites, cavity_dim)
    idx = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    # echelon x-masks; dep bit k is the k-th x-mask that doubled the
    # support, and idx[j] is the XOR of the x-masks whose bits j sets
    rows: list[tuple[int, int]] = []
    for plq in layout.bond_plaquettes:
        for family, op in ((UP, plq.up), (DOWN, plq.down)):
            signs = 1.0 - 2.0 * (np.bitwise_count(idx & op.z_mask) & 1)
            image = (1j ** op.phase_exp * signs) * vals
            x, dep = _gf2_reduce(op.x_mask, rows)
            if x:
                rows.append((x, dep ^ (1 << len(rows))))
                idx = np.concatenate((idx, idx ^ op.x_mask))
                vals = np.concatenate((vals, image))
            else:
                vals = vals + image[np.arange(vals.size) ^ dep]
                if not np.any(vals):
                    raise ZeroProjectionError(
                        f"plaquette {plq.index} ({family}) "
                        "annihilated the state")
    vals = vals / float(np.linalg.norm(vals))
    modulus = np.abs(vals)
    top = np.flatnonzero(modulus == modulus.max())
    lead = vals[top[np.argmin(idx[top])]]
    out = np.zeros(size, dtype=complex)
    out[idx] = vals * (abs(lead) / lead)
    return StateVector(layout.n_sites, cavity_dim, out)


def energy_moments(state: StateVector, ham: HamiltonianTerms) -> tuple[float, float]:
    """(<H>, variance) for a Hermitian term list; the variance is >= 0."""
    if ham.n_sites != state.n_qubits:
        raise DimensionMismatchError("Hamiltonian register mismatch")
    hv = ham.apply(state.blocks()).ravel()
    e = float(np.vdot(state.amplitudes, hv).real)
    # a Hermitian operator's variance is >= 0; <H^2> - <H>^2 can round
    # below zero by O(eps <H^2>), and max(0.0, .) never returns -0.0
    var = max(0.0, float(np.vdot(hv, hv).real) - e * e)
    return e, var
