"""Excitation strings, braiding phases, and the cavity protocol.

Excitations are created and moved by Pauli strings over honeycomb sites.
Two string families matter for mutual statistics: Z-type strings (the
protocol's native controlled-string operation) and X-type strings
(products of the occupation-changing site operations).  A loop of one
family crossing a string of the other an odd number of times picks up
the exchange phase -1; the same scalar is recovered from state-vector
evolutions, and both routes are exposed here.

The cavity machinery implements the photon-number-conditioned string
gate: an off-resonant dispersive coupling ``chi * n_c * sum_j Z_j``
evolved for ``tau = pi / (2 chi)`` acts as the identity in the zero-
photon sector and as ``(-i)**N`` times the Z string in the one-photon
sector.  A resonant exchange coupling with an ancilla swaps qubit and
cavity excitations for photon-state preparation; its ``-i`` transfer
phase follows from the chosen coupling sign and is asserted in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DimensionMismatchError, _require_capacity
from .lattice import HoneycombLayout
from .operators import REP_HONEYCOMB, x_string_op
from .pauli import (
    PauliString,
    _anticommuting,
    _check_compatible,
    _set_bits,
    _site_mask,
    apply_pauli_sum,
    commutes,
    multiply,
)
from .states import (
    StateVector,
    _cavity_block,
    _on_support,
    _pauli_images,
    apply_pauli,
    expectations,
    overlap,
)

__all__ = [
    "StringSpec",
    "VortexMap",
    "FusionResult",
    "QndParams",
    "vortex_map",
    "braid_phase",
    "braid_phase_on_state",
    "fuse_check",
    "qnd_unitary",
    "qnd_closed_form_deviation",
    "ControlledString",
    "cavity_superposition",
    "string_basis_change",
    "conjugate_by_hadamard",
    "conjugate_by_phase_rotation",
    "interferometry_run",
    "ReadoutRecord",
    "jc_swap",
]


# -- string specifications -------------------------------------------

@dataclass(frozen=True)
class StringSpec:
    """A compiled excitation string with its family tag and site set."""

    family: str
    sites: tuple[int, ...]
    operator: PauliString

    @staticmethod
    def _letters(layout: HoneycombLayout, sites, letter: str, family: str):
        """``letter`` on every site: X and Z set one mask, Y both, with
        one factor ``i`` per site from ``Y = i X Z``."""
        sites = tuple(sorted(set(sites)))
        mask = _site_mask(sites, layout.n_sites)
        x_mask = mask if letter in "XY" else 0
        z_mask = mask if letter in "ZY" else 0
        phase = len(sites) if letter == "Y" else 0
        return StringSpec(family, sites, PauliString(
            layout.n_sites, x_mask, z_mask, phase, REP_HONEYCOMB))

    @classmethod
    def z_string(cls, layout: HoneycombLayout, sites) -> "StringSpec":
        """Product of Z over a site set (path or loop)."""
        return cls._letters(layout, sites, "Z", "z")

    @classmethod
    def x_string(cls, layout: HoneycombLayout, sites) -> "StringSpec":
        """Product of X over a site set; equals the compiled product of
        the per-site occupation-changing strings."""
        return cls._letters(layout, sites, "X", "x")

    @classmethod
    def y_string(cls, layout: HoneycombLayout, sites) -> "StringSpec":
        return cls._letters(layout, sites, "Y", "y")

    @classmethod
    def site_flip(cls, layout: HoneycombLayout, square_site: int,
                  color: str) -> "StringSpec":
        """Occupation-changing string at one site (compiles to a single X)."""
        op = x_string_op(layout, square_site, color)
        return StringSpec("x", op.sites(), op)


# -- vortex bookkeeping ----------------------------------------------

@dataclass(frozen=True)
class VortexMap:
    """Per-plaquette expectations (up family, down family)."""

    values: tuple[tuple[float, float], ...]

    def flipped_against(self, other: "VortexMap",
                        tol: float = 1e-9) -> dict[str, tuple[int, ...]]:
        ups, downs = [], []
        for idx, ((a0, b0), (a1, b1)) in enumerate(
                zip(other.values, self.values)):
            if abs(a0 - a1) > tol:
                ups.append(idx)
            if abs(b0 - b1) > tol:
                downs.append(idx)
        return {"up": tuple(ups), "down": tuple(downs)}


def vortex_map(state: StateVector, layout: HoneycombLayout) -> VortexMap:
    """Expectations of every plaquette operator pair.

    Each value is the overlap of the state with its image under the
    operator (:func:`~semionlab.states.expectations`), so the work is
    proportional to the state's support: 64 entries for the 3x3 ground
    state.
    """
    plqs = layout.bond_plaquettes
    values = expectations(state, [op for p in plqs for op in (p.up, p.down)])
    return VortexMap(tuple((up.real, down.real)
                           for up, down in zip(values[0::2], values[1::2])))


def predicted_flips(layout: HoneycombLayout, op: PauliString) -> dict:
    """Plaquettes whose stabilizer anticommutes with ``op``, per family.

    Every stabilizer of a layout has the same register and tag, so
    ``op`` is checked against the first one only (raising as
    :func:`~semionlab.pauli.commutes` would).  Then ``op`` anticommutes
    with ``W`` iff ``x_mask << n | z_mask`` of ``op`` and
    ``z_mask << n | x_mask`` of ``W`` share an odd number of bits.  The
    layout's column table of each family (``flip_columns``) gives every
    such ``W`` at once: the cost is one XOR per set bit of ``op`` and one
    step per flipped plaquette, whatever the number of plaquettes.
    """
    plqs = layout.bond_plaquettes
    if plqs:
        _check_compatible(op, plqs[0].up)
    n = op.n_sites
    bits = _set_bits(op.x_mask << n | op.z_mask)
    return {family: tuple(reversed(_set_bits(_anticommuting(columns, bits))))
            for family, columns in layout.flip_columns.items()}


# -- braiding ----------------------------------------------------------

def braid_phase(loop: StringSpec, crossing: StringSpec) -> complex:
    """Scalar ``s`` with ``loop . crossing = s . crossing . loop``.

    Exactly +1 or -1 for Pauli strings, read off the symplectic data.
    """
    if not isinstance(loop.operator, PauliString) or \
            not isinstance(crossing.operator, PauliString):
        raise TypeError("braid_phase needs compiled Pauli strings")
    return 1.0 + 0j if commutes(loop.operator, crossing.operator) else -1.0 + 0j


def braid_phase_on_state(loop: StringSpec, crossing: StringSpec,
                         state: StateVector) -> complex:
    """Interference overlap between the two operation orders.

    ``<crossing loop state | loop crossing state>`` equals the operator
    phase for any normalized state, which the tests exploit as the
    state-evolution oracle.
    """
    braided = apply_pauli(apply_pauli(state, crossing.operator), loop.operator)
    unbraided = apply_pauli(apply_pauli(state, loop.operator), crossing.operator)
    return overlap(unbraided, braided)


@dataclass(frozen=True)
class FusionResult:
    same_family: bool
    shared_sites: tuple[int, ...]
    residual: PauliString
    residual_is_identity: bool
    is_vacuum: bool
    flips_first: dict
    flips_second: dict
    flips_composite: dict


def fuse_check(layout: HoneycombLayout, s1: StringSpec,
               s2: StringSpec) -> FusionResult:
    """Fuse two strings and classify the composite channel.

    The composite's flipped-plaquette pattern is the symmetric
    difference of the individual patterns (Z2 label addition); the
    vacuum channel is reached when the composite commutes with every
    plaquette stabilizer, pair annihilation being the special case where
    the residual operator is the identity up to phase.
    """
    if s1.operator.n_sites != s2.operator.n_sites:
        raise DimensionMismatchError("string registers differ")
    residual = multiply(s1.operator, s2.operator)
    f1 = predicted_flips(layout, s1.operator)
    f2 = predicted_flips(layout, s2.operator)
    fc = predicted_flips(layout, residual)
    for fam in ("up", "down"):
        expect = tuple(sorted(set(f1[fam]) ^ set(f2[fam])))
        if tuple(sorted(fc[fam])) != expect:
            raise AssertionError("flip pattern is not the symmetric "
                                 "difference; phase bookkeeping broken")
    vacuum = not fc["up"] and not fc["down"]
    return FusionResult(
        same_family=s1.family == s2.family,
        shared_sites=tuple(sorted(set(s1.sites) & set(s2.sites))),
        residual=residual,
        residual_is_identity=residual.is_identity_mask(),
        is_vacuum=vacuum,
        flips_first=f1,
        flips_second=f2,
        flips_composite=fc,
    )


# -- photon-number-conditioned strings --------------------------------

@dataclass(frozen=True)
class QndParams:
    """Dispersive-gate parameters: coupling ``chi``, time ``tau``, sites."""

    chi: float
    tau: float
    sites: tuple[int, ...]

    def __post_init__(self):
        if not self.sites:
            raise ValueError("need at least one selected site")
        object.__setattr__(self, "sites", tuple(sorted(set(self.sites))))

    @classmethod
    def canonical(cls, chi: float, sites) -> "QndParams":
        if chi == 0:
            raise ValueError(f"chi must be nonzero, got {chi}")
        return cls(chi, math.pi / (2 * chi), tuple(sites))

    @property
    def n(self) -> int:
        return len(self.sites)

    @property
    def is_canonical(self) -> bool:
        return math.isclose(self.chi * self.tau, math.pi / 2,
                            rel_tol=1e-12, abs_tol=0.0)


def qnd_unitary(params: QndParams, n_c: int, n_qubits: int) -> PauliString:
    """Closed-form gate in the ``n_c``-photon sector at the canonical time.

    ``exp(-i tau chi n_c sum_j Z_j)`` at ``tau = pi/(2 chi)`` is
    ``((-i)**N Z_string)**n_c``: the phase ``(-i)**(N n_c)`` times the Z
    string over the ``N`` selected sites when ``n_c`` is odd, times the
    identity when it is even (``n_c = 0`` included).
    """
    if not params.is_canonical:
        raise ValueError(
            f"closed form holds at tau = pi/(2 chi); got chi*tau = "
            f"{params.chi * params.tau}")
    if n_c < 0:
        raise ValueError(f"photon number must be >= 0, got {n_c}")
    mask = _site_mask(params.sites, n_qubits)
    return PauliString(n_qubits, 0, mask if n_c % 2 else 0,
                       3 * params.n * n_c)


def _qnd_diagonal(params: QndParams, n_qubits: int,
                  cavity_dim: int) -> np.ndarray:
    """Diagonal of the dispersive Hamiltonian over cavity (x) qubits."""
    mask = _site_mask(params.sites, n_qubits)
    bits = np.arange(1 << n_qubits, dtype=np.uint64)
    zsum = params.n - 2 * np.bitwise_count(bits & np.uint64(mask)).astype(
        np.int64)
    levels = np.arange(cavity_dim)
    return params.chi * (levels[:, None] * zsum[None, :]).ravel()


def qnd_closed_form_deviation(params: QndParams, n_qubits: int,
                              cavity_dim: int = 2) -> float:
    """Operator-norm gap between the exact evolution and the closed form.

    Both operators are diagonal over cavity (x) qubits, so each is held
    as its diagonal: the exact side is ``exp(-i tau d)`` taken elementwise
    over the dispersive diagonal ``d``, the closed side is
    :func:`qnd_unitary` of each photon sector applied to a vector of
    ones.  The operator norm of their difference is its largest modulus.
    Zero (to roundoff) at the canonical time.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if cavity_dim < 1:
        raise ValueError(f"cavity_dim must be >= 1, got {cavity_dim}")
    dim = 1 << n_qubits
    _require_capacity(cavity_dim * dim,
                      f"dispersive diagonal over {cavity_dim} x {dim} states")
    exact = np.exp(-1j * params.tau * _qnd_diagonal(params, n_qubits,
                                                    cavity_dim))
    canonical = QndParams.canonical(params.chi, params.sites)
    ones = np.ones(dim)
    closed = np.concatenate([
        apply_pauli_sum([(1, qnd_unitary(canonical, n_c, n_qubits))],
                        n_qubits, ones)
        for n_c in range(cavity_dim)])
    return float(np.max(np.abs(exact - closed)))


@dataclass(frozen=True)
class ControlledString:
    """Photon-number-conditioned Z string.

    ``mu`` and ``nu`` describe the prepared cavity superposition (they
    must be consistent with a normalized photon state); the gate itself
    is the sector-conditioned unitary and does not depend on them.
    """

    mu: complex
    nu: complex
    sites: tuple[int, ...]

    def __post_init__(self):
        if abs(abs(self.mu) ** 2 + abs(self.nu) ** 2 - 1.0) > 1e-9:
            raise ValueError("|mu|^2 + |nu|^2 must be 1")
        object.__setattr__(self, "sites", tuple(sorted(set(self.sites))))

    def apply(self, state: StateVector) -> StateVector:
        """Apply the conditioned string gate to a cavity-tensored state.

        Sector ``n_c`` receives ``qnd_unitary(..., n_c, ...)``, the
        ``n_c``-th power of the one-photon unitary, which reproduces the
        exact dispersive evolution at the canonical time for every
        truncation level in one application per sector.  That unitary is
        diagonal, so each entry of the sector keeps its basis index and
        is multiplied by a unit.
        """
        if state.cavity_dim < 2:
            raise CapacityError("controlled string needs a cavity register")
        params = QndParams.canonical(1.0, self.sites)
        n = state.n_qubits
        level = state.index >> n
        values = state.values.copy()
        for n_c in range(1, state.cavity_dim):
            sector = level == n_c
            _, factor = _pauli_images([(1, qnd_unitary(params, n_c, n))], n,
                                      state.index[sector])
            values[sector] *= factor[0]
        return _on_support(n, state.cavity_dim, state.index, values)


def cavity_superposition(qubit_state: StateVector, mu: complex,
                         nu: complex) -> StateVector:
    """Tensor a (mu |0> + nu |1>) cavity factor onto a qubit register."""
    if qubit_state.cavity_dim != 1:
        raise DimensionMismatchError("qubit state already carries a cavity")
    index, q = qubit_state.index, qubit_state.values
    return _on_support(qubit_state.n_qubits, 2,
                       np.concatenate((index, index + qubit_state.qubit_dim)),
                       np.concatenate((mu * q, nu * q)))


# -- basis changes ------------------------------------------------------

def conjugate_by_hadamard(op: PauliString, sites_mask: int) -> PauliString:
    """Exact image under Hadamard on the masked sites (X<->Z, Y->-Y)."""
    keep = ~sites_mask
    x = (op.x_mask & keep) | (op.z_mask & sites_mask)
    z = (op.z_mask & keep) | (op.x_mask & sites_mask)
    phase = op.phase_exp + 2 * int.bit_count(op.x_mask & op.z_mask & sites_mask)
    return PauliString(op.n_sites, x, z, phase, op.rep)


def conjugate_by_phase_rotation(op: PauliString, sites_mask: int) -> PauliString:
    """Exact image under exp(-i pi Z / 4) on the masked sites (X->Y->-X)."""
    z = op.z_mask ^ (op.x_mask & sites_mask)
    phase = op.phase_exp + int.bit_count(op.x_mask & sites_mask)
    return PauliString(op.n_sites, op.x_mask, z, phase, op.rep)


def string_basis_change(axis: str, sites, n_qubits: int) -> PauliString:
    """X- or Y-string as a rotated Z-string.

    The Z string over ``sites`` is conjugated by per-site Hadamards (for
    ``axis="x"``) or by Hadamards followed by the quarter phase rotation
    (for ``axis="y"``); the result equals the directly built letter
    product, which tests assert against dense matrices.
    """
    mask = _site_mask(sites, n_qubits)
    uz = PauliString(n_qubits, 0, mask, 0)
    if axis == "x":
        return conjugate_by_hadamard(uz, mask)
    if axis == "y":
        return conjugate_by_phase_rotation(conjugate_by_hadamard(uz, mask),
                                           mask)
    raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")


# -- interferometry ----------------------------------------------------

@dataclass(frozen=True)
class ReadoutRecord:
    coherence_real: float
    coherence_imag: float
    inferred_eigenvalue: float


def interferometry_run(layout: HoneycombLayout, state: StateVector,
                       sites) -> ReadoutRecord:
    """Cavity-interference readout of a Z-string eigenvalue.

    Prepares an equal cavity superposition over the qubit content of
    ``state`` (taken from its zero-photon block), applies the
    conditioned string, and converts the surviving cavity coherence back
    into the string expectation; the inferred value matches the direct
    expectation on the input state for arbitrary states, eigenstate or
    not.
    """
    if state.cavity_dim < 2:
        raise CapacityError("interferometry needs a cavity register")
    if state.n_qubits != layout.n_sites:
        raise DimensionMismatchError("state does not match the layout")
    return _zero_photon_readout(state, sites)[1]


def _zero_photon_readout(state: StateVector,
                         sites) -> tuple[StateVector, ReadoutRecord]:
    """Normalized zero-photon block of ``state`` and its readout."""
    qubits = _cavity_block(state, 0)
    if qubits.norm() < 1e-12:
        raise ValueError("zero-photon block is empty; nothing to read out")
    qubits = qubits.normalized()

    s = 1.0 / math.sqrt(2.0)
    prepared = cavity_superposition(qubits, s, s)
    gate = ControlledString(s, s, tuple(sites))
    evolved = gate.apply(prepared)

    coherence = overlap(_cavity_block(evolved, 0), _cavity_block(evolved, 1))
    n = len(set(sites))
    inferred = 2.0 * coherence * (1j ** n)   # divide out the (-i)**N phase
    return qubits, ReadoutRecord(coherence.real, coherence.imag,
                                 inferred.real)


# -- ancilla swap -------------------------------------------------------

def jc_swap(state: StateVector, omega: float, t: float,
            qubit: int = 0) -> StateVector:
    """Exact resonant-exchange evolution between cavity and one qubit.

    Couples ``|n, excited>`` with ``|n+1, ground>`` at strength
    ``omega * sqrt(n+1)`` inside the truncated cavity space (the qubit
    bit value 1 is the excited state).  At ``t = pi/(2 omega)`` a single
    excitation transfers completely, picking up the ``-i`` phase of the
    chosen coupling sign.
    """
    if state.cavity_dim < 2:
        raise CapacityError("exchange evolution needs a cavity register")
    if not 0 <= qubit < state.n_qubits:
        raise DimensionMismatchError(f"qubit {qubit} outside register")
    blocks = state.blocks()
    dim = state.qubit_dim
    bit = 1 << qubit
    excited = np.flatnonzero(np.arange(dim) & bit)
    ground = excited ^ bit
    for n in range(state.cavity_dim - 1):
        theta = omega * math.sqrt(n + 1) * t
        c, s = math.cos(theta), math.sin(theta)
        upper = blocks[n, excited].copy()
        lower = blocks[n + 1, ground].copy()
        blocks[n, excited] = c * upper - 1j * s * lower
        blocks[n + 1, ground] = -1j * s * upper + c * lower
    return StateVector(state.n_qubits, state.cavity_dim, blocks.ravel())
