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
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DimensionMismatchError
from .lattice import DOWN, UP, HoneycombLayout
from .operators import REP_HONEYCOMB, x_string_op
from .pauli import (
    PauliString,
    _check_compatible,
    _site_mask,
    commutes,
    multiply,
)
from .states import (
    StateVector,
    _cavity_block,
    _check_register,
    _factor,
    _levels,
    _on_support,
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
    "interferometry_run",
    "ReadoutRecord",
    "jc_swap",
]


# -- string specifications -------------------------------------------

@dataclass(frozen=True, slots=True)
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

    def flipped_against(self,
                        other: "VortexMap") -> dict[str, tuple[int, ...]]:
        if len(self.values) != len(other.values):
            raise DimensionMismatchError(
                f"vortex maps of {len(other.values)} and "
                f"{len(self.values)} plaquettes")
        ups, downs = [], []
        for idx, ((a0, b0), (a1, b1)) in enumerate(
                zip(other.values, self.values)):
            if abs(a0 - a1) > 1e-9:
                ups.append(idx)
            if abs(b0 - b1) > 1e-9:
                downs.append(idx)
        return {"up": tuple(ups), "down": tuple(downs)}


def vortex_map(state: StateVector, layout: HoneycombLayout) -> VortexMap:
    """Expectations of every plaquette operator pair.

    Each value is the overlap of the state with its image under the
    operator (:func:`~semionlab.states.expectations`), so the work is
    proportional to the state's coset: 64 entries for the 3x3 ground
    state.
    """
    plqs = layout.bond_plaquettes
    values = expectations(state, [op for p in plqs for op in (p.up, p.down)])
    return VortexMap(tuple((up.real, down.real)
                           for up, down in zip(values[0::2], values[1::2])))


def _flip_masks(layout: HoneycombLayout, op: PauliString) -> tuple[int, int]:
    """The plaquettes whose up and down stabilizers anticommute with
    ``op``, as two bitmasks (bit ``k`` for plaquette ``k``).

    Every stabilizer of a layout has the same register and tag, so
    ``op`` is checked against the first one only (raising as
    :func:`~semionlab.pauli.commutes` would).  Then ``op`` anticommutes
    with ``W`` iff ``x_mask << n | z_mask`` of ``op`` and
    ``z_mask << n | x_mask`` of ``W`` share an odd number of bits.  Entry
    ``b`` of a family's column table (``layout.flip_columns``) is the
    mask of the ``W`` whose vector has bit ``b``, so the XOR of the
    entries at the set bits of ``op``'s vector is the mask of the
    flipped ones: one XOR per set bit and family, whatever the number of
    plaquettes.
    """
    _check_compatible(op, layout.bond_plaquettes[0].up)
    up_columns = layout.flip_columns[UP]
    down_columns = layout.flip_columns[DOWN]
    up = down = 0
    # site j of the x half is bit n + j of the vector, of the z half bit j
    for mask, shift in ((op.x_mask, op.n_sites), (op.z_mask, 0)):
        while mask:
            j = mask.bit_length() - 1
            up ^= up_columns[j + shift]
            down ^= down_columns[j + shift]
            mask ^= 1 << j
    return up, down


def _indices(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        j = mask.bit_length() - 1
        out.append(j)
        mask ^= 1 << j
    return tuple(reversed(out))


def _flip_dict(masks: tuple[int, int]) -> dict:
    return {UP: _indices(masks[0]), DOWN: _indices(masks[1])}


def predicted_flips(layout: HoneycombLayout, op: PauliString) -> dict:
    """Plaquettes whose stabilizer anticommutes with ``op``, per family.

    ``{"up": (...), "down": (...)}``, each an ascending tuple of
    plaquette indices, read off the layout's column tables in one pass
    over the set bits of ``op`` (see :func:`_flip_masks`).  An ``op`` on
    another register or with another representation tag raises.
    """
    return _flip_dict(_flip_masks(layout, op))


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


@dataclass(frozen=True, slots=True)
class FusionResult:
    """The fusion channel of two strings (:func:`fuse_check`).

    ``flips_first``, ``flips_second`` and ``flips_composite`` are the
    :func:`predicted_flips` of the two strings and of their product.
    They are held as up and down plaquette bitmasks and decoded into
    index tuples only when read.
    """

    same_family: bool
    shared_sites: tuple[int, ...]
    residual: PauliString
    residual_is_identity: bool
    is_vacuum: bool
    flip_masks: tuple[tuple[int, int], ...] = field(repr=False)

    @property
    def flips_first(self) -> dict:
        return _flip_dict(self.flip_masks[0])

    @property
    def flips_second(self) -> dict:
        return _flip_dict(self.flip_masks[1])

    @property
    def flips_composite(self) -> dict:
        return _flip_dict(self.flip_masks[2])


def fuse_check(layout: HoneycombLayout, s1: StringSpec,
               s2: StringSpec) -> FusionResult:
    """Fuse two strings and classify the composite channel.

    The composite's flipped-plaquette pattern is the symmetric
    difference of the individual patterns (Z2 label addition): one XOR
    per family of the flip bitmasks of :func:`_flip_masks`.  That
    function XORs a column per set bit of the masks, and the product's
    masks are the XOR of the parts' masks, so the XOR of the parts'
    flips is the composite's, with no third pass.  The vacuum channel is
    reached when the composite commutes with every plaquette stabilizer,
    pair annihilation being the special case where the residual operator
    is the identity up to phase.  Strings on registers of different
    sizes raise ``DimensionMismatchError`` from the product.
    """
    residual = multiply(s1.operator, s2.operator)
    f1 = _flip_masks(layout, s1.operator)
    f2 = _flip_masks(layout, s2.operator)
    fc = (f1[0] ^ f2[0], f1[1] ^ f2[1])
    return FusionResult(
        same_family=s1.family == s2.family,
        shared_sites=tuple(sorted(set(s1.sites) & set(s2.sites))),
        residual=residual,
        residual_is_identity=residual.is_identity_mask(),
        is_vacuum=fc == (0, 0),
        flip_masks=(f1, f2, fc),
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


def qnd_closed_form_deviation(params: QndParams, n_qubits: int,
                              cavity_dim: int = 2) -> float:
    """Operator-norm gap between the exact evolution and the closed form.

    Both operators are diagonal over cavity (x) qubits, and each entry
    depends only on the photon level and on the count ``k`` of selected
    sites set in the qubit index, so each is held as its ``cavity_dim x
    (N + 1)`` distinct entries, read at one representative index per
    ``k``: the ``k`` lowest selected sites set.  The exact side is
    ``exp(-i tau chi n_c (N - 2k))``, the closed side the factor of
    :func:`qnd_unitary` of each photon sector at the representatives
    (that Z string applied to ones).  The operator norm of their
    difference is its largest modulus.  Zero (to roundoff) at the
    canonical time.  Nothing of size ``2**n_qubits`` is built, so any
    register whose basis indices fit 64 bits is checked.
    """
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    if cavity_dim < 1:
        raise ValueError(f"cavity_dim must be >= 1, got {cavity_dim}")
    _check_register(n_qubits, cavity_dim)
    _site_mask(params.sites, n_qubits)  # refuses sites outside the register
    reps = np.cumsum([0] + [1 << s for s in params.sites])
    levels = np.arange(cavity_dim)[:, None]
    zsum = params.n - 2 * np.arange(params.n + 1)
    exact = np.exp(-1j * params.tau * (params.chi * (levels * zsum)))
    canonical = QndParams.canonical(params.chi, params.sites)
    closed = [_factor(qnd_unitary(canonical, n_c, n_qubits), reps)
              for n_c in range(cavity_dim)]
    return float(np.max(np.abs(exact - closed)))


@dataclass(frozen=True)
class ControlledString:
    """Photon-number-conditioned Z string on ``sites``.

    The gate is the sector-conditioned unitary; the cavity superposition
    it acts on is prepared apart (:func:`cavity_superposition`).
    """

    sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(sorted(set(self.sites))))

    def apply(self, state: StateVector) -> StateVector:
        """Apply the conditioned string gate to a cavity-tensored state.

        Sector ``n_c`` receives ``qnd_unitary(..., n_c, ...)``, the
        ``n_c``-th power of the one-photon unitary, which reproduces the
        exact dispersive evolution at the canonical time for every
        truncation level in one application per sector.  That unitary is
        diagonal, so each entry of the sector keeps its coordinate and is
        multiplied by a unit.
        """
        if state.cavity_dim < 2:
            raise CapacityError("controlled string needs a cavity register")
        params = QndParams.canonical(1.0, self.sites)
        n = state.n_qubits
        values = _levels(state).copy()
        for n_c in range(1, state.cavity_dim):
            values[n_c] *= _factor(qnd_unitary(params, n_c, n), state.index)
        return _on_support(n, state.cavity_dim, state.index, values.ravel(),
                           state.rows)


def cavity_superposition(qubit_state: StateVector, mu: complex,
                         nu: complex) -> StateVector:
    """Tensor a (mu |0> + nu |1>) cavity factor onto a qubit register."""
    if qubit_state.cavity_dim != 1:
        raise DimensionMismatchError("qubit state already carries a cavity")
    q = qubit_state.values
    return _on_support(qubit_state.n_qubits, 2, qubit_state.index,
                       np.concatenate((mu * q, nu * q)), qubit_state.rows)


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
    gate = ControlledString(tuple(sites))
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
    chosen coupling sign.  The evolution runs on the dense amplitudes,
    viewed as ``(cavity_dim, high bits, qubit bit, low bits)`` so that
    each level pair mixes two slices of that view, one per bit value.
    """
    if state.cavity_dim < 2:
        raise CapacityError("exchange evolution needs a cavity register")
    if not 0 <= qubit < state.n_qubits:
        raise DimensionMismatchError(f"qubit {qubit} outside register")
    blocks = state.blocks()
    pairs = blocks.reshape(state.cavity_dim, -1, 2, 1 << qubit)
    for n in range(state.cavity_dim - 1):
        theta = omega * math.sqrt(n + 1) * t
        c, s = math.cos(theta), math.sin(theta)
        upper, lower = pairs[n, :, 1], pairs[n + 1, :, 0]
        upper[...], lower[...] = (c * upper - 1j * s * lower,
                                  -1j * s * upper + c * lower)
    return StateVector(state.n_qubits, state.cavity_dim, blocks.ravel())
