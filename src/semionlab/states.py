"""State vectors over a qubit register tensored with a cavity mode.

Every state is held on one coset ``base ^ span(g_1 ... g_r)`` of qubit
basis indices (Dehaene and De Moor, Phys. Rev. A 68, 042318 (2003)), in
coset coordinates: coordinate ``c < 2**r`` is the basis index
``index[c] = index[0] ^ XOR_{k in c} g_k``.  ``index`` holds these qubit
bits, in coordinate order, and ``values`` one block of ``2**r``
amplitudes per cavity level, cavity level major; ``cavity_dim = 1``
means no cavity.  ``rows`` holds the span in echelon form, the
``(vec, dep)`` rows of :func:`~semionlab.pauli._gf2_reduce` whose
``dep`` bit ``k`` stands for ``g_k``.  A state built from a dense
amplitude vector is the case whose generators are the unit vectors, so
its coordinate is its index.  The plaquette ground state holds only its
``2**rank`` amplitudes, and so does every Pauli string applied to it.

A string ``i**p X(x) Z(z)`` reduces ``x`` against the rows to a
remainder and a ``dep``: it sends coordinate ``c`` to coordinate
``c ^ dep`` of the coset whose base moved by the remainder.  So a string
is one gather, an expectation is exactly 0 unless the remainder is 0,
and no operation here sorts, joins on one span, or builds an array of
``2**n_qubits`` entries.  ``amplitudes`` and ``blocks()`` scatter a
state into the dense form, checked against the dense budget.  State
values are treated as immutable; every operation returns a new state,
so concurrent read-only use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    MAX_CAVITY_LEVELS,
    CapacityError,
    DimensionMismatchError,
    ZeroProjectionError,
    _require_capacity,
)
from .hamiltonian import HamiltonianTerms
from .lattice import DOWN, UP, HoneycombLayout
from .pauli import PauliString, _echelon, _gf2_reduce

__all__ = [
    "StateVector",
    "basis_state",
    "random_state",
    "apply_pauli",
    "expectation",
    "expectations",
    "overlap",
    "project_ground",
    "energy_moments",
]


def _check_register(n_qubits: int, cavity_dim: int) -> None:
    """Raise unless the cavity levels and every basis index fit."""
    if cavity_dim < 1:
        raise DimensionMismatchError("cavity_dim must be >= 1")
    if cavity_dim > MAX_CAVITY_LEVELS:
        raise CapacityError(f"{cavity_dim} cavity levels, over the limit "
                            f"of {MAX_CAVITY_LEVELS}")
    if cavity_dim << n_qubits >= 1 << 63:
        raise CapacityError(f"basis indices of {cavity_dim} x 2**{n_qubits} "
                            "states do not fit 64 bits")


def _amplitude_count(n_qubits: int, cavity_dim: int) -> int:
    """Amplitudes of a cavity (x) qubit register, checked before allocation."""
    count = _require_capacity(cavity_dim << n_qubits,
                              f"state over {cavity_dim} x 2**{n_qubits}")
    _check_register(n_qubits, cavity_dim)
    return count


@dataclass(frozen=True, init=False, eq=False)
class StateVector:
    """Complex amplitudes over cavity (x) qubits, held on a coset.

    ``index`` holds the coset's qubit basis indices in coordinate order,
    ``values`` the amplitudes, one block per cavity level in that order,
    and ``rows`` the span's echelon rows (see the module docstring).  The
    constructor takes the dense amplitude vector of length
    ``cavity_dim * 2**n_qubits``; its coset is the whole register.  Two
    states are ``==`` only if they are the same object; compare them with
    :func:`overlap`.
    """

    n_qubits: int
    cavity_dim: int
    index: np.ndarray
    values: np.ndarray
    rows: tuple[tuple[int, int], ...]

    def __init__(self, n_qubits: int, cavity_dim: int, amplitudes):
        expected = _amplitude_count(n_qubits, cavity_dim)
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (expected,):
            raise DimensionMismatchError(
                f"expected {expected} amplitudes, got {amps.shape}")
        vars(self).update(
            n_qubits=n_qubits, cavity_dim=cavity_dim, values=amps,
            index=np.arange(1 << n_qubits, dtype=np.int64),
            rows=tuple((1 << k, 1 << k) for k in range(n_qubits)))

    @property
    def qubit_dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense amplitude vector, scattered from the coset."""
        return self.blocks().ravel()

    def blocks(self) -> np.ndarray:
        """Dense amplitudes shaped (cavity_dim, 2**n_qubits)."""
        out = np.zeros(_amplitude_count(self.n_qubits, self.cavity_dim),
                       dtype=complex).reshape(self.cavity_dim, -1)
        out[:, self.index] = _levels(self)
        return out

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroProjectionError("cannot normalize the zero vector")
        return _on_support(self.n_qubits, self.cavity_dim, self.index,
                           self.values / n, self.rows)

    def with_fixed_phase(self) -> "StateVector":
        """Rotate the global phase so the largest amplitude is real positive.

        Of several largest amplitudes, the one at the lowest index counts.
        """
        mag = np.abs(self.values)
        top = np.flatnonzero(mag == mag.max())
        # entry k holds cavity level k // 2**r, qubit bits index[k % 2**r]
        level, at = np.divmod(top, self.index.size)
        a = self.values[top[np.argmin(level << self.n_qubits
                                      | self.index[at])]]
        if a == 0:
            return self
        return _on_support(self.n_qubits, self.cavity_dim, self.index,
                           self.values * (abs(a) / a), self.rows)


def _on_support(n_qubits: int, cavity_dim: int, index: np.ndarray,
                values: np.ndarray, rows) -> StateVector:
    """The state with ``values`` on the coset ``index`` of span ``rows``."""
    _check_register(n_qubits, cavity_dim)
    state = object.__new__(StateVector)
    vars(state).update(n_qubits=n_qubits, cavity_dim=cavity_dim, index=index,
                       values=values, rows=tuple(rows))
    return state


def _levels(state: StateVector) -> np.ndarray:
    """``state.values`` viewed as (cavity_dim, 2**r), one row per level."""
    return state.values.reshape(state.cavity_dim, -1)


def _partner(blocks: np.ndarray, dep: int) -> np.ndarray:
    """``blocks`` with the entry at coordinate ``c ^ dep`` at ``c``."""
    if not dep:
        return blocks
    return blocks.take(np.arange(blocks.shape[-1]) ^ dep, axis=-1)


def _cavity_block(state: StateVector, n_c: int) -> StateVector:
    """The ``n_c``-photon block of ``state``, as a state with no cavity."""
    return _on_support(state.n_qubits, 1, state.index, _levels(state)[n_c],
                       state.rows)


def _check_operator(op: PauliString, n_qubits: int) -> None:
    if op.n_sites != n_qubits:
        raise DimensionMismatchError(
            f"operator on {op.n_sites} sites, register has {n_qubits}")


# _UNITS[p][k] = i**p (-1)**k for every popcount k of an int64 index
_UNITS = tuple((1j ** p) * (1.0 - 2.0 * (np.arange(64) & 1))
               for p in range(4))


def _factor(op: PauliString, index: np.ndarray,
            weight: float = 1.0) -> np.ndarray:
    """``weight i**p (-1)**popcount(t & z)`` for each basis index ``t`` of
    ``index``: what ``weight P``, ``P = i**p X(x) Z(z)``, multiplies the
    amplitude at ``t`` by as it moves it to ``t ^ x``.

    Each index reads its popcount's entry of a signed-unit table, which
    holds ``i**p`` times ``+1.0`` and ``-1.0`` alternately, scaled by
    ``weight`` unless it is 1: the same complex-by-real product per entry
    as ``i**p`` times an array of signs, so at weight 1 the values agree
    with it bit for bit, signed zeros included.
    """
    units = _UNITS[op.phase_exp]
    units = units if weight == 1.0 else weight * units
    return units.take(np.bitwise_count(index & op.z_mask))


def basis_state(n_qubits: int, bits: int = 0, cavity_dim: int = 1,
                cavity_level: int = 0) -> StateVector:
    if not 0 <= bits < (1 << n_qubits):
        raise DimensionMismatchError(f"bits {bits} outside register")
    if not 0 <= cavity_level < cavity_dim:
        raise DimensionMismatchError("cavity level outside truncation")
    _check_register(n_qubits, cavity_dim)  # before bits go into an int64
    # a coset of one index: one amplitude per cavity level
    values = np.zeros(cavity_dim, dtype=complex)
    values[cavity_level] = 1.0
    return _on_support(n_qubits, cavity_dim, np.array([bits], dtype=np.int64),
                       values, ())


def random_state(n_qubits: int, cavity_dim: int = 1,
                 rng: np.random.Generator | None = None) -> StateVector:
    rng = rng or np.random.default_rng()
    dim = _amplitude_count(n_qubits, cavity_dim)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n_qubits, cavity_dim, amps).normalized()


def apply_pauli(state: StateVector, op: PauliString) -> StateVector:
    """Apply a Pauli string to the qubit register; cavity factor untouched.

    ``x_mask`` reduces against the rows to a remainder and ``dep``: the
    entry at coordinate ``c`` is multiplied by the unit :func:`_factor` at
    its index and moves to coordinate ``c ^ dep`` of the coset whose
    indices all moved by the remainder.  One gather; the values stay exact.
    """
    _check_operator(op, state.n_qubits)
    rem, dep = _gf2_reduce(op.x_mask, state.rows)
    image = _factor(op, state.index) * _levels(state)
    return _on_support(state.n_qubits, state.cavity_dim, state.index ^ rem,
                       _partner(image, dep).ravel(), state.rows)


def overlap(u: StateVector, v: StateVector) -> complex:
    """``<u|v>``, one ``vdot`` over the entries both cosets hold.

    On one span, ``index[0] ^ index[0]`` reduces to a remainder (the
    cosets are disjoint) or to a ``dep``: ``v``'s coordinate ``c`` is
    ``u``'s ``c ^ dep``.  Across spans, all of ``v``'s indices reduce
    against ``u``'s rows at once, one pass per row; one that reduces to
    0 is on ``u``'s coset, at the XOR of the deps of the rows used.
    Neither side is scattered.
    """
    if (u.n_qubits, u.cavity_dim) != (v.n_qubits, v.cavity_dim):
        raise DimensionMismatchError("state dimensions differ")
    if u.rows == v.rows:
        rem, dep = _gf2_reduce(int(u.index[0] ^ v.index[0]), u.rows)
        if rem:
            return 0j
        return complex(np.vdot(_partner(_levels(u), dep), _levels(v)))
    key = v.index ^ u.index[0]
    coord = np.zeros_like(key)
    for vec, dep in u.rows:
        hit = (key ^ vec) < key
        np.bitwise_xor(key, vec, out=key, where=hit)
        np.bitwise_xor(coord, dep, out=coord, where=hit)
    held = key == 0
    return complex(np.vdot(_levels(u)[:, coord[held]], _levels(v)[:, held]))


def expectation(state: StateVector, op: PauliString) -> complex:
    """<state| op |state>; real up to 1e-12 for Hermitian operators.

    The one-operator case of :func:`expectations`.
    """
    return expectations(state, [op])[0]


def expectations(state: StateVector, ops) -> list[complex]:
    """``<state| op |state>`` for each of ``ops``, in order.

    An operator whose ``x_mask`` leaves a remainder against the rows
    moves the coset off itself, so its value is exactly ``0j``.
    Otherwise it sends coordinate ``c`` to ``c ^ dep`` with the factor
    ``f`` of :func:`_factor`, and its value is the sum of
    ``conj(psi(c)) f(c ^ dep) psi(c ^ dep)`` over the coordinates: one
    gather and one ``np.vdot`` per operator, no lookup and no
    intermediate state.  A Hermitian operator whose value comes out
    complex beyond 1e-12 raises ``AssertionError``.
    """
    blocks = _levels(state)
    out = []
    for op in ops:
        _check_operator(op, state.n_qubits)
        rem, dep = _gf2_reduce(op.x_mask, state.rows)
        val = 0j if rem else complex(np.vdot(
            blocks, _partner(_factor(op, state.index) * blocks, dep)))
        if op.is_hermitian() and abs(val.imag) > 1e-12:
            raise AssertionError(
                f"Hermitian expectation came out complex: {val}")
        out.append(val)
    return out


def project_ground(layout: HoneycombLayout, cavity_dim: int = 1) -> StateVector:
    """Stabilized ground state: project every plaquette family to +1.

    The result is ``(1 + W)`` for the up- and down-family operator of
    every bond plaquette, in that order, applied to basis index 0 (every
    site Z +1) and normalized: a +1 eigenstate of every plaquette
    operator and of every link ZZ.  It is built and returned on its
    coset, in the zero-photon block; every other block is zero.  Each
    ``W = i**p X(x) Z(z)`` maps basis index ``t`` to ``t ^ x`` with the
    factor :func:`_factor`.  If ``x`` is outside the GF(2) span of the
    x-masks so far, the image is new: ``x`` becomes the next generator
    and the coset doubles.  Otherwise ``W`` sends coordinate ``c`` to
    ``c ^ dep`` and its image is added in place.  So the coset has
    ``2**rank`` entries, ``rank`` that of the plaquette x-masks, and that
    count is checked against the budget before any array is built.  A
    projection that annihilates the state would signal an inconsistent
    sign convention and raises instead of silently renormalizing.  The
    phase is fixed by :meth:`StateVector.with_fixed_phase`.  The tests
    keep the full-register projection loop as the reference.
    """
    steps = [(plq, family, op) for plq in layout.bond_plaquettes
             for family, op in ((UP, plq.up), (DOWN, plq.down))]
    # dep bit k is the k-th x-mask that doubled the coset, and idx[c] is
    # the XOR of the x-masks whose bits c sets; a step's dep is None when
    # its x-mask doubles the coset
    rows, deps = _echelon(op.x_mask for _, _, op in steps)
    what = f"ground-state support of 2**{len(rows)} entries"
    _require_capacity(cavity_dim << len(rows),
                      what if cavity_dim == 1 else f"{cavity_dim} x {what}")
    # after the budget, so an oversized support is named as such
    _check_register(layout.n_sites, cavity_dim)
    idx = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    for (plq, family, op), dep in zip(steps, deps):
        image = _factor(op, idx) * vals
        if dep is None:
            idx = np.concatenate((idx, idx ^ op.x_mask))
            vals = np.concatenate((vals, image))
        else:
            vals = vals + _partner(image, dep)
            if not np.any(vals):
                raise ZeroProjectionError(
                    f"plaquette {plq.index} ({family}) "
                    "annihilated the state")
    ground = _on_support(layout.n_sites, 1, idx, vals, rows).normalized()
    values = np.concatenate((ground.with_fixed_phase().values,
                             np.zeros((cavity_dim - 1) * idx.size,
                                      dtype=complex)))
    return _on_support(layout.n_sites, cavity_dim, idx, values, rows)


def energy_moments(state: StateVector, ham: HamiltonianTerms) -> tuple[float, float]:
    """(<H>, variance) for a Hermitian term list and a normalized state.

    Each term ``c P`` sends the state onto the coset moved by the
    remainder of its ``x_mask`` (see :func:`apply_pauli`), so ``H|state>``
    is one buffer of the state's size per distinct remainder, the sum of
    the images of its terms in term order.  ``<H>`` is the overlap of the
    state with the buffer of remainder 0, from which ``<H>`` times the
    state is then subtracted; the variance is the sum of the buffers'
    squared norms, ``||(H - <H>) state||^2``, since distinct cosets are
    disjoint.  A sum of squares, it is never below 0 and does not lose
    the digits that ``<H^2> - <H>^2`` cancels.  The buffers are built one
    at a time, so whatever the number of terms the peak is a few times
    the state.
    """
    if ham.n_sites != state.n_qubits:
        raise DimensionMismatchError("Hamiltonian register mismatch")
    groups: dict[int, list] = {}
    for c, op in ham.terms:
        rem, dep = _gf2_reduce(op.x_mask, state.rows)
        groups.setdefault(rem, []).append((c, op, dep))
    blocks = _levels(state)
    e = variance = 0.0
    for rem, terms in groups.items():
        hv = np.zeros_like(blocks)
        for c, op, dep in terms:
            hv += _partner(_factor(op, state.index, c) * blocks, dep)
        if not rem:
            e = float(np.vdot(blocks, hv).real)
            hv -= e * blocks
        variance += float(np.vdot(hv, hv).real)
    return e, variance
