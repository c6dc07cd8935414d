"""State vectors over a qubit register tensored with a cavity mode.

A state is held on its support: sorted, unique int64 basis indices and
one complex amplitude per index, every other amplitude zero.  The index
order is cavity-index major, qubit bits minor: ``n_c * 2**n_qubits +
bits``.  ``cavity_dim = 1`` means no cavity.  A state built from a dense
amplitude vector holds the whole index range.  The plaquette ground state
holds only its ``2**rank`` nonzero amplitudes, and so does every Pauli
string applied to it: a string maps each index to one index, so no
operation here builds an array of ``2**n_qubits`` entries for it.
``amplitudes`` and ``blocks()`` scatter a state into the dense form,
checked against the dense budget.  State values are treated as
immutable; every operation returns a new state, so concurrent read-only
use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DENSE_ELEMENTS,
    MAX_CAVITY_LEVELS,
    CapacityError,
    DimensionMismatchError,
    ZeroProjectionError,
    _require_capacity,
)
from .hamiltonian import HamiltonianTerms
from .lattice import DOWN, UP, HoneycombLayout
from .pauli import PauliString, _gf2_reduce

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


@dataclass(frozen=True, init=False)
class StateVector:
    """Complex amplitudes over cavity (x) qubits, held on their support.

    ``index`` holds sorted, unique int64 basis indices and ``values`` the
    amplitude at each.  The constructor takes the dense amplitude vector
    of length ``cavity_dim * 2**n_qubits`` and holds the whole range.
    """

    n_qubits: int
    cavity_dim: int
    index: np.ndarray
    values: np.ndarray

    def __init__(self, n_qubits: int, cavity_dim: int, amplitudes):
        expected = _amplitude_count(n_qubits, cavity_dim)
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != (expected,):
            raise DimensionMismatchError(
                f"expected {expected} amplitudes, got {amps.shape}")
        _hold(self, n_qubits, cavity_dim,
              np.arange(expected, dtype=np.int64), amps)

    @property
    def qubit_dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def amplitudes(self) -> np.ndarray:
        """The dense amplitude vector, scattered from the support."""
        out = np.zeros(_amplitude_count(self.n_qubits, self.cavity_dim),
                       dtype=complex)
        out[self.index] = self.values
        return out

    def blocks(self) -> np.ndarray:
        """Dense amplitudes shaped (cavity_dim, 2**n_qubits)."""
        return self.amplitudes.reshape(self.cavity_dim, self.qubit_dim)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def normalized(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroProjectionError("cannot normalize the zero vector")
        return _on_support(self.n_qubits, self.cavity_dim, self.index,
                           self.values / n)

    def with_fixed_phase(self) -> "StateVector":
        """Rotate the global phase so the largest amplitude is real positive.

        Of several largest amplitudes, the one at the lowest index counts.
        """
        a = self.values[int(np.argmax(np.abs(self.values)))]
        if a == 0:
            return self
        return _on_support(self.n_qubits, self.cavity_dim, self.index,
                           self.values * (abs(a) / a))


def _hold(state: StateVector, n_qubits: int, cavity_dim: int,
          index: np.ndarray, values: np.ndarray) -> None:
    for name, value in (("n_qubits", n_qubits), ("cavity_dim", cavity_dim),
                        ("index", index), ("values", values)):
        object.__setattr__(state, name, value)


def _on_support(n_qubits: int, cavity_dim: int, index: np.ndarray,
                values: np.ndarray) -> StateVector:
    """The state with ``values`` at the sorted, unique basis ``index``."""
    _check_register(n_qubits, cavity_dim)
    state = object.__new__(StateVector)
    _hold(state, n_qubits, cavity_dim, index, values)
    return state


def _cavity_block(state: StateVector, n_c: int) -> StateVector:
    """The ``n_c``-photon block of ``state``, as a state with no cavity."""
    base = n_c << state.n_qubits
    lo, hi = np.searchsorted(state.index, (base, base + state.qubit_dim))
    return _on_support(state.n_qubits, 1, state.index[lo:hi] - base,
                       state.values[lo:hi])


def _check_operator(op: PauliString, n_qubits: int) -> None:
    if op.n_sites != n_qubits:
        raise DimensionMismatchError(
            f"operator on {op.n_sites} sites, register has {n_qubits}")


def _lookup(index: np.ndarray, query: np.ndarray) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """Where the entries of ``query`` sit in the sorted ``index``.

    Returns the mask of the entries of ``query`` that ``index`` holds and
    an array of positions in ``index``, of ``query``'s shape, that is
    right where the mask is set; both come from one ``searchsorted``.
    ``query`` need not be sorted.
    """
    pos = np.searchsorted(index, query)
    if not index.size:
        return np.zeros(query.shape, dtype=bool), pos
    # a query above every entry would point past the end
    np.minimum(pos, index.size - 1, out=pos)
    return index[pos] == query, pos


# _UNITS[p][k] = i**p (-1)**k for every popcount k of an int64 index
_UNITS = tuple((1j ** p) * (1.0 - 2.0 * (np.arange(64) & 1))
               for p in range(4))


def _factor(op: PauliString, index: np.ndarray) -> np.ndarray:
    """``i**p (-1)**popcount(t & z)`` for each basis index ``t`` of
    ``index``: what ``P = i**p X(x) Z(z)`` multiplies the amplitude at
    ``t`` by as it moves it to ``t ^ x``.

    Each index reads its popcount's entry of a signed-unit table, which
    holds ``i**p`` times ``+1.0`` and ``-1.0`` alternately: the same
    complex-by-real product per entry as ``i**p`` times an array of
    signs, so the values agree bit for bit, signed zeros included.
    """
    return _UNITS[op.phase_exp].take(np.bitwise_count(index & op.z_mask))


def _pauli_images(terms, n_qubits: int,
                  index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each ``(c, P)`` of ``terms`` sends each basis index, and the factor.

    ``P = i**p X(x) Z(z)`` maps basis index ``t`` to ``t ^ x`` with the
    factor ``c i**p (-1)**popcount(t & z)``.  ``x`` and ``z`` act on the
    qubit bits only, so a cavity level stays put.  Both results are
    ``(len(terms), index.size)`` arrays, row ``k`` for term ``k``; the
    image indices are not sorted.
    """
    for _, op in terms:
        _check_operator(op, n_qubits)
    x = np.array([op.x_mask for _, op in terms], dtype=np.int64)
    z = np.array([op.z_mask for _, op in terms], dtype=np.int64)
    w = np.array([c * 1j ** op.phase_exp for c, op in terms], dtype=complex)
    odd = np.bitwise_count(index & z[:, None]) & 1
    return index ^ x[:, None], w[:, None] * (1.0 - 2.0 * odd)


def basis_state(n_qubits: int, bits: int = 0, cavity_dim: int = 1,
                cavity_level: int = 0) -> StateVector:
    if not 0 <= bits < (1 << n_qubits):
        raise DimensionMismatchError(f"bits {bits} outside register")
    if not 0 <= cavity_level < cavity_dim:
        raise DimensionMismatchError("cavity level outside truncation")
    amps = np.zeros(_amplitude_count(n_qubits, cavity_dim), dtype=complex)
    amps[cavity_level * (1 << n_qubits) + bits] = 1.0
    return StateVector(n_qubits, cavity_dim, amps)


def random_state(n_qubits: int, cavity_dim: int = 1,
                 rng: np.random.Generator | None = None) -> StateVector:
    rng = rng or np.random.default_rng()
    dim = _amplitude_count(n_qubits, cavity_dim)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n_qubits, cavity_dim, amps).normalized()


def apply_pauli(state: StateVector, op: PauliString) -> StateVector:
    """Apply a Pauli string to the qubit register; cavity factor untouched.

    Each entry at ``t`` moves to ``t ^ x_mask`` and is multiplied by the
    unit :func:`_factor`, so the values stay exact; the images are then
    sorted.
    """
    _check_operator(op, state.n_qubits)
    index = state.index ^ op.x_mask
    order = np.argsort(index)
    return _on_support(state.n_qubits, state.cavity_dim, index[order],
                       (_factor(op, state.index) * state.values)[order])


def overlap(u: StateVector, v: StateVector) -> complex:
    """``<u|v>``: ``v``'s indices are looked up in ``u``'s sorted ones, and
    the entries both supports hold are summed in index order."""
    if (u.n_qubits, u.cavity_dim) != (v.n_qubits, v.cavity_dim):
        raise DimensionMismatchError("state dimensions differ")
    hit, pos = _lookup(u.index, v.index)
    return complex(np.vdot(u.values[pos[hit]], v.values[hit]))


def expectation(state: StateVector, op: PauliString) -> complex:
    """<state| op |state>; real up to 1e-12 for Hermitian operators.

    The one-operator case of :func:`expectations`.
    """
    return expectations(state, [op])[0]


def expectations(state: StateVector, ops) -> list[complex]:
    """``<state| op |state>`` for each of ``ops``, in order.

    An operator maps basis index ``t`` to ``s = t ^ x_mask``, so
    ``(op psi)(s) = f(t) psi(t)`` with the factor ``f`` of
    :func:`_factor`, and its expectation is the sum of
    ``conj(psi(s)) f(t) psi(t)`` over the ``s`` whose partner
    ``t = s ^ x_mask`` the support holds.  The partners of every operator
    of a chunk, unsorted, are joined against the sorted support by one
    ``searchsorted``; a chunk has at most ``DENSE_ELEMENTS`` partners, so
    as many operators as that allows.  Each operator's sum is then its
    own ``np.vdot`` over its row of the join in index order, which gives
    every value bit for bit as a chunk of one would.  No sort and no
    intermediate state: the cost is one lookup per support entry and
    operator.  A Hermitian operator whose value comes out complex beyond
    1e-12 raises ``AssertionError``.
    """
    ops = list(ops)
    for op in ops:
        _check_operator(op, state.n_qubits)
    index, values = state.index, state.values
    chunk = max(1, DENSE_ELEMENTS // max(index.size, 1))
    out = []
    for start in range(0, len(ops), chunk):
        part = ops[start:start + chunk]
        x = np.array([op.x_mask for op in part], dtype=np.int64)
        partners = index ^ x[:, None]
        hits, pos = _lookup(index, partners)
        for op, partner, hit, at in zip(part, partners, hits, pos):
            factor = _factor(op, partner[hit])
            val = complex(np.vdot(values[hit], factor * values[at[hit]]))
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
    support, in the zero-photon block; every other block is zero.  Each
    ``W = i**p X(x) Z(z)`` maps basis index ``t`` to ``t ^ x`` with the
    factor :func:`_factor`.  If ``x`` is outside the GF(2) span of the
    x-masks so far, the image is new and the support doubles; otherwise
    ``W`` permutes the support and its image is added in place.  So the
    support has ``2**rank`` entries, ``rank`` that of the plaquette
    x-masks, and that count is checked against the budget before any
    array is built.  A projection that annihilates the state would signal
    an inconsistent sign convention and raises instead of silently
    renormalizing.  The phase is fixed by
    :meth:`StateVector.with_fixed_phase`.  The tests keep the
    full-register projection loop as the reference.
    """
    _check_register(layout.n_sites, cavity_dim)
    steps = [(plq, family, op) for plq in layout.bond_plaquettes
             for family, op in ((UP, plq.up), (DOWN, plq.down))]
    # echelon x-masks; dep bit k is the k-th x-mask that doubled the
    # support, and idx[j] is the XOR of the x-masks whose bits j sets;
    # a step's dep is None when its x-mask doubles the support
    rows: list[tuple[int, int]] = []
    deps: list[int | None] = []
    for _, _, op in steps:
        x, dep = _gf2_reduce(op.x_mask, rows)
        if x:
            rows.append((x, dep ^ (1 << len(rows))))
        deps.append(None if x else dep)
    _require_capacity(1 << len(rows),
                      f"ground-state support of 2**{len(rows)} entries")
    idx = np.zeros(1, dtype=np.int64)
    vals = np.ones(1, dtype=complex)
    for (plq, family, op), dep in zip(steps, deps):
        image = _factor(op, idx) * vals
        if dep is None:
            idx = np.concatenate((idx, idx ^ op.x_mask))
            vals = np.concatenate((vals, image))
        else:
            vals = vals + image[np.arange(vals.size) ^ dep]
            if not np.any(vals):
                raise ZeroProjectionError(
                    f"plaquette {plq.index} ({family}) "
                    "annihilated the state")
    order = np.argsort(idx)
    ground = _on_support(layout.n_sites, cavity_dim, idx[order], vals[order])
    return ground.normalized().with_fixed_phase()


def energy_moments(state: StateVector, ham: HamiltonianTerms) -> tuple[float, float]:
    """(<H>, variance) for a Hermitian term list; the variance is >= 0.

    ``H|state>`` is built on its support: the images of every term (see
    :func:`_pauli_images`), concatenated and summed per distinct index.
    Their count, terms times support entries, is checked against the
    budget first.
    """
    if ham.n_sites != state.n_qubits:
        raise DimensionMismatchError("Hamiltonian register mismatch")
    _require_capacity(len(ham.terms) * state.values.size,
                      f"images of {len(ham.terms)} terms on "
                      f"{state.values.size} entries")
    images, factor = _pauli_images(ham.terms, state.n_qubits, state.index)
    index, where = np.unique(images.ravel(), return_inverse=True)
    image = (factor * state.values).ravel()
    hv = (np.bincount(where, image.real, index.size)
          + 1j * np.bincount(where, image.imag, index.size))
    e = overlap(state, _on_support(state.n_qubits, state.cavity_dim,
                                   index, hv)).real
    # a Hermitian operator's variance is >= 0; <H^2> - <H>^2 can round
    # below zero by O(eps <H^2>), and max(0.0, .) never returns -0.0
    var = max(0.0, float(np.vdot(hv, hv).real) - e * e)
    return e, var
