"""Model Hamiltonians: diagonal fermion oracle and spin Pauli sums.

The fermion model lives on the square lattice: Ising-like products of
``(2n - 1)`` occupation signs along each diagonal bond for both species,
plus an on-site product coupling the two species.  Its energies are a
pure function of the occupation bitstring, so the whole spectrum can be
enumerated exactly; that enumeration is the oracle against which the
spin image is validated.

The spin image carries one plaquette stabilizer per bond and family
(coefficients ``-j_up`` and ``-j_down``) plus one ``ZZ`` term per
vertical link (coefficient ``-u``).  All terms commute.  Note the sign
convention: the fermion on-site term enters with ``+u`` while the spin
image uses ``-u``; the two are unitarily equivalent (a sublattice spin
flip maps one onto the other) and the spectrum-multiset test below is
the arbiter that the compiled signs are right.

Occupation convention: occupation bit 1 means occupied, i.e. sign
``(2n - 1) = +1``, which corresponds to qubit basis bit 0 under the
package-wide bit-to-eigenvalue map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _agree, _require_capacity
from .lattice import HoneycombLayout
from .operators import (
    CHAIN_A,
    CHAIN_B,
    REP_DEVICE,
    REP_HONEYCOMB,
    device_qubit,
    n_device_qubits,
)
from .pauli import (
    PauliString,
    _check_compatible,
    _echelon,
    _z_signs,
    apply_pauli_sum,
    multiply_all,
)

__all__ = [
    "HamiltonianTerms",
    "DiagonalOracle",
    "build_spin_hamiltonian",
    "build_device_hamiltonian",
    "dense_matrix",
    "spectrum",
    "ground_sector",
    "predicted_ground_degeneracy",
]


@dataclass(frozen=True)
class HamiltonianTerms:
    """Weighted list of Pauli strings sharing one register.

    The terms carry at most one representation tag between them: a
    second tag raises ``RepresentationError``, naming the first tag and
    the first other tag in term order.
    """

    n_sites: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        first = None  # the first tagged term
        for coeff, op in self.terms:
            if op.n_sites != self.n_sites:
                raise ValueError("term size mismatch")
            if not op.is_hermitian():
                raise ValueError(f"non-Hermitian term {op}")
            if op.rep is None:
                continue
            if first is None:
                first = op
            elif op.rep != first.rep:
                _check_compatible(first, op)  # raises

    @property
    def rep(self) -> str | None:
        """The tag of the tagged terms, ``None`` when no term is tagged."""
        return next((op.rep for _, op in self.terms if op.rep is not None),
                    None)

    @property
    def scale(self) -> float:
        """``S``, the sum of the absolute coefficients, which bounds
        ``|E|`` of every level; the scale of :func:`_agree`.  A
        sum that overflows raises ``OverflowError``."""
        return math.fsum(abs(c) for c, _ in self.terms)

    def all_terms_commute(self) -> bool:
        """True iff every pair of terms commutes.

        Two terms commute iff ``x_mask << n | z_mask`` of one and
        ``z_mask << n | x_mask`` of the other share an even number of
        bits (the symplectic product): with X on site ``j`` a term
        anticommutes with each term that has Z there, and with Z on site
        ``j`` with each that has X there.  The terms are read once, in
        order, into two column tables: entry ``j`` of ``x_cols`` (of
        ``z_cols``) is the bitmask of the terms read so far with X (Z)
        on site ``j``.  One loop per mask, at each set bit, XORs the
        other table's entry into the term's row and enters the term
        itself into its own table, so bit ``k`` of the row is the
        symplectic product with term ``k``; the row is read for the
        earlier terms only (``row & (term - 1)``), since a Y site has
        entered the term before its Z half is read.  A term costs two
        steps per set bit, so the whole check grows with the total term
        weight, not with the number of pairs.
        """
        x_cols = [0] * self.n_sites
        z_cols = [0] * self.n_sites
        term = 1
        for _, op in self.terms:
            row = 0
            mask = op.x_mask
            while mask:
                j = mask.bit_length() - 1
                row ^= z_cols[j]
                x_cols[j] |= term
                mask ^= 1 << j
            mask = op.z_mask
            while mask:
                j = mask.bit_length() - 1
                row ^= x_cols[j]
                z_cols[j] |= term
                mask ^= 1 << j
            if row & (term - 1):
                return False
            term <<= 1
        return True

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """``H amps`` with the qubit index last, through
        :func:`~semionlab.pauli.apply_pauli_sum` (one flip per term;
        zeros for an empty term list); a test reference."""
        return apply_pauli_sum(self.terms, self.n_sites, amps)


def build_spin_hamiltonian(layout: HoneycombLayout, j_up: float,
                           j_down: float, u: float) -> HamiltonianTerms:
    """Spin image of the fermion model on a honeycomb layout.

    One plaquette term per diagonal bond and family, the layout's own
    stabilizers, plus one link ZZ per square site.  Boundary bonds
    contribute their truncated plaquette operators; dropping them would
    break the exact spectrum equivalence with the fermion oracle, which
    is the property this builder is held to.
    """
    plqs = layout.bond_plaquettes
    n = layout.n_sites
    # the link ZZ of square site s: Z on its black and white ranks
    terms = ([(-j_up, plq.up) for plq in plqs]
             + [(-j_down, plq.down) for plq in plqs]
             + [(-u, PauliString(n, 0, 1 << b | 1 << w, 0, REP_HONEYCOMB))
                for b, w in zip(layout._black, layout._white)])
    return HamiltonianTerms(n, tuple(terms))


def build_device_hamiltonian(layout: HoneycombLayout, j_up: float,
                             j_down: float, u: float) -> HamiltonianTerms:
    """The fermion model written as diagonal device ZZ couplings.

    Chain-a qubits carry the up occupation signs and chain-b qubits the
    down ones, so this matrix is diagonal and its entries reproduce the
    fermion oracle exactly (an independent construction used in tests).
    """
    n = n_device_qubits(layout)
    terms: list[tuple[float, PauliString]] = []
    for chain, coeff in ((CHAIN_A, -j_up), (CHAIN_B, -j_down)):
        for i, j in layout.square.bonds:
            op = PauliString.from_letters(
                n, {device_qubit(i, chain): "Z", device_qubit(j, chain): "Z"},
                REP_DEVICE)
            terms.append((coeff, op))
    for site in range(layout.square.n_sites):
        op = PauliString.from_letters(
            n, {device_qubit(site, CHAIN_A): "Z",
                device_qubit(site, CHAIN_B): "Z"}, REP_DEVICE)
        terms.append((u, op))
    return HamiltonianTerms(n, tuple(terms))


class DiagonalOracle:
    """Exact occupation-basis energies of the fermion model."""

    def __init__(self, layout: HoneycombLayout, j_up: float, j_down: float,
                 u: float):
        self.layout = layout
        self.j_up = j_up
        self.j_down = j_down
        self.u = u
        self.n = layout.square.n_sites

    def _signs(self, bits: int) -> np.ndarray:
        return np.array([1.0 if (bits >> i) & 1 else -1.0
                         for i in range(self.n)])

    def energy(self, up_bits: int, down_bits: int) -> float:
        """Energy of one occupation configuration.

        Bit ``i`` of each argument is the occupation of square site
        ``i`` for that species (1 = occupied).
        """
        if up_bits >> self.n or down_bits >> self.n:
            raise ValueError(f"occupation bits exceed {self.n} sites")
        s_up = self._signs(up_bits)
        s_dn = self._signs(down_bits)
        e = 0.0
        for i, j in self.layout.square.bonds:
            e -= self.j_up * s_up[i] * s_up[j]
            e -= self.j_down * s_dn[i] * s_dn[j]
        e += self.u * float(np.dot(s_up, s_dn))
        return e

    def enumerate_energies(self) -> np.ndarray:
        """All ``2**(2N)`` energies, vectorized, unsorted."""
        _require_capacity(4 ** self.n, f"oracle over {self.n} sites")
        dim = 1 << self.n
        configs = np.arange(dim, dtype=np.uint64)
        signs = np.where(
            (configs[:, None] >> np.arange(self.n, dtype=np.uint64)[None, :])
            & np.uint64(1), 1.0, -1.0)
        bond_e = np.zeros(dim)
        for i, j in self.layout.square.bonds:
            bond_e += signs[:, i] * signs[:, j]
        # cross term: number of agreeing sites minus disagreeing ones,
        # scaled and added in place so the peak is twice the result
        agree = signs @ signs.T
        energies = (-self.j_up * bond_e[:, None]
                    - self.j_down * bond_e[None, :])
        agree *= self.u
        energies += agree
        return energies.ravel()

    @property
    def scale(self) -> float:
        """``S`` of the spin image, one absolute coupling per term: each
        bond's ``|j_up|`` and ``|j_down|`` and each site's ``|u|``
        (:attr:`HamiltonianTerms.scale`)."""
        bonds = len(self.layout.square.bonds)
        return math.fsum([abs(self.j_up)] * bonds + [abs(self.j_down)] * bonds
                         + [abs(self.u)] * self.n)

    def sorted_spectrum(self) -> np.ndarray:
        return np.sort(self.enumerate_energies())

    def ground_degeneracy(self) -> int:
        """The number of energies that agree with the least one
        (:func:`_agree`)."""
        energies = self.enumerate_energies()
        return int(np.count_nonzero(
            _agree(energies, energies.min(), self.scale)))


def predicted_ground_degeneracy(layout: HoneycombLayout, j_up: float,
                                j_down: float, u: float) -> int:
    """Ground-state count from the ferromagnetic-chain picture.

    Each chain contributes two minimal sign patterns per species (both
    uniform for positive coupling, both alternating for negative).  A
    nonzero on-site coupling then locks the down pattern to the up one
    pointwise, which is compatible only when the two chain couplings
    share a sign; in that regime the count is ``2 ** chains``.  With
    ``u = 0`` the species decouple and the count is ``4 ** chains``.
    Mixed-sign chain couplings frustrate the on-site lock and fall
    outside this picture, so they are rejected.
    """
    if j_up == 0 or j_down == 0:
        raise ValueError("prediction requires nonzero chain couplings")
    if u != 0 and j_up * j_down < 0:
        raise ValueError("mixed-sign chain couplings frustrate the on-site "
                         "coupling; no chain-counting prediction applies")
    chains = len(layout.chains())
    return (4 if u == 0 else 2) ** chains


def dense_matrix(ham: HamiltonianTerms) -> np.ndarray:
    """Dense matrix of a term list; real symmetric when possible.

    Entry ``[i ^ x_mask, i]`` of each term is its phase times
    ``(-1)**popcount(i & z_mask)``.  Terms with an even phase exponent
    have real entries, so a list made of such terms is assembled in
    float64.  This is the reference the tests diagonalize.
    """
    n = ham.n_sites
    _require_capacity(4 ** n, f"dense Hamiltonian on {n} sites")
    idx = np.arange(1 << n)
    all_real = all(op.phase_exp % 2 == 0 for _, op in ham.terms)
    mat = np.zeros((idx.size, idx.size),
                   dtype=np.float64 if all_real else complex)
    for coeff, op in ham.terms:
        phase = 1j ** op.phase_exp
        if all_real:
            phase = phase.real
        mat[idx ^ op.x_mask, idx] += coeff * phase * _z_signs(op.z_mask, n)
    return mat


_SIGNS = np.array([1.0, -1.0])


def _levels(ham: HamiltonianTerms) -> tuple[list[tuple[int, int]],
                                            np.ndarray]:
    """The tableau of a commuting term list: the echelon rows of its
    symplectic vectors and the level of each generator sign pattern.

    The terms' vectors ``x_mask << n | z_mask`` are reduced over GF(2)
    in term order (:func:`~semionlab.pauli._echelon`); the ``r``
    independent terms are the generators, generator ``k`` the ``k``-th
    to join the echelon.  Every other term times the generators it
    depends on is ``+-I`` (the sign is read off the exact product), so on
    the joint eigenspace where generator ``k`` takes the sign
    ``(-1)**b_k`` each term is a known sign and the energy is a signed
    sum of the coefficients.  Entry ``b`` of the ``2**r`` levels is that
    sum for the pattern whose bit ``k`` is ``b_k``; each level has
    multiplicity ``2**(n - r)``.  The ``2**r`` levels, the array built,
    must fit the budget ``errors.DENSE_ELEMENTS`` (8x2, ``r = 24``, fits;
    4x4, ``r = 28``, does not).  A list whose terms do not all commute
    raises ``ValueError``; diagonalize :func:`dense_matrix` for those.
    """
    n = ham.n_sites
    if not ham.all_terms_commute():
        raise ValueError("spectrum needs commuting terms; "
                         "diagonalize dense_matrix(ham) instead")
    rows, deps = _echelon(op.x_mask << n | op.z_mask for _, op in ham.terms)
    _require_capacity(1 << len(rows), f"tableau of 2**{len(rows)} levels")
    gens: list[PauliString] = []
    # commuting terms span at most n dimensions, so a pattern fits 32 bits
    patterns = np.arange(1 << len(rows), dtype=np.uint32)
    levels = np.zeros(patterns.size)
    for (coeff, op), dep in zip(ham.terms, deps):
        if dep is None:
            dep = 1 << len(gens)
            gens.append(op)
        elif multiply_all([op, *(g for k, g in enumerate(gens)
                                 if dep >> k & 1)]).phase_exp == 2:
            coeff = -coeff  # the product is -I
        # coeff times +-1.0 by the parity of the pattern on dep
        levels += (coeff * _SIGNS).take(
            np.bitwise_count(patterns & np.uint32(dep)) & 1)
    return rows, levels


def spectrum(ham: HamiltonianTerms) -> np.ndarray:
    """Eigenvalues of a commuting term list, ascending, from its tableau
    (:func:`_levels`): each of the ``2**r`` levels repeated ``2**(n - r)``
    times.  The ``2**n`` eigenvalues returned must fit the budget
    ``errors.DENSE_ELEMENTS`` (3x4, 24 sites, fits), which is checked
    first."""
    _require_capacity(1 << ham.n_sites, f"basis of {ham.n_sites} sites")
    rows, levels = _levels(ham)
    return np.repeat(np.sort(levels), 1 << (ham.n_sites - len(rows)))


def ground_sector(ham: HamiltonianTerms) -> tuple[PauliString, float, int]:
    """``(move, energy, degeneracy)`` of the lowest level of the tableau
    (:func:`_levels`).

    ``energy`` is the first least level, pattern ``b``, and
    ``degeneracy`` the number of eigenvalues that agree with it
    (:func:`_agree` at ``ham.scale``).  ``move``
    is a Hermitian Pauli string that anticommutes with generator ``k``
    exactly when bit ``k`` of ``b`` is set, so it carries the sector
    where every generator is +1 to the ground sector.  With ``w = z << n
    | x`` its symplectic product with a vector ``v`` is the parity of
    ``w & v``; back substitution on the rows, last row first, flips a
    row's leading bit of ``w`` until that parity matches the pattern's
    on the row's dep (later rows never hold an earlier row's leading
    bit).  ``move`` carries the terms' tag, ``ham.rep``.  Only the
    ``2**r`` levels are built, so 7x2 (``r = 21``) and 8x2 (``r = 24``)
    run while :func:`spectrum` refuses their ``2**n`` eigenvalues; 4x4
    (``r = 28``) raises ``CapacityError`` naming its tableau.  Terms that
    do not all commute raise ``ValueError``.
    """
    n = ham.n_sites
    rows, levels = _levels(ham)
    pattern = int(np.argmin(levels))
    w = 0
    for vec, dep in reversed(rows):
        if ((w & vec).bit_count() ^ (pattern & dep).bit_count()) & 1:
            w ^= 1 << vec.bit_length() - 1
    x, z = w & (1 << n) - 1, w >> n
    energy = float(levels[pattern])
    degeneracy = int(np.count_nonzero(
        _agree(levels, energy, ham.scale)))
    return (PauliString(n, x, z, (x & z).bit_count(), ham.rep), energy,
            degeneracy << n - len(rows))
