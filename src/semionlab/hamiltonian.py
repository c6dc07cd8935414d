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

from dataclasses import dataclass

import numpy as np

from .errors import _require_capacity
from .lattice import HoneycombLayout
from .operators import (
    CHAIN_A,
    CHAIN_B,
    REP_DEVICE,
    REP_HONEYCOMB,
    device_qubit,
    link_zz_op,
    n_device_qubits,
)
from .pauli import (
    PauliString,
    _anticommuting,
    _check_compatible,
    _gf2_reduce,
    _set_bits,
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
    "predicted_ground_degeneracy",
]


@dataclass(frozen=True)
class HamiltonianTerms:
    """Weighted list of Pauli strings sharing one register."""

    rep: str
    n_sites: int
    terms: tuple[tuple[float, PauliString], ...]

    def __post_init__(self):
        for coeff, op in self.terms:
            if op.n_sites != self.n_sites:
                raise ValueError("term size mismatch")
            if not op.is_hermitian():
                raise ValueError(f"non-Hermitian term {op}")

    def all_terms_commute(self) -> bool:
        """True iff every pair of terms commutes.

        Mixed representation tags raise ``RepresentationError`` first,
        naming the first tag and the first other tag in term order.  Two
        terms commute iff ``x_mask << n | z_mask`` of one and
        ``z_mask << n | x_mask`` of the other share an even number of
        bits (the symplectic product).  The terms are read once, in
        order, against a column table of the earlier ones (see
        :func:`~semionlab.pauli._anticommuting`): a term costs one XOR
        per set bit of its vector and one OR per set bit to enter the
        table, so the whole check grows with the total term weight, not
        with the number of pairs.
        """
        tagged = [op for _, op in self.terms if op.rep is not None]
        for op in tagged:
            if op.rep != tagged[0].rep:
                _check_compatible(tagged[0], op)  # raises
        n = self.n_sites
        columns = [0] * (2 * n)
        for k, (_, op) in enumerate(self.terms):
            bits = _set_bits(op.x_mask << n | op.z_mask)
            if _anticommuting(columns, bits):
                return False
            # the swapped vector has the same bits with the halves exchanged
            term = 1 << k
            for b in bits:
                columns[b - n if b >= n else b + n] |= term
        return True

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """``H amps`` with the qubit index last, through
        :func:`~semionlab.pauli.apply_pauli_sum` (one flip per term;
        zeros for an empty term list)."""
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
    terms = ([(-j_up, plq.up) for plq in plqs]
             + [(-j_down, plq.down) for plq in plqs]
             + [(-u, link_zz_op(layout, site))
                for site in range(layout.square.n_sites)])
    return HamiltonianTerms(REP_HONEYCOMB, layout.n_sites, tuple(terms))


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
    return HamiltonianTerms(REP_DEVICE, n, tuple(terms))


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
        # cross term: number of agreeing sites minus disagreeing ones
        agree = self.n - 2 * np.bitwise_count(
            configs[:, None] ^ configs[None, :]).astype(np.int64)
        energies = (-self.j_up * bond_e[:, None]
                    - self.j_down * bond_e[None, :]
                    + self.u * agree)
        return energies.ravel()

    def sorted_spectrum(self) -> np.ndarray:
        return np.sort(self.enumerate_energies())

    def ground_degeneracy(self, atol: float = 1e-9) -> int:
        energies = self.enumerate_energies()
        return int(np.count_nonzero(energies <= energies.min() + atol))


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


def spectrum(ham: HamiltonianTerms) -> np.ndarray:
    """Eigenvalues of a commuting term list, ascending, from its tableau.

    The terms' symplectic vectors ``x_mask << n | z_mask`` are reduced
    over GF(2) in term order; the ``r`` independent terms are the
    generators.  Every other term times the generators it depends on is
    ``+-I`` (the sign is read off the exact product), so on the joint
    eigenspace where generator ``g`` takes the sign ``(-1)**b_g`` each
    term is a known sign and the energy is a signed sum of the
    coefficients.  Each of the ``2**r`` sign patterns is one level with
    multiplicity ``2**(n - r)``, and every eigenvalue is returned with
    that multiplicity.  The ``2**n`` levels must fit the budget
    ``errors.DENSE_ELEMENTS`` (3x4, 24 sites, fits).  A list whose terms
    do not all commute raises ``ValueError``; diagonalize
    :func:`dense_matrix` for those.
    """
    n = ham.n_sites
    _require_capacity(1 << n, f"basis of {n} sites")
    if not ham.all_terms_commute():
        raise ValueError("spectrum needs commuting terms; "
                         "diagonalize dense_matrix(ham) instead")
    # echelon rows (vector, generators it is the product of)
    rows: list[tuple[int, int]] = []
    gens: list[PauliString] = []
    deps: list[tuple[float, int]] = []
    for coeff, op in ham.terms:
        vec, dep = _gf2_reduce(op.x_mask << n | op.z_mask, rows)
        if vec:
            # the reduced row is the new generator times those in dep
            rows.append((vec, dep ^ (1 << len(gens))))
            dep = 1 << len(gens)
            gens.append(op)
            sign = 1
        else:
            prod = multiply_all(
                [op, *(g for k, g in enumerate(gens) if dep >> k & 1)])
            sign = -1 if prod.phase_exp == 2 else 1  # prod is +-I
        deps.append((coeff * sign, dep))
    r = len(gens)
    levels = np.zeros(1 << r)
    for weight, dep in deps:
        levels += weight * _z_signs(dep, r)
    return np.repeat(np.sort(levels), 1 << (n - r))
