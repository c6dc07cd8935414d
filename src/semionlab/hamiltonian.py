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

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

from .errors import ConvergenceError, _require_capacity
from .lattice import HoneycombLayout
from .operators import (
    CHAIN_A,
    CHAIN_B,
    DOWN,
    REP_DEVICE,
    REP_HONEYCOMB,
    UP,
    device_qubit,
    link_zz_op,
    n_device_qubits,
    plaquette_op,
)
from .pauli import PauliString, apply_to_amplitudes, commutes

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
    couplings: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        for coeff, op in self.terms:
            if op.n_sites != self.n_sites:
                raise ValueError("term size mismatch")
            if not op.is_hermitian():
                raise ValueError(f"non-Hermitian term {op}")

    def all_terms_commute(self) -> bool:
        ops = [op for _, op in self.terms]
        return all(commutes(ops[i], ops[j])
                   for i in range(len(ops)) for j in range(i + 1, len(ops)))

    def apply(self, amps: np.ndarray) -> np.ndarray:
        out = np.zeros_like(amps, dtype=complex)
        for coeff, op in self.terms:
            out += coeff * apply_to_amplitudes(op, amps)
        return out

    def to_text(self) -> str:
        lines = [f"{self.rep} {self.n_sites}"]
        for coeff, op in self.terms:
            lines.append(f"{coeff!r} {op}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HamiltonianTerms":
        lines = [ln for ln in text.strip().splitlines() if ln.strip()]
        rep, n = lines[0].split()
        terms = []
        for ln in lines[1:]:
            coeff, prefix, letters = ln.split()
            terms.append((float(coeff),
                          PauliString.parse(f"{prefix} {letters}", rep)))
        return cls(rep, int(n), tuple(terms))


def build_spin_hamiltonian(layout: HoneycombLayout, j_up: float,
                           j_down: float, u: float) -> HamiltonianTerms:
    """Spin image of the fermion model on a honeycomb layout.

    One plaquette term per diagonal bond and family plus one link ZZ per
    square site.  Boundary bonds contribute their truncated plaquette
    operators; dropping them would break the exact spectrum equivalence
    with the fermion oracle, which is the property this builder is held
    to.
    """
    terms: list[tuple[float, PauliString]] = []
    for plq in layout.bond_plaquettes:
        terms.append((-j_up, plaquette_op(layout, plq, UP)))
    for plq in layout.bond_plaquettes:
        terms.append((-j_down, plaquette_op(layout, plq, DOWN)))
    for site in range(layout.square.n_sites):
        terms.append((-u, link_zz_op(layout, site)))
    return HamiltonianTerms(REP_HONEYCOMB, layout.n_sites, tuple(terms),
                            {"j_up": j_up, "j_down": j_down, "u": u})


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
    return HamiltonianTerms(REP_DEVICE, n, tuple(terms),
                            {"j_up": j_up, "j_down": j_down, "u": u})


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


def _assemble(ham: HamiltonianTerms, states: np.ndarray) -> np.ndarray:
    """Matrix of ``ham`` on the span of the ascending basis ``states``.

    Entry ``[a, b]`` is ``<states[a]| H |states[b]>``.  Terms with an
    even phase exponent have real entries, so a term list made of such
    operators is assembled directly in float64.  Raises if a term maps
    a basis state outside the span.
    """
    size = states.size
    src = np.arange(size)
    all_real = all(op.phase_exp % 2 == 0 for _, op in ham.terms)
    mat = np.zeros((size, size), dtype=np.float64 if all_real else complex)
    for coeff, op in ham.terms:
        phase = 1j ** op.phase_exp
        if all_real:
            phase = phase.real
        signs = np.bitwise_count(states & np.uint64(op.z_mask)).astype(np.int64)
        vals = coeff * phase * np.where(signs % 2 == 0, 1.0, -1.0)
        targets = states ^ np.uint64(op.x_mask)
        dst = np.minimum(np.searchsorted(states, targets), size - 1)
        if not np.array_equal(states[dst], targets):
            raise AssertionError(f"term {op} leaves the assembled sector")
        mat[dst, src] += vals
    return mat


def _z_sectors(ham: HamiltonianTerms) -> list[np.ndarray]:
    """Basis indices of each joint sign sector of the conserved Z terms.

    A Z-only term that commutes with every term is diagonal and
    conserved, so its parity labels a block of the Hamiltonian.  The
    masks are reduced to a GF(2)-independent set first, so there are at
    most ``n_sites`` label bits.  A term list with no such term is one
    sector holding the whole basis.
    """
    ops = [op for _, op in ham.terms]
    masks: list[int] = []
    for op in ops:
        if op.x_mask == 0 and op.z_mask and all(commutes(op, q) for q in ops):
            m = op.z_mask
            for b in masks:
                m = min(m, m ^ b)
            if m:
                masks.append(m)
    idx = np.arange(1 << ham.n_sites, dtype=np.uint64)
    labels = np.zeros(idx.size, dtype=np.int64)
    for bit, m in enumerate(masks):
        parity = np.bitwise_count(idx & np.uint64(m)).astype(np.int64) & 1
        labels |= parity << bit
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return np.split(idx[order], cuts)


def dense_matrix(ham: HamiltonianTerms) -> np.ndarray:
    """Dense matrix of a term list; real symmetric when possible."""
    _require_capacity(4 ** ham.n_sites,
                      f"dense Hamiltonian on {ham.n_sites} sites")
    return _assemble(ham, np.arange(1 << ham.n_sites, dtype=np.uint64))


def spectrum(ham: HamiltonianTerms, k: int | None = None,
             tol: float = 1e-8) -> np.ndarray:
    """Eigenvalues, ascending.

    ``k = None`` returns the full spectrum, every eigenvalue with its
    exact multiplicity, by sector-resolved exact diagonalization: the
    basis is split by the joint signs of the Z-only terms that commute
    with every term, each sector block is assembled from the term
    entries and solved densely, and the block spectra are merged.  A
    term list without such terms is a single block, the plain dense
    solve.  All blocks are held at once, so their entries must fit the
    budget ``errors.DENSE_ELEMENTS``: 2x4 (256 blocks of 256) fits
    exactly, 3x3 (512 blocks of 512) raises ``CapacityError``.

    An integer ``k`` uses a matrix-free Lanczos solve for the ``k``
    smallest eigenvalues, converged to ``tol``.  Every value the
    iterative path returns is a true eigenvalue and the smallest one is
    reliable, but Krylov iteration cannot certify multiplicities of the
    highly degenerate levels these commuting Hamiltonians carry; use the
    full path when the multiset matters.
    """
    n = ham.n_sites
    dim = _require_capacity(1 << n, f"basis of {n} sites")
    if k is None:
        sectors = _z_sectors(ham)
        _require_capacity(sum(states.size ** 2 for states in sectors),
                          f"sector blocks on {n} sites")
        # every block is assembled, and so checked closed under every
        # term, before any is solved
        blocks = [_assemble(ham, states) for states in sectors]
        return np.sort(np.concatenate(
            [scipy.linalg.eigvalsh(block) for block in blocks]))
    if k >= dim - 1:
        raise ValueError(f"iterative path needs k < {dim - 1}")

    def matvec(v):
        return ham.apply(v.astype(complex))

    linop = scipy.sparse.linalg.LinearOperator((dim, dim), matvec=matvec,
                                               dtype=complex)
    # a symmetric start vector would stay inside one symmetry sector and
    # miss degenerate partners; a fixed-seed random start keeps the
    # result deterministic without that blind spot
    v0 = np.random.default_rng(1234).standard_normal(dim)
    try:
        vals = scipy.sparse.linalg.eigsh(linop, k=k, which="SA", tol=tol,
                                         v0=v0, return_eigenvectors=False)
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        raise ConvergenceError(f"Lanczos did not converge: {exc}") from exc
    return np.sort(vals.real)
