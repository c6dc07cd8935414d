"""Exact multi-site Pauli operator algebra on bitmasks.

Conventions shared by every module in this package:

* An operator on ``n_sites`` qubits is stored as
  ``i**phase_exp * X(x_mask) * Z(z_mask)``, where ``X(m)`` applies an X
  factor on every set bit of ``m`` (likewise ``Z``) and all X factors
  stand to the left of all Z factors.
* A site with both bits set carries a Y factor up to the tracked phase:
  ``Y = i * X * Z``, the ``i`` absorbed into ``phase_exp``.  With that
  choice the whole multiplication rule is a mask XOR plus an exactly
  tracked quartic phase.
* Computational basis bit ``b`` maps to the ``Z`` eigenvalue ``+1`` for
  ``b = 0`` and ``-1`` for ``b = 1``.  The all-plus product state is
  therefore the all-bits-zero state.
* Masks are plain Python integers, so any site count works (64 sites fit
  one machine word on CPython; beyond that the same code path keeps
  functioning with big integers).  A dense matrix has ``4**n_sites``
  entries, so the budget ``errors.DENSE_ELEMENTS`` refuses it above 12
  sites; the matrix-free :func:`apply_pauli_sum` has no such limit.

PauliString values are immutable after construction and every operation
here is a pure function, so concurrent read-only use needs no locking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    RepresentationError,
    _require_capacity,
)

_PHASE_LABEL = {0: "+", 1: "+i", 2: "-", 3: "-i"}
_LABEL_PHASE = {v: k for k, v in _PHASE_LABEL.items()}

# Single-site matrices for X^x * Z^z (no phase); Y is i * XZ.
_SITE_MATS = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),
}

_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


@dataclass(frozen=True, slots=True, init=False)
class PauliString:
    """A phase-exact Pauli operator on ``n_sites`` qubits.

    Attributes
    ----------
    n_sites : int
        Number of qubits the operator is defined on.
    x_mask, z_mask : int
        Bit ``j`` set means an X (resp. Z) factor acts on site ``j``.
    phase_exp : int
        Global phase ``i**phase_exp``, kept reduced mod 4.
    rep : str or None
        Optional representation tag (for example ``"honeycomb_spin"`` or
        ``"device"``).  Mixing two different tags in algebra raises
        :class:`RepresentationError`; an untagged operand mixes freely.

    The constructor checks the register and the masks, reduces the phase
    mod 4 and stores each field through its slot descriptor, not through
    ``object.__setattr__``: a layout builds hundreds of these.
    """

    n_sites: int
    x_mask: int = 0
    z_mask: int = 0
    phase_exp: int = 0
    rep: str | None = field(default=None, compare=False)

    def __init__(self, n_sites: int, x_mask: int = 0, z_mask: int = 0,
                 phase_exp: int = 0, rep: str | None = None):
        if n_sites <= 0:
            raise DimensionMismatchError("n_sites must be positive")
        limit = 1 << n_sites
        if not (0 <= x_mask < limit and 0 <= z_mask < limit):
            raise DimensionMismatchError(
                f"mask out of range for {n_sites} sites"
            )
        _set_n_sites(self, n_sites)
        _set_x_mask(self, x_mask)
        _set_z_mask(self, z_mask)
        _set_phase_exp(self, phase_exp % 4)
        _set_rep(self, rep)

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n_sites: int, rep: str | None = None) -> "PauliString":
        return cls(n_sites, 0, 0, 0, rep)

    @classmethod
    def single(cls, n_sites: int, site: int, letter: str,
               rep: str | None = None) -> "PauliString":
        """One Pauli letter at ``site``, identity elsewhere."""
        if not 0 <= site < n_sites:
            raise DimensionMismatchError(f"site {site} outside register")
        x, z = _LETTER_BITS[letter.upper()]
        phase = 1 if letter.upper() == "Y" else 0
        return cls(n_sites, x << site, z << site, phase, rep)

    @classmethod
    def from_letters(cls, n_sites: int, letters: dict[int, str],
                     rep: str | None = None) -> "PauliString":
        """Hermitian product of single-site letters on distinct sites."""
        x_mask = z_mask = 0
        phase = 0
        for site, letter in letters.items():
            if not 0 <= site < n_sites:
                raise DimensionMismatchError(f"site {site} outside register")
            x, z = _LETTER_BITS[letter.upper()]
            if (x_mask | z_mask) >> site & 1 and (x or z):
                raise ValueError(f"site {site} assigned twice")
            x_mask |= x << site
            z_mask |= z << site
            if letter.upper() == "Y":
                phase += 1
        return cls(n_sites, x_mask, z_mask, phase, rep)

    @classmethod
    def parse(cls, text: str, rep: str | None = None) -> "PauliString":
        """Inverse of ``str()``:  e.g. ``"+i XZIIY"`` (site 0 first)."""
        parts = text.strip().split()
        if len(parts) == 1:
            prefix, letters = "+", parts[0]
        elif len(parts) == 2:
            prefix, letters = parts
        else:
            raise ValueError(f"cannot parse Pauli text {text!r}")
        if prefix not in _LABEL_PHASE:
            raise ValueError(f"unknown phase prefix {prefix!r}")
        op = cls.from_letters(len(letters),
                              {j: c for j, c in enumerate(letters)}, rep)
        return op.times_i(_LABEL_PHASE[prefix] - (op.phase_exp - _y_count(op)))

    # -- inspection --------------------------------------------------

    def letter(self, site: int) -> str:
        return _BITS_LETTER[(self.x_mask >> site & 1, self.z_mask >> site & 1)]

    def __str__(self) -> str:
        letters = "".join(self.letter(j) for j in range(self.n_sites))
        prefix = _PHASE_LABEL[(self.phase_exp - _y_count(self)) % 4]
        return f"{prefix} {letters}"

    def weight(self) -> int:
        return int.bit_count(self.x_mask | self.z_mask)

    def sites(self) -> tuple[int, ...]:
        mask = self.x_mask | self.z_mask
        return tuple(j for j in range(self.n_sites) if (mask >> j) & 1)

    def is_identity_mask(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    # -- algebra -----------------------------------------------------

    def times_i(self, k: int = 1) -> "PauliString":
        """Multiply by ``i**k`` (exact, tracked in the phase exponent)."""
        return PauliString(self.n_sites, self.x_mask, self.z_mask,
                           self.phase_exp + k, self.rep)

    def is_hermitian(self) -> bool:
        """True iff the tracked phase makes the operator self-adjoint."""
        return self.phase_exp % 2 == int.bit_count(self.x_mask & self.z_mask) % 2

    def restricted_to_support(self) -> "PauliString":
        """Same operator with identity sites dropped (for small dense checks)."""
        sites = self.sites()
        if not sites:
            return PauliString(1, 0, 0, self.phase_exp, self.rep)
        x = z = 0
        for new, old in enumerate(sites):
            x |= ((self.x_mask >> old) & 1) << new
            z |= ((self.z_mask >> old) & 1) << new
        return PauliString(len(sites), x, z, self.phase_exp, self.rep)

    def to_matrix(self) -> np.ndarray:
        """Exact dense matrix including the global phase.

        Site 0 is the least significant bit of the basis index, so the
        tensor product is assembled with site ``n_sites - 1`` outermost.
        """
        _require_capacity(4 ** self.n_sites,
                          f"dense matrix on {self.n_sites} sites")
        mat = np.array([[1.0 + 0j]])
        for j in range(self.n_sites - 1, -1, -1):
            mat = np.kron(mat, _SITE_MATS[(self.x_mask >> j & 1,
                                           self.z_mask >> j & 1)])
        return (1j ** self.phase_exp) * mat


# the slot setters, which a frozen instance's __setattr__ never reaches
_set_n_sites = PauliString.n_sites.__set__
_set_x_mask = PauliString.x_mask.__set__
_set_z_mask = PauliString.z_mask.__set__
_set_phase_exp = PauliString.phase_exp.__set__
_set_rep = PauliString.rep.__set__


def _site_mask(sites, n_sites: int) -> int:
    """Bitmask of ``sites``, each checked to lie in the register."""
    mask = 0
    for s in sites:
        if not 0 <= s < n_sites:
            raise DimensionMismatchError(f"site {s} outside register")
        mask |= 1 << s
    return mask


def _y_count(p: PauliString) -> int:
    return int.bit_count(p.x_mask & p.z_mask)


def _check_compatible(p: PauliString, q: PauliString) -> str | None:
    if p.n_sites != q.n_sites:
        raise DimensionMismatchError(
            f"operators act on {p.n_sites} vs {q.n_sites} sites")
    if p.rep is not None and q.rep is not None and p.rep != q.rep:
        raise RepresentationError(
            f"cannot combine representations {p.rep!r} and {q.rep!r}")
    return p.rep or q.rep


def multiply(p: PauliString, q: PauliString) -> PauliString:
    """Exact operator product ``p * q``.

    Masks XOR; the phase picks up ``i**2`` for every site where a Z of
    ``p`` has to move past an X of ``q``.
    """
    rep = _check_compatible(p, q)
    phase = p.phase_exp + q.phase_exp + 2 * int.bit_count(p.z_mask & q.x_mask)
    return PauliString(p.n_sites, p.x_mask ^ q.x_mask, p.z_mask ^ q.z_mask,
                       phase, rep)


def multiply_all(ops) -> PauliString:
    """Left-to-right product of an iterable of PauliStrings."""
    ops = list(ops)
    if not ops:
        raise ValueError("empty product")
    out = ops[0]
    for op in ops[1:]:
        out = multiply(out, op)
    return out


def commutes(p: PauliString, q: PauliString) -> bool:
    """True iff the symplectic product of the two mask pairs is even."""
    _check_compatible(p, q)
    overlap = int.bit_count(p.x_mask & q.z_mask) + \
        int.bit_count(p.z_mask & q.x_mask)
    return overlap % 2 == 0


def _gf2_reduce(vec: int, rows: list[tuple[int, int]]) -> tuple[int, int]:
    """Reduce ``vec`` over GF(2) against echelon ``rows``.

    Each row is ``(vector, dep)``: a vector whose leading bit is clear
    in every later row, and the bitmask of the inputs it is the XOR of
    (the rows a caller builds by appending remainders are such).  The
    result is the remainder and the XOR of the deps of the rows used, so
    ``vec`` is the remainder XOR the inputs in that mask; a zero
    remainder means ``vec`` lies in the span.  :func:`_echelon` builds
    such rows.
    """
    dep = 0
    for row, row_dep in rows:
        if vec ^ row < vec:
            vec, dep = vec ^ row, dep ^ row_dep
    return vec, dep


def _echelon(vectors) -> tuple[list[tuple[int, int]], list[int | None]]:
    """Echelon ``rows`` of ``vectors`` over GF(2), read in order, and the
    ``dep`` of each vector.

    A vector that leaves a remainder against the rows so far is the next
    generator: ``(remainder, dep ^ 1 << len(rows))`` is appended, so bit
    ``k`` of a row's dep stands for the ``k``-th generator, and its entry
    of ``deps`` is ``None``.  Any other vector is the XOR of the
    generators in its ``deps`` entry.  The only code that builds an
    echelon; :func:`_gf2_reduce` reads one.
    """
    rows: list[tuple[int, int]] = []
    deps: list[int | None] = []
    for vector in vectors:
        vec, dep = _gf2_reduce(vector, rows)
        if vec:
            rows.append((vec, dep ^ 1 << len(rows)))
        deps.append(None if vec else dep)
    return rows, deps


def _z_signs(z_mask: int, n_bits: int) -> np.ndarray:
    """``(-1)**popcount(i & z_mask)`` for every ``i < 2**n_bits``."""
    idx = np.arange(1 << n_bits, dtype=np.uint64)
    return 1.0 - 2.0 * (np.bitwise_count(idx & np.uint64(z_mask)) & 1)


def _site_tensor(amps: np.ndarray, n_sites: int) -> np.ndarray:
    """``amps`` viewed as ``(*lead, 2, ..., 2)``, site ``j`` on axis ``-1 - j``."""
    if amps.shape[-1] != 1 << n_sites:
        raise DimensionMismatchError(
            f"amplitude axis {amps.shape[-1]} != 2**{n_sites}")
    return amps.reshape(*amps.shape[:-1], *(2,) * n_sites)


def _flip(tensor: np.ndarray, n_sites: int, x_mask: int) -> np.ndarray:
    """View of a site tensor whose basis index ``t`` reads ``t ^ x_mask``.

    The X sites' axes are reversed; no index array is built.
    """
    return np.flip(tensor, axis=tuple(
        tensor.ndim - 1 - j for j in range(n_sites) if x_mask >> j & 1))


def _unit(p: PauliString) -> complex:
    """``i**phase_exp * (-1)**popcount(x_mask & z_mask)``.

    ``p`` maps basis index ``t ^ x_mask`` to ``t`` with this factor times
    ``(-1)**popcount(t & z_mask)``.
    """
    phase = 1j ** p.phase_exp
    if int.bit_count(p.x_mask & p.z_mask) % 2:
        phase = -phase
    return phase


def apply_pauli_sum(terms, n_sites: int, amps: np.ndarray) -> np.ndarray:
    """``sum_k c_k P_k amps`` for ``(c_k, P_k)`` pairs, one flip per term.

    ``amps`` may be 1-D of length ``2**n_sites`` or carry lead axes, the
    qubit index last (a cavity-tensored register is ``(levels, 2**n)``).
    The result is a new complex array of that shape (zeros for no terms);
    one string is the one-term sum ``[(1, P)]``.

    The amplitudes are viewed as a ``(2,) * n_sites`` tensor, site ``j``
    on the ``j``-th axis from the end.  The X factors of term ``k``
    reverse the axes of their sites (a view, no index array), so output
    index ``t`` reads input index ``t ^ x_k``, and the term contributes
    the factor ``w_k (-1)**popcount(t & z_k)`` with
    ``w_k = c_k i**p_k (-1)**popcount(x_k & z_k)``.  The sign splits over
    the high ``hi = ceil(n/2)`` and low ``lo = floor(n/2)`` bits of ``t``:
    the view is multiplied by the weighted high-half signs into its
    target, then by the low-half signs, if ``z_k`` has low bits, in
    place.  A term thus builds no array of length ``2**n_sites`` besides
    its target, and since a one-term sum only permutes amplitudes and
    multiplies them by units, it keeps the norm of a unit-weight string
    exactly.

    The first term writes the output and each later one is added from
    one reused buffer.  The tests and ``HamiltonianTerms.apply`` call it
    as the full-register reference for the package's string operations,
    which work on a state's support; the half-register split and the
    reused buffer are what keep those tests fast.
    """
    terms = list(terms)
    tensor = _site_tensor(amps, n_sites)
    # the first term writes every entry, so only an empty sum needs zeros
    out = (np.empty if terms else np.zeros)(tensor.shape, dtype=complex)
    scratch = np.empty_like(out) if len(terms) > 1 else None
    lo = n_sites // 2
    hi = n_sites - lo
    for k, (c, op) in enumerate(terms):
        if op.n_sites != n_sites:
            raise DimensionMismatchError(
                f"operator on {op.n_sites} sites, register has {n_sites}")
        target = scratch if k else out
        # the weight stays complex: cut to float, it gives the same
        # values but can flip the sign bit of zero amplitudes
        coeff = c * _unit(op) * _z_signs(op.z_mask >> lo, hi)
        np.multiply(_flip(tensor, n_sites, op.x_mask),
                    coeff.reshape((2,) * hi + (1,) * lo), out=target)
        if op.z_mask & ((1 << lo) - 1):
            rows = target.reshape(-1, 1 << hi, 1 << lo)
            rows *= _z_signs(op.z_mask, lo)
        if k:
            out += scratch
    return out.reshape(amps.shape)

