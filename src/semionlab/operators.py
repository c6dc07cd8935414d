"""Operator factory: Majoranas, bond parities, and site operations.

Plaquette stabilizers are built once per layout in :mod:`semionlab.lattice`
as ``BondPlaquette.up`` and ``.down``; that module also owns ``UP``,
``DOWN`` and ``REP_HONEYCOMB`` (re-exported here).

Two representations are produced, tagged on every operator:

* ``honeycomb_spin`` acts on the ``2N`` honeycomb sites, indexed by
  Jordan-Wigner rank.  Four Majorana species live here, one "up" pair
  (psi) and one "down" pair (chi) per square site, realized as a head
  letter at the target rank times a Z string on every lower rank:

      psi @ white -> Y head      psi @ black -> X head
      chi @ white -> X head      chi @ black -> Y head

* ``device`` acts on ``2N`` charge-qubit devices, two chains ``a`` and
  ``b`` with qubit index ``2 * square_site + (0 for a, 1 for b)``.

Phase bookkeeping is exact.  One ordering convention is fixed here once:
the on-site Majorana bilinear that represents the single-site Z is taken
as ``i * chi * psi`` on black sites and ``i * psi * chi`` on white sites,
which makes both colors come out as ``+Z`` (the opposite per-site order
would flip the sign on white sites; a unit test records that fact).
"""

from __future__ import annotations

from .lattice import (
    BLACK,
    DOWN,
    REP_HONEYCOMB,
    UP,
    WHITE,
    HoneycombLayout,
)
from .pauli import PauliString, multiply, multiply_all

REP_DEVICE = "device"

_HEADS = {
    (UP, WHITE): "Y",
    (UP, BLACK): "X",
    (DOWN, WHITE): "X",
    (DOWN, BLACK): "Y",
}


def majorana_op(layout: HoneycombLayout, square_site: int, species: str,
                color: str) -> PauliString:
    """Majorana operator as a honeycomb Pauli string.

    Head letter at the target rank per the species/color table, times a
    Z on every site of smaller rank.  Squares to the identity with phase
    zero; any two distinct Majoranas anticommute.
    """
    rank = layout.rank(square_site, color)
    head = _HEADS[(species, color)]
    n = layout.n_sites
    tail = (1 << rank) - 1
    x = (1 << rank) if head in ("X", "Y") else 0
    z = tail | ((1 << rank) if head in ("Z", "Y") else 0)
    return PauliString(n, x, z, 1 if head == "Y" else 0, REP_HONEYCOMB)


def z_op(layout: HoneycombLayout, square_site: int, color: str) -> PauliString:
    """Single-site Z at one honeycomb site (diagonal spin flip label)."""
    return PauliString.single(layout.n_sites, layout.rank(square_site, color),
                              "Z", REP_HONEYCOMB)


def z_op_from_majoranas(layout: HoneycombLayout, square_site: int,
                        color: str) -> PauliString:
    """The same single-site Z built from the on-site Majorana bilinear.

    Uses the per-color ordering fixed in the module docstring; the result
    equals :func:`z_op` including phase, which a test asserts site by site.
    """
    psi = majorana_op(layout, square_site, UP, color)
    chi = majorana_op(layout, square_site, DOWN, color)
    pair = multiply(chi, psi) if color == BLACK else multiply(psi, chi)
    return pair.times_i()


def link_zz_op(layout: HoneycombLayout, square_site: int) -> PauliString:
    """Z on both honeycomb sites of one vertical link."""
    z_mask = (1 << layout.rank(square_site, BLACK)
              | 1 << layout.rank(square_site, WHITE))
    return PauliString(layout.n_sites, 0, z_mask, 0, REP_HONEYCOMB)


def bond_parity_op(layout: HoneycombLayout, square_i: int, square_j: int,
                   species: str) -> PauliString:
    """Product of the two on-link Majorana parities of a diagonal bond.

    ``i psi_w psi_b`` on each square site (or the chi pair for the down
    species), multiplied together.  For a bond of the lattice this equals
    the plaquette stabilizer of that bond; a test asserts the identity
    including phase, which pins the whole Jordan-Wigner sign chain.
    """
    def parity(site: int) -> PauliString:
        hi = majorana_op(layout, site, species, WHITE)
        lo = majorana_op(layout, site, species, BLACK)
        return multiply(hi, lo).times_i()

    return multiply(parity(square_i), parity(square_j))


def x_string_op(layout: HoneycombLayout, square_site: int,
                color: str) -> PauliString:
    """Nonlocal occupation-changing string, honeycomb representation.

    Head Majorana at the target site (psi on black targets, chi on white
    ones) times the on-site bilinear ``i chi psi`` of every lower-ranked
    site.  With the per-color bilinear ordering the tail collapses onto
    the head's own Z string, so the compiled operator is the single-site
    X at the target: the effective Pauli partner of :func:`z_op`.
    """
    rank = layout.rank(square_site, color)
    head_species = UP if color == BLACK else DOWN
    factors = [majorana_op(layout, square_site, head_species, color)]
    for lower in range(rank):
        s = layout.site(lower)
        factors.append(z_op_from_majoranas(layout, s.square_site, s.color))
    return multiply_all(factors)


# -- device representation -------------------------------------------

CHAIN_A = "a"
CHAIN_B = "b"


def device_qubit(square_site: int, chain: str) -> int:
    if chain not in (CHAIN_A, CHAIN_B):
        raise ValueError(f"chain must be 'a' or 'b', got {chain!r}")
    return 2 * square_site + (0 if chain == CHAIN_A else 1)


def n_device_qubits(layout: HoneycombLayout) -> int:
    return 2 * layout.square.n_sites


def z_op_device(layout: HoneycombLayout, square_site: int,
                color: str) -> PauliString:
    """Device form of the single-site Z: a two-device coupling.

    White sites map to X(x)X on the site's (a, b) qubit pair and black
    sites to Y(x)Y.  Both touch exactly the two devices of that site.
    """
    layout.rank(square_site, color)  # validates the site
    letter = "X" if color == WHITE else "Y"
    return PauliString.from_letters(
        n_device_qubits(layout),
        {device_qubit(square_site, CHAIN_A): letter,
         device_qubit(square_site, CHAIN_B): letter},
        REP_DEVICE)


def x_string_device(layout: HoneycombLayout, square_site: int,
                    color: str) -> PauliString:
    """Device form of the occupation-changing string.

    A single-device head on the target site (X on chain a for black
    targets, Y on chain b for white ones; the heads are forced by
    requiring anticommutation with the same site's Z form and
    commutation with every other site's) times one ``i XX`` or ``i YY``
    two-device factor per lower-ranked honeycomb site.  The literal
    ``i`` per tail factor is kept, so the string squares to plus or
    minus identity according to the tail-length parity.
    """
    rank = layout.rank(square_site, color)
    n = n_device_qubits(layout)
    if color == BLACK:
        head = PauliString.single(n, device_qubit(square_site, CHAIN_A),
                                  "X", REP_DEVICE)
    else:
        head = PauliString.single(n, device_qubit(square_site, CHAIN_B),
                                  "Y", REP_DEVICE)
    factors = [head]
    for lower in range(rank):
        s = layout.site(lower)
        factors.append(
            z_op_device(layout, s.square_site, s.color).times_i())
    return multiply_all(factors)
