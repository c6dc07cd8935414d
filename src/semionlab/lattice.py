"""Square-lattice geometry and its honeycomb extension.

Frozen coordinate conventions (see also ``docs/conventions.md``):

* Square sites are indexed row-major, ``site = row * cols + col``, rows
  counted bottom to top.  Diagonal bonds connect horizontally adjacent
  sites of the same row, so each row is one decoupled chain.
* Every square site becomes a vertical link of two honeycomb sites, the
  white site directly above the black one.
* Rows of links are staggered: odd rows sit half a column to the right.
* Zigzag lines run horizontally and are indexed bottom to top; the black
  site of a row-``r`` link lies on line ``r`` and its white partner on
  line ``r + 1``.
* The Jordan-Wigner rank sorts sites by (line, horizontal position):
  a higher line means a larger rank, and within one line the site to the
  right has the larger rank.  That order has a closed form, which the
  layout stores as one rank table per color (see ``HoneycombLayout``).
  Honeycomb sites are identified with their rank everywhere else in the
  package.
* Each diagonal bond owns one plaquette.  In the bulk it is the hexagon
  between the two links, listed in label order 1..6 =
  (left black, left white, top black, right white, right black, bottom
  white).  On the outermost rows the top or bottom vertex does not
  exist and the plaquette truncates to five (or, for a single row, four)
  sites; ``complete_plaquettes`` filters those away.
* Each plaquette carries its up and down stabilizers, built once with
  the layout straight from its label bits; every consumer reads them
  there.  The layout also holds, per family, the column table of those
  stabilizers (``flip_columns``), which answers "which plaquettes does
  this string flip" in one XOR per set bit of the string.

Only open boundary conditions exist; no option selects another.
Layouts are immutable after construction and all queries are pure.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field

from .errors import MAX_SQUARE_SITES, CapacityError
from .pauli import PauliString

__all__ = [
    "HoneycombSite",
    "BondPlaquette",
    "SquareLattice",
    "HoneycombLayout",
    "build_layout",
]

BLACK = "black"
WHITE = "white"

REP_HONEYCOMB = "honeycomb_spin"

UP = "up"      # psi species, realized by device chain a
DOWN = "down"  # chi species, realized by device chain b

@dataclass(frozen=True, slots=True)
class HoneycombSite:
    """One honeycomb site with its frozen coordinates."""

    rank: int
    square_site: int
    row: int
    col: int
    color: str
    line: int
    xpos: float


@dataclass(frozen=True, slots=True, init=False)
class BondPlaquette:
    """The plaquette owned by one diagonal bond.

    ``labels`` holds honeycomb ranks in label order 1..6; the top (label
    3) and bottom (label 6) entries are ``None`` where the neighbouring
    row does not exist.  ``site_i``/``site_j`` are the two square sites
    of the bond (left, right).  ``up`` and ``down`` are the plaquette's
    stabilizers on the honeycomb register, one per family; each is
    Hermitian and squares to the identity with phase zero.
    """

    index: int
    site_i: int
    site_j: int
    row: int
    col: int
    labels: tuple[int | None, ...]
    up: PauliString = field(repr=False)
    down: PauliString = field(repr=False)

    def __init__(self, index: int, site_i: int, site_j: int, row: int,
                 col: int, labels: tuple[int | None, ...], up: PauliString,
                 down: PauliString):
        # through the slot descriptors, as PauliString does
        _set_index(self, index)
        _set_site_i(self, site_i)
        _set_site_j(self, site_j)
        _set_row(self, row)
        _set_col(self, col)
        _set_labels(self, labels)
        _set_up(self, up)
        _set_down(self, down)

    @property
    def is_complete(self) -> bool:
        return None not in self.labels


_set_index = BondPlaquette.index.__set__
_set_site_i = BondPlaquette.site_i.__set__
_set_site_j = BondPlaquette.site_j.__set__
_set_row = BondPlaquette.row.__set__
_set_col = BondPlaquette.col.__set__
_set_labels = BondPlaquette.labels.__set__
_set_up = BondPlaquette.up.__set__
_set_down = BondPlaquette.down.__set__


class SquareLattice:
    """Open-boundary square lattice with horizontal-diagonal bonds."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 2:
            raise ValueError(
                f"need rows >= 1 and cols >= 2, got {rows}x{cols}")
        if rows * cols > MAX_SQUARE_SITES:
            raise CapacityError(
                f"a {rows}x{cols} lattice has {rows * cols} square sites, "
                f"over the limit of {MAX_SQUARE_SITES}")
        self.rows = rows
        self.cols = cols
        self.n_sites = rows * cols
        # site i bonds to i + 1 unless it ends its row
        self.bonds = [(i, i + 1) for i in range(self.n_sites)
                      if (i + 1) % cols]

    def index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"square site ({row}, {col}) outside lattice")
        return row * self.cols + col

    def chains(self) -> list[list[int]]:
        """Partition into maximal diagonal chains (one per row)."""
        cols = self.cols
        return [list(range(r * cols, (r + 1) * cols))
                for r in range(self.rows)]


def _x_offset(row: int) -> float:
    return 0.5 if row % 2 else 0.0


def _line_start(line: int, cols: int) -> int:
    """Rank of the leftmost site of a zigzag line.

    Line 0 holds the ``cols`` black sites of row 0; every later line but
    the top one holds ``2 * cols`` sites, a black and a white per column.
    """
    return cols * (2 * line - 1) if line else 0


class HoneycombLayout:
    """Honeycomb image of a square lattice, with the zigzag JW order.

    The ranks are closed-form (``docs/conventions.md``): with ``s(L)`` the
    :func:`_line_start` of line ``L``, the black site of square site
    ``(r, c)`` has rank ``c`` on row 0 and ``s(r) + 2c + (r & 1)`` above
    it, and the white site has rank ``s(r + 1) + 2c + (r & 1)``, or
    ``s(r + 1) + c`` on the top line.  The layout keeps them as two
    tables indexed by square site; :meth:`site` reads their inverse, a
    ``(square site, color)`` per rank built on first use, so no site
    object exists until a caller asks for it.

    ``flip_columns[family]`` is the column table of that family's
    stabilizers over ``2 * n_sites`` bits: entry ``b`` is the bitmask of
    the plaquette indices whose ``z_mask << n | x_mask`` has bit ``b``.
    The XOR of the entries at the set bits of a string's
    ``x_mask << n | z_mask`` is then the mask of the plaquettes it flips
    (see :func:`~semionlab.anyons.predicted_flips`).
    """

    def __init__(self, square: SquareLattice):
        self.square = square
        rows, cols = square.rows, square.cols

        black = list(range(cols))
        white: list[int] = []
        for r in range(rows):
            parity = r & 1
            if r:
                first = _line_start(r, cols) + parity
                black += range(first, first + 2 * cols, 2)
            if r + 1 == rows:
                first = _line_start(rows, cols)
                white += range(first, first + cols)
            else:
                first = _line_start(r + 1, cols) + parity
                white += range(first, first + 2 * cols, 2)
        self._black = black
        self._white = white

        n = self.n_sites
        self.bond_plaquettes: list[BondPlaquette] = []
        # entry b: bitmask of the plaquettes whose stabilizer has bit b
        # in z_mask << n | x_mask; the x half is the same in both families
        x_cols = [0] * n
        up_cols = [0] * n
        down_cols = [0] * n
        for idx, (i, j) in enumerate(square.bonds):
            row, col = divmod(i, cols)
            # labels 1..6: left black, left white, top, right white,
            # right black, bottom; top and bottom sit in the column
            # col + (row & 1) of the rows above and below
            b_i, w_i, w_j, b_j = black[i], white[i], white[j], black[j]
            top = (black[i + cols + (row & 1)] if row + 1 < rows
                   else None)
            bottom = white[i - cols + (row & 1)] if row else None
            plaquette = 1 << idx
            # the up family reads YXZYXZ over labels 1..6, the down one
            # XYZXYZ: X on the four link labels in both, Z on the top and
            # bottom and on the two Y labels, 1 and 4 (up) or 2 and 5 (down)
            x_mask = 1 << b_i | 1 << w_i | 1 << w_j | 1 << b_j
            up_z = 1 << b_i | 1 << w_j
            down_z = 1 << w_i | 1 << b_j
            for b in (b_i, w_i, w_j, b_j):
                x_cols[b] |= plaquette
            up_cols[b_i] |= plaquette
            up_cols[w_j] |= plaquette
            down_cols[w_i] |= plaquette
            down_cols[b_j] |= plaquette
            for b in (top, bottom):
                if b is not None:
                    up_z |= 1 << b
                    down_z |= 1 << b
                    up_cols[b] |= plaquette
                    down_cols[b] |= plaquette
            # Y = i X Z, so two Y letters give phase exponent 2
            self.bond_plaquettes.append(BondPlaquette(
                idx, i, j, row, col, (b_i, w_i, top, w_j, b_j, bottom),
                PauliString(n, x_mask, up_z, 2, REP_HONEYCOMB),
                PauliString(n, x_mask, down_z, 2, REP_HONEYCOMB)))
        self.flip_columns: dict[str, tuple[int, ...]] = {
            UP: tuple(x_cols + up_cols), DOWN: tuple(x_cols + down_cols)}

    # -- queries -----------------------------------------------------

    @property
    def n_sites(self) -> int:
        return 2 * self.square.n_sites

    @property
    def sites(self) -> list[HoneycombSite]:
        """Every honeycomb site in rank order, built on each read."""
        return [self.site(k) for k in range(self.n_sites)]

    def rank(self, square_site: int, color: str) -> int:
        """Jordan-Wigner rank of one honeycomb site.

        ``square_site`` is any value equal to an integer in range
        (numpy integers and bools included); another value or an unknown
        color raises ``ValueError``.
        """
        table = (self._black if color == BLACK
                 else self._white if color == WHITE else None)
        try:
            site = int(square_site)
        except (TypeError, ValueError, OverflowError):
            site = -1
        if table is None or site != square_site or \
                not 0 <= site < len(table):
            raise ValueError(
                f"unknown honeycomb site {(square_site, color)}")
        return table[site]

    @functools.cached_property
    def _square_sites(self) -> list[tuple[int, str]]:
        """``(square site, color)`` of each rank: the inverse of the rank
        tables, built on first use."""
        inverse = [None] * self.n_sites
        for site, (b, w) in enumerate(zip(self._black, self._white)):
            inverse[b] = (site, BLACK)
            inverse[w] = (site, WHITE)
        return inverse

    def site(self, rank: int) -> HoneycombSite:
        """The site of one rank, read off the inverse of the rank tables;
        one site object is built per call.  The black site of row ``r``
        lies on line ``r`` and the white one on line ``r + 1``."""
        if not 0 <= rank < self.n_sites:
            raise ValueError(f"rank {rank} outside layout")
        rank = operator.index(rank)
        square_site, color = self._square_sites[rank]
        row, col = divmod(square_site, self.square.cols)
        return HoneycombSite(rank, square_site, row, col, color,
                             row + (color == WHITE), col + _x_offset(row))

    def complete_plaquettes(self) -> list[tuple[int, ...]]:
        """Ordered 6-tuples (labels 1..6) of the complete hexagons."""
        return [p.labels for p in self.bond_plaquettes if p.is_complete]

    def chains(self) -> list[list[int]]:
        return self.square.chains()

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        cols = self.square.cols
        sites: list[dict | None] = [None] * self.n_sites
        for site, (b, w) in enumerate(zip(self._black, self._white)):
            row, col = divmod(site, cols)
            x = col + _x_offset(row)
            sites[b] = {"rank": b, "square_site": site, "row": row,
                        "col": col, "color": BLACK, "line": row, "xpos": x}
            sites[w] = {"rank": w, "square_site": site, "row": row,
                        "col": col, "color": WHITE, "line": row + 1,
                        "xpos": x}
        return {
            "rows": self.square.rows,
            "cols": cols,
            "sites": sites,
            "bonds": [list(b) for b in self.square.bonds],
            "chains": self.chains(),
            "plaquettes": [
                {"index": p.index, "bond": [p.site_i, p.site_j],
                 "row": p.row, "col": p.col,
                 "labels": [r if r is not None else -1 for r in p.labels],
                 "complete": p.is_complete}
                for p in self.bond_plaquettes
            ],
        }

    def to_text(self) -> str:
        lines = [f"honeycomb layout {self.square.rows}x{self.square.cols}"]
        for s in self.sites:
            lines.append(
                f"  rank {s.rank:3d}  square {s.square_site:3d} "
                f"({s.row},{s.col}) {s.color:5s} line {s.line} x={s.xpos}")
        for p in self.bond_plaquettes:
            tag = "hexagon" if p.is_complete else "boundary"
            lab = ",".join("-" if r is None else str(r) for r in p.labels)
            lines.append(f"  plaquette {p.index}: bond "
                         f"({p.site_i},{p.site_j}) {tag} labels [{lab}]")
        for k, chain in enumerate(self.chains()):
            lines.append(f"  chain {k}: {chain}")
        return "\n".join(lines) + "\n"


def build_layout(rows: int, cols: int) -> HoneycombLayout:
    """Build the honeycomb layout for a ``rows x cols`` square lattice.

    ``rows >= 1`` and ``cols >= 2``.  Boundaries are always open: the
    deconfined excitations this package studies require them.
    """
    return HoneycombLayout(SquareLattice(rows, cols))
