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
  right has the larger rank.  Honeycomb sites are identified with their
  rank everywhere else in the package.
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

Only open boundary conditions are supported; asking for periodic ones is
rejected explicitly.  Layouts are immutable after construction and all
queries are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# Plaquette label order 1..6: the up family reads YXZYXZ and the down
# family XYZXYZ, so both carry X on the four link labels (1, 2, 4, 5),
# Z on labels 3 and 6 and a Y on two link labels, which differ: the
# 0-based label positions of each family's Z factors are listed here.
# With Y = i X Z, each stabilizer has phase exponent 2 (two Y letters).
_PLAQ_X = (0, 1, 3, 4)
_PLAQ_Z = {UP: (0, 2, 3, 5), DOWN: (1, 2, 4, 5)}


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


@dataclass(frozen=True, slots=True)
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

    @property
    def sites(self) -> tuple[int, ...]:
        return tuple(r for r in self.labels if r is not None)

    @property
    def is_complete(self) -> bool:
        return all(r is not None for r in self.labels)


class SquareLattice:
    """Open-boundary square lattice with horizontal-diagonal bonds."""

    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 2:
            raise ValueError(
                f"need rows >= 1 and cols >= 2, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.n_sites = rows * cols
        self.bonds = [
            (self.index(r, c), self.index(r, c + 1))
            for r in range(rows) for c in range(cols - 1)
        ]

    def index(self, row: int, col: int) -> int:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"square site ({row}, {col}) outside lattice")
        return row * self.cols + col

    def coords(self, site: int) -> tuple[int, int]:
        if not 0 <= site < self.n_sites:
            raise ValueError(f"square site {site} outside lattice")
        return divmod(site, self.cols)

    def neighbors(self, site: int) -> list[int]:
        row, col = self.coords(site)
        out = []
        if col > 0:
            out.append(self.index(row, col - 1))
        if col < self.cols - 1:
            out.append(self.index(row, col + 1))
        return out

    def chains(self) -> list[list[int]]:
        """Partition into maximal diagonal chains (one per row)."""
        return [[self.index(r, c) for c in range(self.cols)]
                for r in range(self.rows)]


def _x_offset(row: int) -> float:
    return 0.5 if row % 2 else 0.0


class HoneycombLayout:
    """Honeycomb image of a square lattice, with the zigzag JW order.

    ``flip_columns[family]`` is the column table of that family's
    stabilizers over ``2 * n_sites`` bits: entry ``b`` is the bitmask of
    the plaquette indices whose ``z_mask << n | x_mask`` has bit ``b``
    (see :func:`~semionlab.pauli._anticommuting`).
    """

    def __init__(self, square: SquareLattice):
        self.square = square
        rows, cols = square.rows, square.cols

        raw = []
        for site in range(square.n_sites):
            row, col = square.coords(site)
            x = col + _x_offset(row)
            raw.append((row, x, site, row, col, BLACK))
            raw.append((row + 1, x, site, row, col, WHITE))
        raw.sort(key=lambda t: (t[0], t[1]))

        self.sites: list[HoneycombSite] = []
        self._rank: dict[tuple[int, str], int] = {}
        for rank, (line, x, site, row, col, color) in enumerate(raw):
            self.sites.append(HoneycombSite(rank, site, row, col, color,
                                            line, x))
            self._rank[(site, color)] = rank

        n = self.n_sites
        self.bond_plaquettes: list[BondPlaquette] = []
        # entry b: bitmask of the plaquettes whose stabilizer has bit b
        # in z_mask << n | x_mask; the x half is the same in both families
        x_columns = [0] * n
        z_columns = {UP: [0] * n, DOWN: [0] * n}
        for idx, (i, j) in enumerate(square.bonds):
            row, col = square.coords(i)
            mid = col + row % 2
            top = (self._rank[(square.index(row + 1, mid), BLACK)]
                   if row + 1 < rows else None)
            bottom = (self._rank[(square.index(row - 1, mid), WHITE)]
                      if row >= 1 else None)
            labels = (
                self._rank[(i, BLACK)],
                self._rank[(i, WHITE)],
                top,
                self._rank[(j, WHITE)],
                self._rank[(j, BLACK)],
                bottom,
            )
            plaquette = 1 << idx
            x_mask = 0
            for k in _PLAQ_X:
                x_mask |= 1 << labels[k]
                x_columns[labels[k]] |= plaquette
            ops = {}
            for family, positions in _PLAQ_Z.items():
                z_mask = 0
                for k in positions:
                    if labels[k] is not None:
                        z_mask |= 1 << labels[k]
                        z_columns[family][labels[k]] |= plaquette
                ops[family] = PauliString(n, x_mask, z_mask, 2, REP_HONEYCOMB)
            self.bond_plaquettes.append(BondPlaquette(
                idx, i, j, row, col, labels, ops[UP], ops[DOWN]))
        self.flip_columns: dict[str, tuple[int, ...]] = {
            family: tuple(x_columns + z_columns[family])
            for family in (UP, DOWN)}

    # -- queries -----------------------------------------------------

    @property
    def n_sites(self) -> int:
        return 2 * self.square.n_sites

    def rank(self, square_site: int, color: str) -> int:
        """Jordan-Wigner rank of one honeycomb site."""
        key = (square_site, color)
        if key not in self._rank:
            raise ValueError(f"unknown honeycomb site {key}")
        return self._rank[key]

    def site(self, rank: int) -> HoneycombSite:
        if not 0 <= rank < self.n_sites:
            raise ValueError(f"rank {rank} outside layout")
        return self.sites[rank]

    def complete_plaquettes(self) -> list[tuple[int, ...]]:
        """Ordered 6-tuples (labels 1..6) of the complete hexagons."""
        return [p.labels for p in self.bond_plaquettes if p.is_complete]

    def chains(self) -> list[list[int]]:
        return self.square.chains()

    # -- serialization -----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rows": self.square.rows,
            "cols": self.square.cols,
            "sites": [
                {"rank": s.rank, "square_site": s.square_site,
                 "row": s.row, "col": s.col, "color": s.color,
                 "line": s.line, "xpos": s.xpos}
                for s in self.sites
            ],
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


def build_layout(rows: int, cols: int, boundary: str = "open") -> HoneycombLayout:
    """Build the honeycomb layout for a ``rows x cols`` square lattice.

    Parameters
    ----------
    rows, cols : int
        Square-lattice dimensions; ``rows >= 1`` and ``cols >= 2``.
    boundary : str
        Only ``"open"`` is supported.  The deconfined excitations this
        package studies require open boundaries, so anything else is
        rejected rather than silently accepted.
    """
    if boundary != "open":
        raise ValueError(f"only open boundaries are supported, got {boundary!r}")
    return HoneycombLayout(SquareLattice(rows, cols))


def layout_from_dict(data: dict) -> HoneycombLayout:
    """Rebuild a layout from its serialized form, verifying consistency."""
    layout = build_layout(int(data["rows"]), int(data["cols"]))
    current = layout.to_dict()
    if current != data:
        raise ValueError("serialized layout disagrees with the frozen "
                         "conventions of this build")
    return layout
