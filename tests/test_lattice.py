"""Layout geometry: frozen small-lattice enumerations and rank order."""

import numpy as np
import pytest

from semionlab import lattice
from semionlab.lattice import (
    BLACK,
    DOWN,
    REP_HONEYCOMB,
    UP,
    WHITE,
    HoneycombSite,
    build_layout,
)
from semionlab.operators import x_string_device, x_string_op
from semionlab.pauli import PauliString

# every shape up to 8x8 (a bond needs two columns)
SHAPES = [(r, c) for r in range(1, 9) for c in range(2, 9)]

# the stabilizers as letters over plaquette labels 1..6 (docs/conventions.md)
PLAQ_LETTERS = {UP: "YXZYXZ", DOWN: "XYZXYZ"}

# Regression constants from manual enumeration of the frozen embedding:
# bonds = rows * (cols - 1); complete hexagons = max(rows - 2, 0) * (cols - 1).
FROZEN = {
    (1, 2): {"bonds": 1, "complete": 0},
    (2, 2): {"bonds": 2, "complete": 0},
    (1, 4): {"bonds": 3, "complete": 0},
    (2, 3): {"bonds": 4, "complete": 0},
    (3, 3): {"bonds": 6, "complete": 2},
    (4, 4): {"bonds": 12, "complete": 6},
}


@pytest.mark.parametrize("dims,expect", sorted(FROZEN.items()))
def test_frozen_counts(dims, expect):
    layout = build_layout(*dims)
    assert layout.n_sites == 2 * dims[0] * dims[1]
    assert len(layout.square.bonds) == expect["bonds"]
    assert len(layout.complete_plaquettes()) == expect["complete"]
    assert len(layout.bond_plaquettes) == expect["bonds"]


def test_minimal_layout():
    layout = build_layout(1, 2)
    assert layout.n_sites == 4
    assert len(layout.square.bonds) == 1
    assert layout.complete_plaquettes() == []


def test_degenerate_inputs_rejected():
    with pytest.raises(ValueError):
        build_layout(1, 0)
    with pytest.raises(ValueError):
        build_layout(0, 3)
    with pytest.raises(ValueError):
        build_layout(1, 1)  # no diagonal bond would exist


class TestRankOrder:
    def test_bijective(self):
        layout = build_layout(2, 3)
        ranks = sorted(s.rank for s in layout.sites)
        assert ranks == list(range(12))

    def test_left_of_means_smaller(self):
        layout = build_layout(2, 3)
        # blacks of one row share a zigzag line; left column first
        assert layout.rank(layout.square.index(0, 0), BLACK) < \
            layout.rank(layout.square.index(0, 1), BLACK)

    def test_higher_line_means_larger(self):
        layout = build_layout(2, 3)
        for s in layout.sites:
            for t in layout.sites:
                if s.line < t.line:
                    assert s.rank < t.rank

    def test_white_above_black_per_link(self):
        layout = build_layout(3, 3)
        for site in range(layout.square.n_sites):
            assert layout.rank(site, BLACK) < layout.rank(site, WHITE)

    def test_unknown_site(self):
        layout = build_layout(2, 2)
        with pytest.raises(ValueError):
            layout.rank(99, BLACK)
        with pytest.raises(ValueError):
            layout.site(-1)


class TestPlaquettes:
    def test_complete_tuples_have_six_distinct_sites(self):
        layout = build_layout(4, 4)
        for tup in layout.complete_plaquettes():
            assert len(tup) == 6
            assert len(set(tup)) == 6

    def test_three_sites_per_color(self):
        layout = build_layout(4, 4)
        for tup in layout.complete_plaquettes():
            colors = [layout.site(r).color for r in tup]
            assert colors.count(BLACK) == 3
            assert colors.count(WHITE) == 3
            # labels 1, 3, 5 are the black sites in the frozen label order
            assert [colors[i] for i in (0, 2, 4)] == [BLACK] * 3

    def test_boundary_plaquettes_lose_the_right_vertex(self):
        layout = build_layout(3, 3)
        for p in layout.bond_plaquettes:
            if p.row == 0:
                assert p.labels[5] is None and p.labels[2] is not None
            elif p.row == 2:
                assert p.labels[2] is None and p.labels[5] is not None
            else:
                assert p.is_complete

    @pytest.mark.parametrize("dims", SHAPES)
    def test_stabilizers_match_letter_reference(self, dims):
        # the letter construction over the labels that exist, phase and
        # tag included, is the reference for the mask-built stabilizers
        layout = build_layout(*dims)
        for p in layout.bond_plaquettes:
            for family, op in ((UP, p.up), (DOWN, p.down)):
                want = PauliString.from_letters(
                    layout.n_sites,
                    {r: letter for r, letter in zip(p.labels,
                                                    PLAQ_LETTERS[family])
                     if r is not None},
                    REP_HONEYCOMB)
                assert (op, op.phase_exp, op.rep) == \
                    (want, want.phase_exp, want.rep), (dims, p.index, family)

    @pytest.mark.parametrize("dims", SHAPES)
    def test_flip_columns_match_stabilizer_bits(self, dims):
        # entry b: the plaquettes whose z_mask << n | x_mask has bit b
        layout = build_layout(*dims)
        n = layout.n_sites
        for family in (UP, DOWN):
            ops = [p.up if family == UP else p.down
                   for p in layout.bond_plaquettes]
            want = tuple(sum(1 << k for k, op in enumerate(ops)
                             if (op.z_mask << n | op.x_mask) >> b & 1)
                         for b in range(2 * n))
            assert layout.flip_columns[family] == want

    def test_deterministic(self):
        a = build_layout(3, 4)
        b = build_layout(3, 4)
        assert [p.labels for p in a.bond_plaquettes] == \
            [p.labels for p in b.bond_plaquettes]


class TestChains:
    def test_single_row_is_single_chain(self):
        layout = build_layout(1, 4)
        assert layout.chains() == [[0, 1, 2, 3]]

    def test_partition(self):
        layout = build_layout(3, 4)
        chains = layout.chains()
        seen = [s for chain in chains for s in chain]
        assert sorted(seen) == list(range(12))
        assert len(seen) == len(set(seen))

    def test_consecutive_pairs_are_bonds(self):
        layout = build_layout(3, 4)
        bonds = set(map(tuple, layout.square.bonds))
        for chain in layout.chains():
            for a, b in zip(chain, chain[1:]):
                assert (a, b) in bonds or (b, a) in bonds


def test_text_report_mentions_every_site():
    layout = build_layout(1, 2)
    text = layout.to_text()
    for s in layout.sites:
        assert f"rank {s.rank:3d}" in text


# -- the closed-form ranks against the frozen sort ----------------------

def _reference_sites(rows, cols):
    """``(rank, square_site, row, col, color, line, xpos)`` of every site,
    ranked by the frozen ``(line, xpos)`` sort of docs/conventions.md."""
    raw = []
    for site in range(rows * cols):
        row, col = divmod(site, cols)
        x = col + (0.5 if row % 2 else 0.0)
        raw.append((row, x, site, row, col, BLACK))
        raw.append((row + 1, x, site, row, col, WHITE))
    raw.sort(key=lambda t: (t[0], t[1]))
    return [(rank, site, row, col, color, line, x)
            for rank, (line, x, site, row, col, color) in enumerate(raw)]


def _reference_labels(rows, cols, rank):
    """Labels 1..6 of every bond's plaquette, from the reference ranks."""
    labels = []
    for row in range(rows):
        for col in range(cols - 1):
            i, j = row * cols + col, row * cols + col + 1
            mid = col + row % 2
            top = (rank[((row + 1) * cols + mid, BLACK)]
                   if row + 1 < rows else None)
            bottom = rank[((row - 1) * cols + mid, WHITE)] if row else None
            labels.append((i, j, row, col, (
                rank[(i, BLACK)], rank[(i, WHITE)], top, rank[(j, WHITE)],
                rank[(j, BLACK)], bottom)))
    return labels


class TestClosedFormRanks:
    @pytest.mark.parametrize("dims", SHAPES)
    def test_ranks_and_sites_match_the_sort(self, dims):
        layout = build_layout(*dims)
        ref = _reference_sites(*dims)
        assert [tuple(getattr(s, f) for f in (
            "rank", "square_site", "row", "col", "color", "line", "xpos"))
            for s in layout.sites] == ref
        for rank, site, row, col, color, line, x in ref:
            assert layout.rank(site, color) == rank
            assert layout.site(rank) == HoneycombSite(
                rank, site, row, col, color, line, x)
            assert type(layout.site(rank).xpos) is float

    @pytest.mark.parametrize("dims", SHAPES)
    def test_plaquettes_and_reports_match_the_sort(self, dims):
        rows, cols = dims
        layout = build_layout(*dims)
        ref = _reference_sites(*dims)
        rank = {(site, color): r for r, site, _, _, color, _, _ in ref}
        labels = _reference_labels(rows, cols, rank)
        assert [(p.site_i, p.site_j, p.row, p.col, p.labels)
                for p in layout.bond_plaquettes] == labels
        assert [p.index for p in layout.bond_plaquettes] == \
            list(range(len(labels)))
        assert layout.square.bonds == [(i, j) for i, j, *_ in labels]
        assert layout.chains() == [
            [layout.square.index(r, c) for c in range(cols)]
            for r in range(rows)]
        # flip columns from the letter reference over the reference labels
        n = layout.n_sites
        for family in (UP, DOWN):
            columns = [0] * (2 * n)
            for k, (*_, labs) in enumerate(labels):
                for r, letter in zip(labs, PLAQ_LETTERS[family]):
                    if r is not None:
                        if letter in "XY":
                            columns[r] |= 1 << k
                        if letter in "ZY":
                            columns[n + r] |= 1 << k
            assert layout.flip_columns[family] == tuple(columns)
        complete = [None not in labs for *_, labs in labels]
        assert [p.is_complete for p in layout.bond_plaquettes] == complete
        assert layout.to_dict() == {
            "rows": rows, "cols": cols,
            "sites": [{"rank": r, "square_site": s, "row": row, "col": col,
                       "color": color, "line": line, "xpos": x}
                      for r, s, row, col, color, line, x in ref],
            "bonds": [[i, j] for i, j, *_ in labels],
            "chains": [list(range(r * cols, (r + 1) * cols))
                       for r in range(rows)],
            "plaquettes": [
                {"index": k, "bond": [i, j], "row": row, "col": col,
                 "labels": [-1 if r is None else r for r in labs],
                 "complete": done}
                for k, ((i, j, row, col, labs), done)
                in enumerate(zip(labels, complete))],
        }
        text = [f"honeycomb layout {rows}x{cols}"]
        text += [f"  rank {r:3d}  square {s:3d} ({row},{col}) {color:5s} "
                 f"line {line} x={x}" for r, s, row, col, color, line, x in ref]
        for k, ((i, j, _, _, labs), done) in enumerate(zip(labels, complete)):
            lab = ",".join("-" if r is None else str(r) for r in labs)
            text.append(f"  plaquette {k}: bond ({i},{j}) "
                        f"{'hexagon' if done else 'boundary'} labels [{lab}]")
        text += [f"  chain {r}: {list(range(r * cols, (r + 1) * cols))}"
                 for r in range(rows)]
        assert layout.to_text() == "\n".join(text) + "\n"

    @pytest.mark.parametrize("site", [-1, -7, 12, 13, 10 ** 30])
    def test_square_site_outside_raises(self, site):
        layout = build_layout(3, 4)
        for color in (BLACK, WHITE):
            with pytest.raises(ValueError, match="unknown honeycomb site"):
                layout.rank(site, color)

    @pytest.mark.parametrize("site", [1.5, "1", None, [1], float("nan"),
                                      float("inf")])
    def test_non_integer_square_site_raises(self, site):
        with pytest.raises(ValueError, match="unknown honeycomb site"):
            build_layout(3, 4).rank(site, BLACK)

    @pytest.mark.parametrize("color", ["red", "Black", "", None, 0])
    def test_unknown_color_raises(self, color):
        with pytest.raises(ValueError, match="unknown honeycomb site"):
            build_layout(3, 4).rank(0, color)

    def test_numpy_ints_and_bools_are_sites(self):
        layout = build_layout(3, 4)
        for site in range(12):
            for color in (BLACK, WHITE):
                want = layout.rank(site, color)
                for cast in (np.int64, np.int32, np.uint8, np.intp):
                    got = layout.rank(cast(site), np.str_(color))
                    assert got == want and type(got) is int
        assert layout.rank(True, WHITE) == layout.rank(1, WHITE)
        assert layout.rank(False, BLACK) == layout.rank(np.bool_(False),
                                                        BLACK) == 0
        # any value equal to a site, as with a lookup keyed by site
        assert layout.rank(3.0, WHITE) == layout.rank(3, WHITE)

    @pytest.mark.parametrize("rank", [-1, 24, 25, 10 ** 30])
    def test_rank_outside_raises(self, rank):
        with pytest.raises(ValueError, match="outside layout"):
            build_layout(3, 4).site(rank)

    def test_site_takes_numpy_ints(self):
        layout = build_layout(3, 4)
        for rank in range(24):
            got = layout.site(np.int64(rank))
            assert got == layout.site(rank)
            assert all(type(getattr(got, f)) is int for f in (
                "rank", "square_site", "row", "col", "line"))

    def test_site_builds_one_object(self, monkeypatch):
        # a site query inverts the rank tables instead of building every
        # site, so the string builders, which ask for every lower rank,
        # stay linear in the rank
        built = []

        class Counting(lattice.HoneycombSite):
            __slots__ = ()

            def __init__(self, *args):
                built.append(args[0])
                super().__init__(*args)

        layout = build_layout(8, 8)
        monkeypatch.setattr(lattice, "HoneycombSite", Counting)
        assert layout.site(77).rank == 77
        assert built == [77]
        built.clear()
        rank = layout.rank(40, WHITE)
        x_string_op(layout, 40, WHITE)
        assert sorted(built) == list(range(rank))
        built.clear()
        x_string_device(layout, 40, WHITE)
        assert sorted(built) == list(range(rank))
