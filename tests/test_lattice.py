"""Layout geometry: frozen small-lattice enumerations and rank order."""

import pytest

from semionlab.lattice import (
    BLACK,
    DOWN,
    REP_HONEYCOMB,
    UP,
    WHITE,
    build_layout,
)
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
