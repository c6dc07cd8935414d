"""Operator factory: Majorana algebra, plaquette stabilizers, site ops."""

import itertools

import numpy as np
import pytest

from semionlab.anyons import StringSpec, fuse_check, vortex_map
from semionlab.hamiltonian import build_spin_hamiltonian
from semionlab.lattice import BLACK, WHITE, build_layout
from semionlab.operators import (
    DOWN,
    UP,
    bond_parity_op,
    device_qubit,
    link_zz_op,
    majorana_op,
    x_string_device,
    x_string_op,
    z_op,
    z_op_device,
    z_op_from_majoranas,
)
from semionlab.pauli import PauliString, commutes, multiply
from semionlab.states import project_ground


def all_majoranas(layout):
    return [majorana_op(layout, s, species, color)
            for s in range(layout.square.n_sites)
            for species in (UP, DOWN) for color in (BLACK, WHITE)]


class TestMajoranas:
    def test_rank_zero_site_has_no_tail(self):
        layout = build_layout(2, 3)
        site0 = layout.site(0)
        op = majorana_op(layout, site0.square_site, UP, site0.color)
        assert op.weight() == 1

    def test_all_pairs_anticommute(self):
        layout = build_layout(2, 3)
        ops = all_majoranas(layout)
        for a, b in itertools.combinations(ops, 2):
            assert not commutes(a, b)

    def test_squares_to_identity_phase_zero(self):
        layout = build_layout(2, 3)
        for op in all_majoranas(layout):
            sq = multiply(op, op)
            assert sq.is_identity_mask() and sq.phase_exp == 0

    def test_hermitian(self):
        layout = build_layout(2, 2)
        for op in all_majoranas(layout):
            assert op.is_hermitian()

    def test_head_letters(self):
        layout = build_layout(1, 2)
        heads = {
            (UP, WHITE): "Y", (UP, BLACK): "X",
            (DOWN, WHITE): "X", (DOWN, BLACK): "Y",
        }
        for (species, color), letter in heads.items():
            op = majorana_op(layout, 1, species, color)
            assert op.letter(layout.rank(1, color)) == letter


class TestPlaquetteOps:
    def test_hermitian_and_squares_to_identity(self):
        layout = build_layout(2, 3)
        for plq in layout.bond_plaquettes:
            for w in (plq.up, plq.down):
                assert w.is_hermitian()
                sq = multiply(w, w)
                assert sq.is_identity_mask() and sq.phase_exp == 0
                # dense confirmation on the support
                m = w.restricted_to_support().to_matrix()
                assert np.allclose(m, m.conj().T)
                assert np.allclose(m @ m, np.eye(len(m)))

    def test_both_families_commute_all_pairs_3x3(self):
        layout = build_layout(3, 3)
        ups = [p.up for p in layout.bond_plaquettes]
        downs = [p.down for p in layout.bond_plaquettes]
        for a in ups:
            for b in downs:
                assert commutes(a, b)

    def test_same_family_commute_all_pairs(self):
        plqs = build_layout(3, 3).bond_plaquettes
        for ops in ([p.up for p in plqs], [p.down for p in plqs]):
            for a, b in itertools.combinations(ops, 2):
                assert commutes(a, b)

    def test_equals_majorana_bond_parity_product(self):
        # This identity pins the entire Jordan-Wigner sign chain: the
        # literal letter product per plaquette must equal the compiled
        # product of the two on-link Majorana parities, phase included.
        for dims in ((1, 4), (2, 3), (3, 3)):
            layout = build_layout(*dims)
            for plq in layout.bond_plaquettes:
                for family, lit in ((UP, plq.up), (DOWN, plq.down)):
                    jw = bond_parity_op(layout, plq.site_i, plq.site_j,
                                        family)
                    assert lit == jw, (dims, plq.index, family)

    def test_complete_hexagon_letter_pattern(self):
        layout = build_layout(3, 3)
        tup = layout.complete_plaquettes()[0]
        plq = next(p for p in layout.bond_plaquettes if p.labels == tup)
        assert [plq.up.letter(r) for r in tup] == list("YXZYXZ")
        assert [plq.down.letter(r) for r in tup] == list("XYZXYZ")

    def test_consumers_build_no_plaquette_operator(self, monkeypatch):
        # the layout builds every stabilizer once; the Hamiltonian, the
        # vortex map, the flip prediction and the projection read them
        layout = build_layout(2, 3)
        loop = StringSpec.z_string(layout, [0, 1, 3, 5])
        crossing = StringSpec.x_string(layout, [1, 2])
        state = project_ground(layout)
        built = []
        from_letters = PauliString.from_letters.__func__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return from_letters(cls, *args, **kwargs)

        monkeypatch.setattr(PauliString, "from_letters",
                            classmethod(counting))
        vortex_map(state, layout)
        fuse_check(layout, loop, crossing)
        project_ground(layout, 2)
        assert built == []
        build_spin_hamiltonian(layout, 1.0, 0.7, 0.3)
        assert len(built) <= layout.square.n_sites  # the link ZZ terms


class TestSiteZ:
    def test_bilinear_route_matches_single_site_z(self):
        layout = build_layout(2, 3)
        for s in range(layout.square.n_sites):
            for color in (BLACK, WHITE):
                assert z_op_from_majoranas(layout, s, color) == \
                    z_op(layout, s, color)

    def test_printed_order_flips_sign_on_white_sites(self):
        # i * chi * psi gives -Z on white sites; the per-color ordering
        # in z_op_from_majoranas exists precisely to absorb that sign.
        layout = build_layout(1, 2)
        psi = majorana_op(layout, 0, UP, WHITE)
        chi = majorana_op(layout, 0, DOWN, WHITE)
        printed = multiply(chi, psi).times_i()
        direct = z_op(layout, 0, WHITE)
        assert printed.z_mask == direct.z_mask
        assert printed.phase_exp == (direct.phase_exp + 2) % 4

    def test_diagonal(self):
        layout = build_layout(2, 2)
        op = z_op(layout, 3, BLACK)
        assert op.x_mask == 0

    def test_invalid_site(self):
        layout = build_layout(2, 2)
        with pytest.raises(ValueError):
            z_op(layout, 9, BLACK)


class TestXString:
    def test_lowest_rank_site_is_bare_head(self):
        layout = build_layout(2, 3)
        s0 = layout.site(0)
        op = x_string_op(layout, s0.square_site, s0.color)
        assert op.weight() == 1

    def test_compiles_to_single_site_x(self):
        layout = build_layout(2, 3)
        for s in range(layout.square.n_sites):
            for color in (BLACK, WHITE):
                op = x_string_op(layout, s, color)
                rank = layout.rank(s, color)
                assert op == PauliString.single(layout.n_sites, rank, "X",
                                                rep="honeycomb_spin")

    def test_square_is_identity_up_to_tracked_sign(self):
        layout = build_layout(2, 2)
        for s in range(4):
            for color in (BLACK, WHITE):
                op = x_string_op(layout, s, color)
                sq = multiply(op, op)
                assert sq.is_identity_mask() and sq.phase_exp in (0, 2)

    def test_effective_pauli_honeycomb(self):
        layout = build_layout(2, 3)
        pairs = [(s, c) for s in range(6) for c in (BLACK, WHITE)]
        for s1, c1 in pairs:
            x1 = x_string_op(layout, s1, c1)
            for s2, c2 in pairs:
                z2 = z_op(layout, s2, c2)
                same = (s1, c1) == (s2, c2)
                assert commutes(x1, z2) != same


class TestDeviceRepresentation:
    def test_z_touches_exactly_the_site_pair(self):
        layout = build_layout(2, 3)
        for s in range(6):
            for color in (BLACK, WHITE):
                op = z_op_device(layout, s, color)
                assert set(op.sites()) == {device_qubit(s, "a"),
                                           device_qubit(s, "b")}

    def test_z_letter_assignment(self):
        layout = build_layout(1, 2)
        assert z_op_device(layout, 0, WHITE).letter(0) == "X"
        assert z_op_device(layout, 0, BLACK).letter(0) == "Y"

    def test_x_string_square_tracks_tail_parity(self):
        layout = build_layout(1, 3)
        for s in range(3):
            for color in (BLACK, WHITE):
                rank = layout.rank(s, color)
                op = x_string_device(layout, s, color)
                sq = multiply(op, op)
                assert sq.is_identity_mask()
                assert sq.phase_exp == (2 * rank) % 4  # (-1)**tail_length

    def test_effective_pauli_device(self):
        layout = build_layout(2, 2)
        pairs = [(s, c) for s in range(4) for c in (BLACK, WHITE)]
        for s1, c1 in pairs:
            x1 = x_string_device(layout, s1, c1)
            for s2, c2 in pairs:
                z2 = z_op_device(layout, s2, c2)
                same = (s1, c1) == (s2, c2)
                assert commutes(x1, z2) != same

    def test_reps_do_not_mix(self):
        layout = build_layout(1, 2)
        from semionlab.errors import RepresentationError
        with pytest.raises(RepresentationError):
            multiply(z_op(layout, 0, BLACK), z_op_device(layout, 0, BLACK))


def test_link_zz_commutes_with_all_stabilizers():
    layout = build_layout(3, 3)
    zz = [link_zz_op(layout, s) for s in range(9)]
    stabs = [w for p in layout.bond_plaquettes for w in (p.up, p.down)]
    for a in zz:
        for b in stabs + zz:
            assert commutes(a, b)
