"""Hamiltonian builders against the diagonal enumeration oracle."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from semionlab.errors import CapacityError, RepresentationError
from semionlab.hamiltonian import (
    REL,
    DiagonalOracle,
    HamiltonianTerms,
    _energies_agree,
    build_device_hamiltonian,
    _levels,
    build_spin_hamiltonian,
    dense_matrix,
    predicted_ground_degeneracy,
    spectrum,
)
from semionlab.lattice import build_layout
from semionlab.operators import REP_DEVICE, REP_HONEYCOMB
from semionlab.pauli import (
    PauliString,
    _echelon,
    _z_signs,
    commutes,
    multiply_all,
)


class TestFermionOracle:
    def test_hand_value_on_one_bond(self):
        layout = build_layout(1, 2)
        oracle = DiagonalOracle(layout, 1.0, 1.0, 1.0)
        # all occupied: both bond products +1, both on-site products +1
        assert oracle.energy(0b11, 0b11) == pytest.approx(-1 - 1 + 2)

    def test_flipping_all_up_occupations_keeps_bond_term(self):
        layout = build_layout(2, 3)
        rng = np.random.default_rng(2)
        oracle_j = DiagonalOracle(layout, 1.3, 0.0, 0.0)
        full = (1 << 6) - 1
        for _ in range(20):
            up = int(rng.integers(0, 1 << 6))
            dn = int(rng.integers(0, 1 << 6))
            assert oracle_j.energy(up, dn) == \
                pytest.approx(oracle_j.energy(up ^ full, dn))

    def test_flipping_one_species_flips_on_site_term(self):
        layout = build_layout(1, 2)
        oracle_u = DiagonalOracle(layout, 0.0, 0.0, 0.7)
        full = 0b11
        assert oracle_u.energy(0b01, 0b01) == \
            pytest.approx(-oracle_u.energy(0b01 ^ full, 0b01))

    def test_enumeration_matches_pointwise_evaluation(self):
        layout = build_layout(2, 2)
        oracle = DiagonalOracle(layout, 0.9, 1.4, 0.6)
        energies = oracle.enumerate_energies()
        n = layout.square.n_sites
        for bits in range(1 << (2 * n)):
            up, dn = bits & ((1 << n) - 1), bits >> n
            assert energies[up * (1 << n) + dn] == \
                pytest.approx(oracle.energy(up, dn))

    @pytest.mark.parametrize("dims, draws", [((1, 4), 4), ((2, 3), 4),
                                             ((3, 2), 3), ((2, 4), 2),
                                             ((3, 3), 1), ((3, 4), 1)])
    def test_cross_term_bit_identical_to_popcount(self, dims, draws):
        # reference: the cross term as n - 2 * popcount(up ^ down), the
        # energies rebuilt one block of up rows at a time (a 3x4 block
        # is 16 MB) and compared bit for bit
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        layout = build_layout(*dims)
        n = layout.square.n_sites
        dim = 1 << n
        configs = np.arange(dim, dtype=np.uint64)
        signs = np.where((configs[:, None] >> np.arange(
            n, dtype=np.uint64)) & np.uint64(1), 1.0, -1.0)
        bond_e = np.zeros(dim)
        for i, j in layout.square.bonds:
            bond_e += signs[:, i] * signs[:, j]
        for _ in range(draws):
            j_up, j_down, u = rng.uniform(-2, 2, 3)
            energies = DiagonalOracle(layout, j_up, j_down, u) \
                .enumerate_energies().reshape(dim, dim)
            for lo in range(0, dim, 512):
                up = configs[lo:lo + 512]
                agree = n - 2 * np.bitwise_count(
                    up[:, None] ^ configs[None, :]).astype(np.int64)
                want = (-j_up * bond_e[lo:lo + 512, None]
                        - j_down * bond_e[None, :] + u * agree)
                assert np.array_equal(energies[lo:lo + 512].view(np.int64),
                                      want.view(np.int64))

    @pytest.mark.parametrize("dims", [(3, 3), (2, 4)])
    def test_enumeration_peaks_near_twice_its_result(self, dims):
        # the result and the cross term, plus numpy's iterator buffers of
        # the broadcast (64 KiB per broadcast operand, at any size)
        oracle = DiagonalOracle(build_layout(*dims), 0.9, -1.4, 0.6)
        tracemalloc.start()
        try:
            energies = oracle.enumerate_energies()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * energies.nbytes + (256 << 10)

    def test_device_diagonal_matches_oracle(self):
        # two independent constructions of the same model
        layout = build_layout(2, 2)
        j_up, j_down, u = 0.8, 1.1, 0.5
        oracle = DiagonalOracle(layout, j_up, j_down, u)
        ham = build_device_hamiltonian(layout, j_up, j_down, u)
        mat = dense_matrix(ham)
        assert np.allclose(mat, np.diag(np.diag(mat)))
        diag = np.diag(mat)
        n = layout.square.n_sites
        for idx in range(1 << (2 * n)):
            up = dn = 0
            for site in range(n):
                # qubit bit 0 means occupied (Z eigenvalue +1)
                if not (idx >> (2 * site)) & 1:
                    up |= 1 << site
                if not (idx >> (2 * site + 1)) & 1:
                    dn |= 1 << site
            assert diag[idx] == pytest.approx(oracle.energy(up, dn))


class TestSpinHamiltonian:
    def test_term_count_includes_boundary_bond_terms(self):
        # Boundary bonds keep their truncated plaquette operators; on the
        # smallest lattice that is 1 + 1 + 2 terms.  Dropping them would
        # break the spectrum equivalence asserted below.
        layout = build_layout(1, 2)
        ham = build_spin_hamiltonian(layout, 1, 1, 1)
        assert len(ham.terms) == 4
        weights = sorted(op.weight() for _, op in ham.terms)
        assert weights == [2, 2, 4, 4]

    def test_all_terms_commute(self):
        layout = build_layout(2, 3)
        ham = build_spin_hamiltonian(layout, 1.0, 2.0, 3.0)
        assert ham.all_terms_commute()

    def test_one_anticommuting_pair_is_found(self):
        # ZZ and XX share two sites and commute; only (ZZ, XI) anticommutes
        zz = PauliString.from_letters(2, {0: "Z", 1: "Z"})
        xx = PauliString.from_letters(2, {0: "X", 1: "X"})
        xi = PauliString.single(2, 0, "X")
        ham = HamiltonianTerms(2, ((1.0, zz), (1.0, xx), (1.0, xi)))
        assert not ham.all_terms_commute()
        assert HamiltonianTerms(2, ((1.0, zz), (1.0, xx))) \
            .all_terms_commute()

    def test_y_sites_meet_only_earlier_terms(self):
        # a term's own X and Z halves meet on its Y sites and do not
        # count: Y commutes with itself and with another Y there, not
        # with an X or a Z, in either order
        y = PauliString.single(2, 0, "Y")
        assert HamiltonianTerms(2, ((1.0, y),)).all_terms_commute()
        for letter, want in (("Y", True), ("X", False), ("Z", False)):
            op = PauliString.single(2, 0, letter)
            for pair in ((y, op), (op, y)):
                ham = HamiltonianTerms(2, tuple((1.0, t) for t in pair))
                assert ham.all_terms_commute() is want

    def test_rep_is_the_tag_of_the_terms(self):
        assert [f.name for f in dataclasses.fields(HamiltonianTerms)] == \
            ["n_sites", "terms"]
        z0 = PauliString.single(2, 0, "Z")
        z1 = PauliString.single(2, 1, "Z", "device")
        assert HamiltonianTerms(2, ()).rep is None
        assert HamiltonianTerms(2, ((1.0, z0),)).rep is None
        assert HamiltonianTerms(2, ((1.0, z0), (1.0, z1))).rep == "device"
        layout = build_layout(1, 2)
        assert build_spin_hamiltonian(layout, 1, 1, 1).rep == REP_HONEYCOMB
        assert build_device_hamiltonian(layout, 1, 1, 1).rep == REP_DEVICE

    def test_mixed_representation_tags_raise(self):
        terms = ((1.0, PauliString.single(2, 0, "Z")),
                 (1.0, PauliString.single(2, 1, "Z", "honeycomb_spin")),
                 (1.0, PauliString.single(2, 0, "Z", "honeycomb_spin")),
                 (1.0, PauliString.single(2, 1, "Z", "device")))
        with pytest.raises(RepresentationError,
                           match="'honeycomb_spin' and 'device'"):
            HamiltonianTerms(2, terms)

    def test_zz_only_spectrum(self):
        layout = build_layout(1, 3)
        u = 1.7
        ham = build_spin_hamiltonian(layout, 0.0, 0.0, u)
        eig = spectrum(ham)
        want = []
        for signs in itertools.product((1, -1), repeat=3):
            want.extend([-u * sum(signs)] * (1 << 3))
        assert np.allclose(eig, np.sort(want))

    def test_identity_only_hamiltonian(self):
        ham = HamiltonianTerms(3, ((2.5, PauliString.identity(3)),))
        assert np.allclose(spectrum(ham), 2.5)

    def test_zero_couplings_all_zero(self):
        layout = build_layout(1, 3)
        ham = build_spin_hamiltonian(layout, 0, 0, 0)
        assert np.allclose(spectrum(ham), 0.0)


@st.composite
def _near_commuting_terms(draw):
    """Terms on up to 100 sites with no or exactly one anticommuting pair.

    Z-type masks all commute; the optional extra term is X on one site
    that only the first mask covers, so it anticommutes with that term
    alone.  Random Hadamards and CNOTs then scramble every term alike,
    which keeps each pair's commutation.  Tags are drawn per term,
    with one other tag in half the lists.
    """
    n = draw(st.integers(1, 100))
    site = draw(st.integers(0, n - 1))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1,
                          max_size=12))
    masks = [masks[0] | 1 << site] + [m & ~(1 << site) for m in masks[1:]]
    pairs = [(0, m) for m in masks]
    extra = draw(st.booleans())
    if extra:
        pairs.insert(draw(st.integers(1, len(pairs))), (1 << site, 0))
    hadamard = draw(st.integers(0, (1 << n) - 1))
    pairs = [((x & ~hadamard) | (z & hadamard),
              (z & ~hadamard) | (x & hadamard)) for x, z in pairs]
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)),
                              max_size=3 * n)):
        if a != b:
            # CNOT a -> b: X on a spreads to b, Z on b spreads to a
            pairs = [(x ^ (x >> a & 1) << b, z ^ (z >> b & 1) << a)
                     for x, z in pairs]
    reps = draw(st.lists(st.sampled_from([None, "a"]),
                         min_size=len(pairs), max_size=len(pairs)))
    if draw(st.booleans()):
        reps[draw(st.integers(0, len(reps) - 1))] = "b"
    return n, int(extra), [PauliString(n, x, z, (x & z).bit_count() % 2, rep)
                           for (x, z), rep in zip(pairs, reps)]


class TestCommutationTable:
    @settings(max_examples=200, deadline=None)
    @given(drawn=_near_commuting_terms())
    def test_matches_pairwise_reference(self, drawn):
        n, pairs, ops = drawn
        terms = tuple((1.0, op) for op in ops)
        if len({op.rep for op in ops} - {None}) > 1:
            with pytest.raises(RepresentationError):
                HamiltonianTerms(n, terms)
            return
        ham = HamiltonianTerms(n, terms)
        odd = [(p, q) for p, q in itertools.combinations(ops, 2)
               if not commutes(p, q)]
        assert len(odd) == pairs
        assert ham.all_terms_commute() == (not odd)


class TestMappingEquivalence:
    @pytest.mark.parametrize("dims",
                             [(1, 2), (1, 4), (2, 2), (2, 3), (3, 3)])
    def test_spectrum_matches_oracle_multiset(self, dims):
        layout = build_layout(*dims)
        rng = np.random.default_rng(sum(dims))
        for _ in range(3):
            j_up, j_down, u = rng.uniform(-1.5, 1.5, 3)
            ham = build_spin_hamiltonian(layout, j_up, j_down, u)
            eig = spectrum(ham)
            orc = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
            assert np.max(np.abs(eig - orc)) < 1e-10

    def test_dense_matrix_hermitian_exactly(self):
        layout = build_layout(2, 2)
        mat = dense_matrix(build_spin_hamiltonian(layout, 1.1, 0.7, 0.3))
        assert np.array_equal(mat, mat.T.conj())

    @pytest.mark.parametrize("dims", [(1, 4), (2, 3)])
    def test_plain_dense_path_matches_oracle(self, dims):
        # the full-matrix solve keeps its own check against the oracle,
        # independent of the tableau that spectrum() uses
        layout = build_layout(*dims)
        j_up, j_down, u = 0.9, 1.6, 0.7
        ham = build_spin_hamiltonian(layout, j_up, j_down, u)
        eig = scipy.linalg.eigvalsh(dense_matrix(ham))
        orc = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
        assert np.max(np.abs(eig - orc)) < 1e-10

    def test_capacity_error(self):
        layout = build_layout(1, 13)  # 26 sites
        ham = build_spin_hamiltonian(layout, 1, 1, 1)
        with pytest.raises(CapacityError):
            spectrum(ham)

    def test_sector_spectrum_at_2x4_matches_oracle(self):
        layout = build_layout(2, 4)
        j_up, j_down, u = 0.9, 1.6, 0.7
        eig = spectrum(build_spin_hamiltonian(layout, j_up, j_down, u))
        orc = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
        assert np.max(np.abs(eig - orc)) < 1e-10


def _terms(n: int, *pairs) -> HamiltonianTerms:
    return HamiltonianTerms(n, tuple(
        (coeff, PauliString.parse(text)) for coeff, text in pairs))


def _dense_spectrum(ham: HamiltonianTerms) -> np.ndarray:
    return scipy.linalg.eigvalsh(dense_matrix(ham))


class TestTableauSpectrum:
    def test_dependent_term_takes_the_product_sign(self):
        # YY = -(XX)(ZZ): the third term is not a free sign
        ham = _terms(2, (1.0, "XX"), (1.0, "ZZ"), (1.0, "YY"))
        assert np.array_equal(spectrum(ham), [-3.0, 1.0, 1.0, 1.0])
        assert np.max(np.abs(spectrum(ham) - _dense_spectrum(ham))) < 1e-12

    def test_y_and_complex_phase_terms_match_dense(self):
        # Y X and X Y terms have odd phase exponents, so the dense matrix
        # is complex; Y X X Y and the minus identity depend on the rest
        ham = _terms(4, (0.7, "ZZII"), (1.1, "YXII"), (-0.6, "XYII"),
                     (0.4, "IIZZ"), (0.9, "IIXY"), (-0.3, "- IIYX"),
                     (0.5, "YXXY"), (0.2, "- IIII"))
        assert np.max(np.abs(spectrum(ham) - _dense_spectrum(ham))) < 1e-12

    def test_fully_diagonal_device_hamiltonian_matches_dense(self):
        layout = build_layout(2, 2)
        ham = build_device_hamiltonian(layout, 0.8, 1.1, 0.5)
        assert np.max(np.abs(spectrum(ham) - _dense_spectrum(ham))) < 1e-10

    def test_non_commuting_list_raises(self):
        ham = _terms(1, (1.0, "X"), (1.0, "Z"))
        with pytest.raises(ValueError, match="dense_matrix"):
            spectrum(ham)

    @pytest.mark.parametrize("dims, draws", [((1, 4), 4), ((2, 3), 4),
                                             ((3, 2), 3), ((2, 4), 2),
                                             ((3, 3), 1), ((3, 4), 1)])
    def test_levels_bit_identical_to_per_term_signs(self, dims, draws):
        # the per-term loop the tableau levels once were: a fresh sign
        # array of every pattern for each term, added in term order
        rng = np.random.default_rng(dims[0] * 10 + dims[1])
        layout = build_layout(*dims)
        for _ in range(draws):
            ham = build_spin_hamiltonian(layout, *rng.uniform(-2, 2, 3))
            rows, levels = _levels(ham)
            n = ham.n_sites
            _, deps = _echelon(op.x_mask << n | op.z_mask
                               for _, op in ham.terms)
            gens = []
            expected = np.zeros(1 << len(rows))
            for (coeff, op), dep in zip(ham.terms, deps):
                if dep is None:
                    dep = 1 << len(gens)
                    gens.append(op)
                elif multiply_all([op, *(g for k, g in enumerate(gens)
                                         if dep >> k & 1)]).phase_exp == 2:
                    coeff = -coeff
                expected += coeff * _z_signs(dep, len(rows))
            assert np.array_equal(levels.view(np.int64),
                                  expected.view(np.int64))


class TestGroundDegeneracy:
    def test_oracle_matches_prediction_and_ed(self):
        layout = build_layout(2, 3)
        oracle = DiagonalOracle(layout, 1.0, 1.0, 1.0)
        ham = build_spin_hamiltonian(layout, 1.0, 1.0, 1.0)
        eig = spectrum(ham)
        ed = int(np.count_nonzero(eig <= eig[0] + 1e-8))
        predicted = predicted_ground_degeneracy(layout, 1.0, 1.0, 1.0)
        assert oracle.ground_degeneracy() == ed == predicted == 4

    def test_decoupled_species_prediction(self):
        layout = build_layout(1, 3)
        oracle = DiagonalOracle(layout, 1.0, 1.0, 0.0)
        assert oracle.ground_degeneracy() == \
            predicted_ground_degeneracy(layout, 1.0, 1.0, 0.0) == 4

    def test_same_sign_couplings_match_prediction(self):
        layout = build_layout(1, 4)
        for j_up, j_down, u in ((-1, -1, 1), (-1, -1, -1), (1, 1, -1)):
            oracle = DiagonalOracle(layout, j_up, j_down, u)
            assert oracle.ground_degeneracy() == \
                predicted_ground_degeneracy(layout, j_up, j_down, u) == 2

    def test_mixed_sign_couplings_are_frustrated(self):
        # the on-site lock cannot be satisfied along a chain whose two
        # species want different pattern types; enumeration shows the
        # larger frustrated manifold and the prediction refuses to apply
        layout = build_layout(1, 4)
        oracle = DiagonalOracle(layout, -1.0, 1.0, 1.0)
        assert oracle.ground_degeneracy() == 12
        with pytest.raises(ValueError):
            predicted_ground_degeneracy(layout, -1.0, 1.0, 1.0)


class TestEnergyWindow:
    def test_no_looser_than_the_absolute_windows_at_unit_couplings(self):
        # at couplings in [0.2, 2] up to 3x4, S is at most 60
        ham = build_spin_hamiltonian(build_layout(3, 4), 2.0, -2.0, 2.0)
        assert ham.scale == 60.0
        assert REL * 60 <= 1e-10

    @pytest.mark.parametrize("dims", [(1, 2), (2, 3), (3, 4)])
    def test_oracle_scale_is_the_spin_scale(self, dims):
        layout = build_layout(*dims)
        couplings = (-0.7, 1.3e-9, -2.5e4)
        assert DiagonalOracle(layout, *couplings).scale == pytest.approx(
            build_spin_hamiltonian(layout, *couplings).scale, rel=1e-15)

    def test_window_is_relative_and_closed(self):
        assert _energies_agree(1.0 + 1e-12, 1.0, 1.0)
        assert not _energies_agree(1.0 + 2e-12, 1.0, 1.0)
        assert _energies_agree(1e-30 + 1e-42, 1e-30, 1e-30)
        assert not _energies_agree(1e-30 + 2e-42, 1e-30, 1e-30)
        # zero couplings: only an exact match agrees
        assert _energies_agree(0.0, 0.0, 0.0)
        assert not _energies_agree(5e-324, 0.0, 0.0)
        levels = np.array([-2.0, -2.0 + 1e-13, -2.0 + 1e-11, 1.0])
        assert _energies_agree(levels, -2.0, 2.0).tolist() == \
            [True, True, False, False]

    def test_scale_overflow_raises(self):
        ham = build_spin_hamiltonian(build_layout(1, 2), 1e308, 1e308, 0.0)
        with pytest.raises(OverflowError):
            ham.scale


def test_non_hermitian_term_rejected():
    bad = PauliString.single(2, 0, "Z").times_i()
    with pytest.raises(ValueError):
        HamiltonianTerms(2, ((1.0, bad),))
