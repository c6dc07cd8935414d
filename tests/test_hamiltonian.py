"""Hamiltonian builders against the diagonal enumeration oracle."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from semionlab.errors import CapacityError
from semionlab.hamiltonian import (
    DiagonalOracle,
    HamiltonianTerms,
    _z_sectors,
    build_device_hamiltonian,
    build_spin_hamiltonian,
    dense_matrix,
    predicted_ground_degeneracy,
    spectrum,
)
from semionlab.lattice import build_layout
from semionlab.pauli import PauliString


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
        ham = HamiltonianTerms("honeycomb_spin", 3,
                               ((2.5, PauliString.identity(3)),))
        assert np.allclose(spectrum(ham), 2.5)

    def test_zero_couplings_all_zero(self):
        layout = build_layout(1, 3)
        ham = build_spin_hamiltonian(layout, 0, 0, 0)
        assert np.allclose(spectrum(ham), 0.0)


class TestMappingEquivalence:
    @pytest.mark.parametrize("dims", [(1, 2), (1, 4), (2, 2)])
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

    def test_iterative_path_matches_dense(self):
        # the iterative path returns true eigenvalues with a reliable
        # minimum; multiplicity resolution is a dense-path guarantee
        layout = build_layout(1, 4)
        ham = build_spin_hamiltonian(layout, 1.0, 0.8, 1.2)
        dense = spectrum(ham)
        lanczos = spectrum(ham, k=4)
        assert abs(lanczos[0] - dense[0]) < 1e-7
        for val in lanczos:
            assert np.min(np.abs(dense - val)) < 1e-7

    @pytest.mark.parametrize("dims", [(1, 4), (2, 3)])
    def test_plain_dense_path_matches_oracle(self, dims):
        # the full-matrix solve keeps its own check against the oracle,
        # independent of the sector split that spectrum() uses
        layout = build_layout(*dims)
        j_up, j_down, u = 0.9, 1.6, 0.7
        ham = build_spin_hamiltonian(layout, j_up, j_down, u)
        eig = scipy.linalg.eigvalsh(dense_matrix(ham))
        orc = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
        assert np.max(np.abs(eig - orc)) < 1e-10

    def test_capacity_error(self):
        layout = build_layout(3, 3)  # 18 sites
        ham = build_spin_hamiltonian(layout, 1, 1, 1)
        with pytest.raises(CapacityError):
            spectrum(ham)

    def test_sector_spectrum_at_2x4_matches_oracle(self):
        # 256 blocks of 256: exactly the dense budget in block entries
        layout = build_layout(2, 4)
        j_up, j_down, u = 0.9, 1.6, 0.7
        eig = spectrum(build_spin_hamiltonian(layout, j_up, j_down, u))
        orc = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
        assert np.max(np.abs(eig - orc)) < 1e-10


def _terms(n: int, *pairs) -> HamiltonianTerms:
    return HamiltonianTerms("honeycomb_spin", n, tuple(
        (coeff, PauliString.parse(text)) for coeff, text in pairs))


def _dense_spectrum(ham: HamiltonianTerms) -> np.ndarray:
    return scipy.linalg.eigvalsh(dense_matrix(ham))


class TestSectorSpectrum:
    def test_spin_hamiltonian_splits_by_link_signs(self):
        # six link ZZ terms at 2x3: 64 sectors of 64 states
        layout = build_layout(2, 3)
        ham = build_spin_hamiltonian(layout, 1.0, 0.8, 1.2)
        assert [s.size for s in _z_sectors(ham)] == [64] * 64

    def test_y_and_complex_phase_terms_match_dense(self):
        # Y X and X Y terms have odd phase exponents, so the blocks are
        # complex; Z0 anticommutes with Y0 X1 and must not label sectors
        ham = _terms(4, (0.7, "ZZII"), (0.4, "IIZZ"), (1.1, "YXII"),
                     (-0.6, "IIXY"), (0.5, "YXXX"), (0.3, "ZIII"),
                     (-0.8, "- YYII"))
        assert len(_z_sectors(ham)) == 4
        assert np.max(np.abs(spectrum(ham) - _dense_spectrum(ham))) < 1e-10

    def test_fully_diagonal_device_hamiltonian_matches_dense(self):
        layout = build_layout(2, 2)
        ham = build_device_hamiltonian(layout, 0.8, 1.1, 0.5)
        assert len(_z_sectors(ham)) > 1
        assert np.max(np.abs(spectrum(ham) - _dense_spectrum(ham))) < 1e-10

    def test_no_z_only_term_is_one_block(self):
        ham = _terms(3, (0.9, "XXI"), (-0.4, "IYY"), (0.6, "YIX"),
                     (1.3, "XZY"))
        assert len(_z_sectors(ham)) == 1
        assert np.max(np.abs(spectrum(ham) - _dense_spectrum(ham))) < 1e-10

    def test_non_commuting_z_term_is_not_a_label(self):
        ham = _terms(1, (1.0, "X"), (1.0, "Z"))
        assert np.allclose(spectrum(ham), [-np.sqrt(2), np.sqrt(2)],
                           atol=1e-14)


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


def test_term_list_text_round_trip():
    layout = build_layout(1, 2)
    ham = build_spin_hamiltonian(layout, 1.25, -0.5, 0.75)
    back = HamiltonianTerms.from_text(ham.to_text())
    assert back.rep == ham.rep and back.n_sites == ham.n_sites
    for (c1, p1), (c2, p2) in zip(ham.terms, back.terms):
        assert c1 == c2
        assert (p1.x_mask, p1.z_mask, p1.phase_exp) == \
            (p2.x_mask, p2.z_mask, p2.phase_exp)


def test_non_hermitian_term_rejected():
    bad = PauliString.single(2, 0, "Z").times_i()
    with pytest.raises(ValueError):
        HamiltonianTerms("honeycomb_spin", 2, ((1.0, bad),))
