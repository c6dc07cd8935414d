"""State engine: reference state, stabilizer projection, expectations."""

import numpy as np
import pytest

from semionlab.errors import (
    DimensionMismatchError,
    ZeroProjectionError,
)
from semionlab.hamiltonian import build_spin_hamiltonian, spectrum
from semionlab.lattice import BLACK, WHITE, build_layout
from semionlab.operators import link_zz_op, z_op
from semionlab.pauli import PauliString, apply_to_amplitudes
from semionlab.states import (
    StateVector,
    apply_pauli,
    basis_state,
    energy_moments,
    expectation,
    overlap,
    project_ground,
    random_state,
    reference_state,
)


class TestReferenceState:
    def test_every_site_z_is_plus_one(self):
        layout = build_layout(2, 3)
        ref = reference_state(layout)
        for s in range(layout.square.n_sites):
            for color in (BLACK, WHITE):
                assert expectation(ref, z_op(layout, s, color)).real == \
                    pytest.approx(1.0)

    def test_norm_one(self):
        ref = reference_state(build_layout(1, 2))
        assert ref.norm() == pytest.approx(1.0)

    def test_plaquette_expectations_vanish(self):
        # recorded behaviour: the raw reference state carries no flux
        # information, every plaquette operator flips spins on it
        layout = build_layout(2, 3)
        ref = reference_state(layout)
        for plq in layout.bond_plaquettes:
            for w in (plq.up, plq.down):
                val = expectation(ref, w)
                assert abs(val) < 1e-14


class TestProjectGround:
    def test_all_plaquette_expectations_plus_one(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout)
        for plq in layout.bond_plaquettes:
            for w in (plq.up, plq.down):
                val = expectation(ground, w)
                assert abs(val.real - 1.0) < 1e-12

    def test_link_zz_sector_preserved(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout)
        for s in range(layout.square.n_sites):
            assert expectation(ground, link_zz_op(layout, s)).real == \
                pytest.approx(1.0, abs=1e-12)

    def test_energy_is_minimum_with_zero_variance(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout)
        ham = build_spin_hamiltonian(layout, 1.0, 1.0, 1.0)
        energy, variance = energy_moments(ground, ham)
        eig = spectrum(ham)
        assert abs(energy - eig[0]) < 1e-10
        assert variance < 1e-10

    def test_projection_idempotent(self):
        layout = build_layout(1, 3)
        ground = project_ground(layout)
        amps = ground.blocks()
        for plq in layout.bond_plaquettes:
            for op in (plq.up, plq.down):
                amps = 0.5 * (amps + apply_to_amplitudes(op, amps))
        again = StateVector(layout.n_sites, 1, amps.ravel())
        fidelity = abs(overlap(ground, again.normalized()))
        assert fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cavity_dim", [2, 3])
    def test_cavity_ground_fills_only_the_zero_photon_block(self, cavity_dim):
        layout = build_layout(2, 3)
        qubits = project_ground(layout).amplitudes
        blocks = project_ground(layout, cavity_dim).blocks()
        assert np.array_equal(blocks[0], qubits)
        assert not np.any(blocks[1:])

    def test_contradictory_projection_raises(self):
        # projecting onto both signs of the same stabilizer must
        # annihilate the state and be reported, not silently normalized
        layout = build_layout(1, 2)
        state = reference_state(layout)
        op = link_zz_op(layout, 0)
        amps = state.blocks()
        amps = amps - apply_to_amplitudes(op, amps)  # (1 - ZZ) on ZZ=+1
        flat = StateVector(layout.n_sites, 1, amps.ravel())
        with pytest.raises(ZeroProjectionError):
            flat.normalized()


class TestExpectationAndOverlap:
    def test_z_on_zero_state(self):
        st = basis_state(1, bits=0)
        assert expectation(st, PauliString.single(1, 0, "Z")).real == 1.0

    def test_x_on_plus_state(self):
        st = StateVector(1, 1, np.array([1, 1]) / np.sqrt(2))
        assert expectation(st, PauliString.single(1, 0, "X")).real == \
            pytest.approx(1.0)

    def test_orthogonal_basis_states(self):
        assert overlap(basis_state(2, 1), basis_state(2, 2)) == 0

    def test_pauli_eigenstate_unit_overlap(self):
        rng = np.random.default_rng(4)
        st = StateVector(2, 1, np.array([1, 0, 0, 1]) / np.sqrt(2))
        xx = PauliString.from_letters(2, {0: "X", 1: "X"})
        assert abs(overlap(st, apply_pauli(st, xx))) == pytest.approx(1.0)

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            overlap(basis_state(2), basis_state(3))
        with pytest.raises(DimensionMismatchError):
            apply_pauli(basis_state(2), PauliString.single(3, 0, "X"))


class TestStateVectorBasics:
    def test_cavity_major_indexing(self):
        st = basis_state(2, bits=3, cavity_dim=2, cavity_level=1)
        assert st.amplitudes[1 * 4 + 3] == 1.0

    def test_random_state_normalized(self):
        st = random_state(5, cavity_dim=2, rng=np.random.default_rng(0))
        assert st.norm() == pytest.approx(1.0)

    def test_fixed_phase_makes_leading_amp_real(self):
        st = StateVector(1, 1, np.array([0.3j, 0.9j])).normalized()
        fixed = st.with_fixed_phase()
        k = int(np.argmax(np.abs(fixed.amplitudes)))
        assert fixed.amplitudes[k].imag == pytest.approx(0.0)
        assert fixed.amplitudes[k].real > 0

    def test_snapshot_table(self):
        st = basis_state(2, bits=2)
        assert st.to_table() == [(2, 1.0, 0.0)]

    def test_norm_preserved_under_pauli(self):
        rng = np.random.default_rng(8)
        st = random_state(6, rng=rng)
        op = PauliString(6, 37, 11, 1)
        assert apply_pauli(st, op).norm() == pytest.approx(1.0, abs=1e-14)

    def test_dense_capacity_guard(self):
        from semionlab.errors import CapacityError
        with pytest.raises(CapacityError):
            basis_state(30)
