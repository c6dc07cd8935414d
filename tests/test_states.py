"""State engine: reference state, stabilizer projection, expectations."""

import copy
import dataclasses
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import semionlab

from semionlab.errors import (
    CapacityError,
    DimensionMismatchError,
    ZeroProjectionError,
)
from semionlab.anyons import (
    QndParams,
    StringSpec,
    braid_phase,
    braid_phase_on_state,
    interferometry_run,
    predicted_flips,
    qnd_unitary,
    vortex_map,
)
from semionlab.hamiltonian import (
    REL,
    DiagonalOracle,
    HamiltonianTerms,
    build_spin_hamiltonian,
    ground_sector,
    spectrum,
)
from semionlab.lattice import BLACK, DOWN, UP, WHITE, build_layout
from semionlab.operators import REP_HONEYCOMB, link_zz_op, z_op
from semionlab.pauli import (
    PauliString,
    _gf2_reduce,
    apply_pauli_sum,
    multiply,
)
from semionlab.states import (
    StateVector,
    apply_pauli,
    basis_state,
    energy_moments,
    expectation,
    expectations,
    overlap,
    project_ground,
    random_state,
)


class TestReferenceState:
    def test_every_site_z_is_plus_one(self):
        layout = build_layout(2, 3)
        ref = basis_state(layout.n_sites)
        for s in range(layout.square.n_sites):
            for color in (BLACK, WHITE):
                assert expectation(ref, z_op(layout, s, color)).real == \
                    pytest.approx(1.0)

    def test_norm_one(self):
        ref = basis_state(build_layout(1, 2).n_sites)
        assert ref.norm() == pytest.approx(1.0)

    def test_plaquette_expectations_vanish(self):
        # recorded behaviour: the raw reference state carries no flux
        # information, every plaquette operator flips spins on it
        layout = build_layout(2, 3)
        ref = basis_state(layout.n_sites)
        for plq in layout.bond_plaquettes:
            for w in (plq.up, plq.down):
                val = expectation(ref, w)
                assert abs(val) < 1e-14


def _reference_ground(layout, cavity_dim=1):
    """``(1 + W)`` over the full register for every plaquette stabilizer.

    The projection loop that :func:`project_ground` is held to: up, then
    down, per bond plaquette, then the normalized, phase-fixed qubit
    state in the zero-photon block.
    """
    amps = basis_state(layout.n_sites).amplitudes
    for plq in layout.bond_plaquettes:
        for op in (plq.up, plq.down):
            amps = amps + apply_pauli_sum([(1, op)], layout.n_sites, amps)
    qubits = StateVector(layout.n_sites, 1, amps).normalized()
    out = np.zeros(cavity_dim * amps.size, dtype=complex)
    out[:amps.size] = qubits.with_fixed_phase().amplitudes
    return out


def _with_down(layout, index, down):
    """Copy of ``layout`` whose plaquette ``index`` has another ``down``."""
    altered = copy.copy(layout)
    altered.bond_plaquettes = list(layout.bond_plaquettes)
    altered.bond_plaquettes[index] = dataclasses.replace(
        layout.bond_plaquettes[index], down=down)
    return altered


class TestProjectGround:
    @pytest.mark.parametrize("cavity_dim", [1, 2, 3])
    @pytest.mark.parametrize("shape", [(1, 2), (1, 4), (2, 2), (2, 3),
                                       (3, 2), (2, 4), (3, 3), (2, 5)])
    def test_equals_full_register_projection(self, shape, cavity_dim):
        layout = build_layout(*shape)
        ground = project_ground(layout, cavity_dim)
        assert np.array_equal(ground.amplitudes,
                              _reference_ground(layout, cavity_dim))

    def test_negated_dependent_stabilizer_raises(self):
        # down's x-mask is in the span of the masks before it; negated,
        # it has eigenvalue -1 on the whole support
        layout = build_layout(2, 3)
        down = layout.bond_plaquettes[2].down
        altered = _with_down(layout, 2, down.times_i(2))
        with pytest.raises(ZeroProjectionError,
                           match=r"plaquette 2 \(down\) annihilated"):
            project_ground(altered)

    def test_mixed_sign_dependent_operator_matches_reference(self):
        # Z on a site of down's own X support: the x-mask stays in the
        # span, but the operator anticommutes with up and acts with mixed
        # signs, so half of the support cancels
        layout = build_layout(2, 3)
        down = layout.bond_plaquettes[2].down
        site = (down.x_mask & -down.x_mask).bit_length() - 1
        altered = _with_down(layout, 2, multiply(
            down, PauliString.single(layout.n_sites, site, "Z")))
        ground = project_ground(altered).amplitudes
        assert np.count_nonzero(project_ground(layout).amplitudes) == 16
        assert np.count_nonzero(ground) == 8
        assert np.array_equal(ground, _reference_ground(altered))

    @pytest.mark.parametrize("cavity_dim", [1, 2])
    def test_allocates_only_the_output(self, cavity_dim):
        layout = build_layout(3, 3)
        project_ground(layout, cavity_dim)
        tracemalloc.start()
        try:
            project_ground(layout, cavity_dim)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

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
                amps = 0.5 * (amps + apply_pauli_sum([(1, op)],
                                                     layout.n_sites, amps))
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
        state = basis_state(layout.n_sites)
        op = link_zz_op(layout, 0)
        amps = state.blocks()
        # (1 - ZZ) on ZZ=+1
        amps = amps - apply_pauli_sum([(1, op)], layout.n_sites, amps)
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


def _coset_state(n, cavity_dim, rng, n_generators):
    """Random amplitudes on a random coset ``base ^ span(g_1 ... g_k)``.

    A random base and ``n_generators`` random x-masks, then one XOR of
    two of them and a zero mask, so some generators are dependent; each
    independent one doubles the coset, as in ``project_ground``.
    """
    gens = [int(g) for g in rng.integers(1 << n, size=n_generators)]
    gens += [gens[0] ^ gens[-1], 0] if gens else [0]
    index = np.array([rng.integers(1 << n)], dtype=np.int64)
    rows = []
    for g in gens:
        x, dep = _gf2_reduce(g, rows)
        if x:
            rows.append((x, dep ^ (1 << len(rows))))
            index = np.concatenate((index, index ^ g))
    size = cavity_dim * index.size
    values = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    return semionlab.states._on_support(n, cavity_dim, index, values, rows)


class TestExpectationJoin:
    @settings(max_examples=200, deadline=None)
    @given(letters=hst.lists(hst.sampled_from("IXYZ"), min_size=1,
                             max_size=5),
           phase=hst.integers(0, 3), cavity_dim=hst.integers(1, 3),
           sparse=hst.booleans(), seed=hst.integers(0, 2**32 - 1))
    def test_matches_dense_vdot(self, letters, phase, cavity_dim, sparse,
                                seed):
        # a coset that is not the whole register leaves some partners
        # t ^ x outside it
        n = len(letters)
        op = PauliString.from_letters(n, dict(enumerate(letters))).times_i(
            phase)
        rng = np.random.default_rng(seed)
        if sparse:
            state = _coset_state(n, cavity_dim, rng,
                                 int(rng.integers(0, n + 1)))
        else:
            state = random_state(n, cavity_dim, rng)
        amps = state.amplitudes
        want = np.vdot(amps, (amps.reshape(cavity_dim, -1)
                              @ op.to_matrix().T).ravel())
        assert abs(expectation(state, op) - want) < 1e-12


class TestGroupedExpectations:
    @pytest.mark.parametrize("cavity_dim", [1, 2, 3])
    def test_match_one_at_a_time(self, cavity_dim):
        rng = np.random.default_rng(20 + cavity_dim)
        layout = build_layout(2, 3)
        ops = [op for p in layout.bond_plaquettes for op in (p.up, p.down)]
        ops += [PauliString(layout.n_sites, int(rng.integers(1 << 12)),
                            int(rng.integers(1 << 12)), int(rng.integers(4)))
                for _ in range(12)]
        st = random_state(layout.n_sites, cavity_dim, rng)
        got = expectations(st, ops)
        want = [expectation(st, op) for op in ops]
        assert len(got) == len(ops)
        assert all(isinstance(v, complex) for v in got)
        assert np.max(np.abs(np.array(got) - want)) < 1e-12

    def test_empty_support_gives_zeros(self):
        # the one-photon block of a state with no photon is all zeros
        empty = semionlab.states._cavity_block(
            project_ground(build_layout(1, 2), cavity_dim=2), 1)
        assert empty.values.size == 2 and not np.any(empty.values)
        ops = [PauliString.single(4, 0, "X"), PauliString.single(4, 1, "Z"),
               build_layout(1, 2).bond_plaquettes[0].up]
        assert expectations(empty, ops) == [0j, 0j, 0j]
        assert expectation(empty, ops[1]) == 0j

    def test_non_hermitian_value_passes_through(self):
        iz = PauliString.single(1, 0, "Z").times_i()
        assert expectations(basis_state(1), [iz]) == [1j] == \
            [expectation(basis_state(1), iz)]

    def test_complex_hermitian_value_raises(self, monkeypatch):
        # a complex factor injected into the join makes the Hermitian Z
        # come out complex, which is refused; the non-Hermitian iZ passes
        factor = semionlab.states._factor
        monkeypatch.setattr(semionlab.states, "_factor",
                            lambda op, index: factor(op, index) * (1 + 1e-9j))
        z = PauliString.single(1, 0, "Z")
        with pytest.raises(AssertionError, match="came out complex"):
            expectations(basis_state(1), [z])
        assert expectations(basis_state(1), [z.times_i()]) == \
            [1j * (1 + 1e-9j)]

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            expectations(basis_state(2), [PauliString.single(3, 0, "X")])


class TestSupportAllocations:
    """On the 3x3 ground state (64 support entries of 2**18) every
    consumer works on the support; one dense vector would be 4 MiB."""

    @pytest.mark.parametrize("name", ["vortex_map", "energy_moments",
                                      "braid_phase_on_state", "expectation",
                                      "interferometry_run"])
    def test_ground_state_op_peaks_under_one_mib(self, name):
        layout = build_layout(3, 3)
        ground = project_ground(layout)
        hexagon = layout.complete_plaquettes()[0]
        loop = StringSpec.z_string(layout, hexagon)
        crossing = StringSpec.x_string(layout, [hexagon[0], 17])
        call = {
            "vortex_map": partial(vortex_map, ground, layout),
            "energy_moments": partial(
                energy_moments, ground,
                build_spin_hamiltonian(layout, 0.7, 1.3, 0.4)),
            "braid_phase_on_state": partial(braid_phase_on_state, loop,
                                            crossing, ground),
            "expectation": partial(expectation, ground, loop.operator),
            "interferometry_run": partial(interferometry_run, layout,
                                          project_ground(layout, 2), hexagon),
        }[name]
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def _sparse_state(n, cavity_dim, rng):
    """Random amplitudes on a random coset of up to 2**6 entries, in
    every block."""
    return _coset_state(n, cavity_dim, rng, min(n, 6)).normalized()


def _random_op(n, rng):
    return PauliString(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)),
                       int(rng.integers(4)))


def _dense(op, blocks):
    return apply_pauli_sum([(1, op)], op.n_sites, blocks)


@pytest.fixture(params=[(shape, cavity_dim)
                        for shape in [(1, 2), (1, 4), (2, 2), (2, 3), (3, 2),
                                      (2, 4), (3, 3), (2, 5)]
                        for cavity_dim in (1, 2, 3)],
                ids=lambda p: f"{p[0][0]}x{p[0][1]}-cavity{p[1]}")
def support_case(request):
    """A layout, a seeded generator, and three support states: the ground
    state, a Pauli string applied to it, and random sparse amplitudes."""
    shape, cavity_dim = request.param
    layout = build_layout(*shape)
    n = layout.n_sites
    rng = np.random.default_rng(100 * shape[0] + 10 * shape[1] + cavity_dim)
    ground = project_ground(layout, cavity_dim)
    states = [ground, apply_pauli(ground, _random_op(n, rng)),
              _sparse_state(n, cavity_dim, rng)]
    return layout, rng, states


class TestSupportMatchesDense:
    """The index-level operations against ``apply_pauli_sum`` on
    ``blocks()`` and ``np.vdot``, the dense reference."""

    def test_apply_pauli_is_exact(self, support_case):
        layout, rng, states = support_case
        for state in states:
            for _ in range(4):
                op = _random_op(layout.n_sites, rng)
                assert np.array_equal(apply_pauli(state, op).blocks(),
                                      _dense(op, state.blocks()))

    def test_vortex_map(self, support_case):
        layout, _, states = support_case
        ops = [(p.up, p.down) for p in layout.bond_plaquettes]
        for state in states:
            b = state.blocks()
            want = [[np.vdot(b, _dense(w, b)).real for w in pair]
                    for pair in ops]
            got = vortex_map(state, layout).values
            assert np.max(np.abs(np.array(got) - want), initial=0) < 1e-12

    def test_energy_moments(self, support_case):
        layout, rng, states = support_case
        ham = build_spin_hamiltonian(layout, *rng.uniform(0.2, 2.0, 3))
        for state in states:
            b = state.blocks()
            hv = ham.apply(b)
            energy = np.vdot(b, hv).real
            residual = hv - energy * b  # (H - <H>) state
            variance = np.vdot(residual, residual).real
            got = energy_moments(state, ham)
            assert abs(got[0] - energy) < 1e-12
            assert abs(got[1] - variance) < 1e-12

    def test_braid_phase_on_state(self, support_case):
        layout, rng, states = support_case
        n = layout.n_sites
        for _ in range(3):
            loop = StringSpec.z_string(
                layout, rng.choice(n, int(rng.integers(1, n + 1)),
                                   replace=False).tolist())
            crossing = StringSpec.x_string(
                layout, rng.choice(n, int(rng.integers(1, n + 1)),
                                   replace=False).tolist())
            for state in states:
                b = state.blocks()
                braided = _dense(loop.operator, _dense(crossing.operator, b))
                unbraided = _dense(crossing.operator, _dense(loop.operator, b))
                got = braid_phase_on_state(loop, crossing, state)
                assert abs(got - np.vdot(unbraided, braided)) < 1e-12

    def test_interferometry(self, support_case):
        layout, rng, states = support_case
        n = layout.n_sites
        sites = rng.choice(n, int(rng.integers(1, n + 1)),
                           replace=False).tolist()
        if states[0].cavity_dim < 2:
            with pytest.raises(CapacityError):
                interferometry_run(layout, states[0], sites)
            return
        gate = qnd_unitary(QndParams.canonical(1.0, sites), 1, n)
        for state in states:
            q = state.blocks()[0]
            q = q / np.linalg.norm(q)
            coherence = np.vdot(q, _dense(gate, q)) / 2
            want = (2 * coherence * 1j ** len(sites)).real
            got = interferometry_run(layout, state, sites)
            assert abs(got.inferred_eigenvalue - want) < 1e-12


def test_stabilizer_route_past_the_dense_budget():
    # 32 qubits: 2**32 amplitudes, 4,096 on the support
    layout = build_layout(4, 4)
    ground = project_ground(layout)
    assert ground.values.size == 4096
    with pytest.raises(CapacityError):
        ground.blocks()
    assert all(abs(w - 1) < 1e-12 and abs(wt - 1) < 1e-12
               for w, wt in vortex_map(ground, layout).values)
    j_up, j_down, u = 0.7, 1.3, 0.4
    energy, variance = energy_moments(
        ground, build_spin_hamiltonian(layout, j_up, j_down, u))
    expected = -(j_up + j_down) * len(layout.square.bonds) \
        - u * layout.square.n_sites
    assert abs(energy - expected) < 1e-10
    assert variance < 1e-10
    rng = np.random.default_rng(44)
    for _ in range(6):
        loop = StringSpec.z_string(
            layout, rng.choice(32, 6, replace=False).tolist())
        crossing = StringSpec.x_string(
            layout, rng.choice(32, 3, replace=False).tolist())
        assert abs(braid_phase_on_state(loop, crossing, ground)
                   - braid_phase(loop, crossing)) < 1e-10


@pytest.mark.parametrize("name", ["vortex_map", "energy_moments"])
def test_ground_state_op_peaks_at_a_few_states(name):
    # 4x4: 4,096 entries of 2**32; operators and terms are applied to
    # the coset one at a time, so the transient is a few copies of the
    # state, not one per operator or term
    layout = build_layout(4, 4)
    ground = project_ground(layout)
    call = {
        "vortex_map": partial(vortex_map, ground, layout),
        "energy_moments": partial(
            energy_moments, ground,
            build_spin_hamiltonian(layout, 0.7, 1.3, 0.4)),
    }[name]
    call()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * ground.values.nbytes


def test_energy_moments_at_5x5():
    # 50 qubits, 2**20 entries, 65 terms
    layout = build_layout(5, 5)
    j_up, j_down, u = 0.7, 1.3, 0.4
    energy, variance = energy_moments(
        project_ground(layout),
        build_spin_hamiltonian(layout, j_up, j_down, u))
    expected = -(j_up + j_down) * len(layout.square.bonds) \
        - u * layout.square.n_sites
    assert abs(energy - expected) < 1e-10
    assert variance < 1e-10


def test_overlap_across_spans_is_the_index_join():
    # 4x4 and 2x8 both have 32 qubits, but their cosets have other spans
    u = project_ground(build_layout(4, 4))
    v = project_ground(build_layout(2, 8))
    assert u.rows != v.rows
    held = dict(zip(u.index.tolist(), u.values))
    shared = [(held[t], a) for t, a in zip(v.index.tolist(), v.values)
              if t in held]
    assert shared
    want = sum(np.conj(a) * b for a, b in shared)
    assert abs(overlap(u, v) - want) < 1e-12
    assert abs(overlap(v, u) - np.conj(want)) < 1e-12


def _signed_draws(shape):
    """Eight couplings from U(-2, 2)**3 and one with u = 0, seeded by
    shape; one draw at 3x4."""
    rng = np.random.default_rng(1000 + 10 * shape[0] + shape[1])
    draws = [tuple(rng.uniform(-2.0, 2.0, 3)) for _ in range(8)]
    draws.append((*rng.uniform(-2.0, 2.0, 2), 0.0))
    return draws[:1] if shape == (3, 4) else draws


class TestGroundSector:
    """``project_ground`` moved by ``ground_sector``'s string is a ground
    state at every coupling sign."""

    @pytest.mark.parametrize("shape", [(1, 2), (1, 4), (2, 2), (2, 3),
                                       (3, 2), (2, 4), (3, 3), (2, 5),
                                       (3, 4)],
                             ids=lambda s: f"{s[0]}x{s[1]}")
    def test_moved_state_is_a_ground_state(self, shape):
        layout = build_layout(*shape)
        plus = project_ground(layout)
        for couplings in _signed_draws(shape):
            ham = build_spin_hamiltonian(layout, *couplings)
            move, energy, degeneracy = ground_sector(ham)
            eig = spectrum(ham)
            # bit for bit the spectrum's minimum and its count within
            # the energy window
            assert energy == float(eig[0])
            assert degeneracy == int(np.count_nonzero(
                eig <= eig[0] + REL * ham.scale))
            del eig
            assert move.is_hermitian()
            state = apply_pauli(plus, move)
            e, variance = energy_moments(state, ham)
            assert abs(e - energy) < 1e-10
            if layout.square.n_sites <= 10:
                oracle = DiagonalOracle(layout, *couplings)
                assert abs(e - oracle.enumerate_energies().min()) < 1e-10
            assert variance < 1e-10
            for val in expectations(state, [op for _, op in ham.terms]):
                assert abs(abs(val) - 1) < 1e-12 and abs(val.imag) < 1e-12
            flips = predicted_flips(layout, move)
            for k, (w, wt) in enumerate(vortex_map(state, layout).values):
                assert abs(w - (-1) ** (k in flips[UP])) < 1e-12
                assert abs(wt - (-1) ** (k in flips[DOWN])) < 1e-12

    def test_move_carries_the_tag_of_the_terms(self):
        # the list's tag is its terms' tag, and the move carries it
        layout = build_layout(2, 3)
        ham = build_spin_hamiltonian(layout, 1.0, -0.5, 0.3)
        move, _, _ = ground_sector(ham)
        assert ham.rep == move.rep == REP_HONEYCOMB
        untagged = HamiltonianTerms(ham.n_sites, tuple(
            (coeff, PauliString(op.n_sites, op.x_mask, op.z_mask,
                                op.phase_exp))
            for coeff, op in ham.terms))
        bare, _, _ = ground_sector(untagged)
        assert untagged.rep is None and bare.rep is None
        assert (bare.x_mask, bare.z_mask) == (move.x_mask, move.z_mask)

    def test_positive_couplings_move_nothing(self):
        move, _, _ = ground_sector(
            build_spin_hamiltonian(build_layout(2, 3), 0.7, 1.3, 0.4))
        assert (move.x_mask, move.z_mask, move.phase_exp) == (0, 0, 0)


class TestStateVectorBasics:
    def test_equality_is_identity(self):
        a, b = basis_state(2), basis_state(2)
        assert a == a and a != b
        assert hash(a) != hash(b) and {a: 1}[a] == 1
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

    def test_norm_preserved_under_pauli(self):
        rng = np.random.default_rng(8)
        st = random_state(6, rng=rng)
        op = PauliString(6, 37, 11, 1)
        assert apply_pauli(st, op).norm() == pytest.approx(1.0, abs=1e-14)

    def test_basis_indices_past_64_bits_refused(self):
        # 16x2 has a ground-state support of 2**16 entries, inside the
        # budget, but its 64 qubits give basis indices an int64 cannot hold
        with pytest.raises(CapacityError, match="do not fit 64 bits"):
            project_ground(build_layout(16, 2))

    def test_oversized_support_named_before_the_index_width(self):
        # 2x16 fails both checks: 64 qubits, and a support of 2**30
        # entries; the budget is checked first and names the support
        with pytest.raises(CapacityError, match=r"^ground-state support of "
                           r"2\*\*30 entries needs 1073741824 elements"):
            project_ground(build_layout(2, 16))

    def test_dense_capacity_guard(self):
        with pytest.raises(CapacityError):
            basis_state(30).amplitudes

    def test_basis_state_holds_one_amplitude_per_level(self):
        # one of 2**40 basis states; a Z string reads -1 per set bit
        bits = 1 << 39 | 0b1011
        tracemalloc.start()
        try:
            st = basis_state(40, bits)
            values = expectations(st, [
                PauliString(40, 0, 1 << 39 | 0b111, 0),  # three set bits
                PauliString(40, 0, 1 << 39 | 0b110, 0)])  # two
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st.values.tolist() == [1.0] and st.index.tolist() == [bits]
        assert values == [-1.0, 1.0]
        assert peak < 64 << 10
