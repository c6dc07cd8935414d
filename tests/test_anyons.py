"""Strings, braiding phases, the conditioned-string protocol, ancilla swap."""

import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from hypothesis import given, settings
from hypothesis import strategies as st

from semionlab.anyons import (
    ControlledString,
    QndParams,
    StringSpec,
    _flip_masks,
    braid_phase,
    braid_phase_on_state,
    cavity_superposition,
    fuse_check,
    interferometry_run,
    jc_swap,
    predicted_flips,
    qnd_closed_form_deviation,
    qnd_unitary,
    vortex_map,
)
from semionlab.errors import (
    CapacityError,
    DimensionMismatchError,
    RepresentationError,
)
from semionlab.lattice import BLACK, WHITE, build_layout
from semionlab.operators import x_string_op
from semionlab.pauli import PauliString, commutes
from semionlab.states import (
    StateVector,
    _factor,
    apply_pauli,
    basis_state,
    expectation,
    project_ground,
    random_state,
)


_layout = functools.cache(build_layout)


def link_sites(layout, *squares):
    out = []
    for s in squares:
        out += [layout.rank(s, BLACK), layout.rank(s, WHITE)]
    return out


class TestVortexMap:
    def test_ground_state_is_vortex_free(self):
        layout = build_layout(2, 3)
        vm = vortex_map(project_ground(layout), layout)
        assert all(w == pytest.approx(1.0, abs=1e-12) and
                   wt == pytest.approx(1.0, abs=1e-12)
                   for w, wt in vm.values)

    def test_single_flip_matches_symplectic_prediction(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout)
        base = vortex_map(ground, layout)
        for square, color in ((0, BLACK), (4, WHITE), (2, BLACK)):
            spec = StringSpec.site_flip(layout, square, color)
            flipped = vortex_map(apply_pauli(ground, spec.operator), layout)
            got = flipped.flipped_against(base)
            assert got == predicted_flips(layout, spec.operator)

    def test_double_application_restores(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout)
        base = vortex_map(ground, layout)
        spec = StringSpec.site_flip(layout, 1, WHITE)
        twice = apply_pauli(apply_pauli(ground, spec.operator), spec.operator)
        vm = vortex_map(twice, layout)
        assert vm.flipped_against(base) == {"up": (), "down": ()}

    def test_maps_of_different_sizes_are_refused(self):
        # 2x3 has 4 plaquettes and 2x4 has 6; zipping them compared the
        # first 4 and read no flips either way
        small = vortex_map(project_ground(build_layout(2, 3)),
                           build_layout(2, 3))
        large = vortex_map(project_ground(build_layout(2, 4)),
                           build_layout(2, 4))
        for a, b in ((small, large), (large, small)):
            with pytest.raises(DimensionMismatchError, match=(
                    f"vortex maps of {len(b.values)} and {len(a.values)} "
                    "plaquettes")):
                a.flipped_against(b)

    def test_values_real(self):
        layout = build_layout(1, 3)
        st = random_state(layout.n_sites, rng=np.random.default_rng(0))
        for w, wt in vortex_map(st, layout).values:
            assert isinstance(w, float) and isinstance(wt, float)


class TestPredictedFlips:
    @pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
    def test_matches_commutes(self, shape):
        layout = build_layout(*shape)
        n = layout.n_sites
        plqs = layout.bond_plaquettes
        rng = np.random.default_rng(sum(shape))
        for rep in (None, "honeycomb_spin"):
            for _ in range(40):
                op = PauliString(n, int(rng.integers(1 << n)),
                                 int(rng.integers(1 << n)),
                                 int(rng.integers(4)), rep)
                assert predicted_flips(layout, op) == {
                    "up": tuple(p.index for p in plqs
                                if not commutes(op, p.up)),
                    "down": tuple(p.index for p in plqs
                                  if not commutes(op, p.down))}

    @pytest.mark.parametrize("dims", [(r, c) for r in range(1, 9)
                                      for c in range(2, 9)])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_matches_commutes_every_shape(self, dims, data):
        layout = _layout(*dims)
        n = layout.n_sites
        plqs = layout.bond_plaquettes
        if data.draw(st.booleans()):
            family = data.draw(st.sampled_from("xyz"))
            sites = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
            op = getattr(StringSpec, f"{family}_string")(layout,
                                                         sites).operator
        else:
            op = PauliString(n, data.draw(st.integers(0, (1 << n) - 1)),
                             data.draw(st.integers(0, (1 << n) - 1)),
                             data.draw(st.integers(0, 3)),
                             data.draw(st.sampled_from(
                                 [None, "honeycomb_spin"])))
        assert predicted_flips(layout, op) == {
            "up": tuple(p.index for p in plqs if not commutes(op, p.up)),
            "down": tuple(p.index for p in plqs
                          if not commutes(op, p.down))}

    def test_incompatible_operator_raises(self):
        layout = build_layout(2, 3)
        with pytest.raises(RepresentationError):
            predicted_flips(layout,
                            PauliString.single(layout.n_sites, 0, "X",
                                               "device"))
        with pytest.raises(DimensionMismatchError):
            predicted_flips(layout, PauliString.single(3, 0, "X"))


class TestBraidPhase:
    def test_odd_crossing_gives_minus_one(self):
        layout = build_layout(3, 3)
        hexagon = layout.complete_plaquettes()[0]
        loop = StringSpec.z_string(layout, hexagon)
        crossing = StringSpec.x_string(layout, [hexagon[0]])
        assert braid_phase(loop, crossing) == -1

    def test_even_crossings_cancel(self):
        layout = build_layout(3, 3)
        hexagon = layout.complete_plaquettes()[0]
        loop = StringSpec.z_string(layout, hexagon)
        crossing = StringSpec.x_string(layout, hexagon[:2])
        assert braid_phase(loop, crossing) == 1
        disjoint = StringSpec.x_string(
            layout, [r for r in range(layout.n_sites) if r not in hexagon][:1])
        assert braid_phase(loop, disjoint) == 1

    def test_crossing_parity_scan(self):
        layout = build_layout(3, 3)
        sites = list(range(6))
        loop = StringSpec.z_string(layout, sites)
        for k in range(5):
            crossing = StringSpec.x_string(layout, sites[:k] + [7, 9])
            want = -1 if k % 2 else 1
            assert braid_phase(loop, crossing) == want

    def test_state_level_agrees_everywhere(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout)
        rng = np.random.default_rng(21)
        arbitrary = random_state(layout.n_sites, rng=rng)
        for state in (ground, arbitrary):
            for loop_sites, cross_sites in (((0, 1, 3), (0,)),
                                            ((2, 4, 6, 8), (4, 6)),
                                            ((5,), (5, 7))):
                loop = StringSpec.z_string(layout, loop_sites)
                cross = StringSpec.x_string(layout, cross_sites)
                op = braid_phase(loop, cross)
                st = braid_phase_on_state(loop, cross, state)
                assert abs(st - op) < 1e-10

    def test_mutual_semion_on_ground_state(self):
        # loop acting trivially on the stabilized state, then a vortex
        # created inside it: interference flips sign
        layout = build_layout(2, 3)
        ground = project_ground(layout)
        loop = StringSpec.z_string(layout, link_sites(layout, 0, 1))
        vortex = StringSpec.site_flip(layout, 0, BLACK)
        assert expectation(ground, loop.operator).real == pytest.approx(1.0)
        assert braid_phase(loop, vortex) == -1
        assert braid_phase_on_state(loop, vortex, ground) == \
            pytest.approx(-1.0, abs=1e-10)


class TestFusion:
    def test_string_with_itself_is_vacuum(self):
        layout = build_layout(2, 3)
        s = StringSpec.z_string(layout, (0, 1, 2))
        res = fuse_check(layout, s, s)
        assert res.is_vacuum and res.residual_is_identity

    def test_coinciding_endpoints_add_mod_two(self):
        layout = build_layout(2, 3)
        a = StringSpec.x_string(layout, (0, 1, 2))
        b = StringSpec.x_string(layout, (2, 3, 4))
        res = fuse_check(layout, a, b)
        assert set(res.residual.sites()) == {0, 1, 3, 4}
        for fam in ("up", "down"):
            assert set(res.flips_composite[fam]) == \
                set(res.flips_first[fam]) ^ set(res.flips_second[fam])

    def test_cross_family_composite_keeps_both_labels(self):
        layout = build_layout(2, 3)
        a = StringSpec.z_string(layout, (0, 2))
        b = StringSpec.x_string(layout, (1, 3))
        res = fuse_check(layout, a, b)
        assert not res.same_family
        assert not res.is_vacuum
        assert res.flips_composite["up"] or res.flips_composite["down"]

    def test_strings_on_different_registers_raise(self):
        a = StringSpec.z_string(build_layout(2, 3), (0, 1))
        b = StringSpec.z_string(build_layout(2, 4), (0, 1))
        with pytest.raises(DimensionMismatchError):
            fuse_check(build_layout(2, 3), a, b)

    def test_flips_are_decoded_from_the_masks(self):
        # seeded z, x and y string pairs: the composite's flips are the
        # XOR of the parts', and equal the residual's own flips, decoded
        # and checked plaquette by plaquette with ``commutes``
        rng = np.random.default_rng(29)
        builders = (StringSpec.z_string, StringSpec.x_string,
                    StringSpec.y_string)
        for dims in ((1, 2), (2, 3), (3, 3), (4, 4), (8, 8)):
            layout = _layout(*dims)
            plqs = layout.bond_plaquettes
            for _ in range(12):
                a, b = (builders[rng.integers(3)](layout, rng.choice(
                    layout.n_sites, rng.integers(1, layout.n_sites + 1),
                    replace=False).tolist()) for _ in range(2))
                res = fuse_check(layout, a, b)
                f1, f2 = (_flip_masks(layout, s.operator) for s in (a, b))
                fc = _flip_masks(layout, res.residual)
                assert res.flip_masks == (f1, f2, fc)
                assert fc == (f1[0] ^ f2[0], f1[1] ^ f2[1])
                flips = [predicted_flips(layout, op)
                         for op in (a.operator, b.operator, res.residual)]
                assert [res.flips_first, res.flips_second,
                        res.flips_composite] == flips
                assert flips[2] == {
                    fam: tuple(p.index for p in plqs
                               if not commutes(res.residual, getattr(p, fam)))
                    for fam in ("up", "down")}
                assert res.is_vacuum == (flips[2] == {"up": (), "down": ()})
                assert res.same_family == (a.family == b.family)


class TestQndGate:
    def test_zero_photon_sector_is_identity(self):
        params = QndParams.canonical(0.5, (0, 1, 2))
        u = qnd_unitary(params, 0, 4)
        assert u.is_identity_mask() and u.phase_exp == 0

    def test_two_site_one_photon_gate(self):
        params = QndParams.canonical(1.0, (0, 1))
        u = qnd_unitary(params, 1, 2)
        want = PauliString.from_letters(2, {0: "Z", 1: "Z"}).times_i(2)
        assert u == want  # (-i)^2 ZZ = -ZZ

    def test_closed_form_matches_exponential_small(self):
        for n in (1, 2, 3, 4):
            params = QndParams.canonical(0.8, tuple(range(n)))
            assert qnd_closed_form_deviation(params, n) < 1e-12

    def test_wrong_time_rejected_by_closed_form(self):
        params = QndParams(1.0, 0.5 * math.pi / 2, (0,))
        with pytest.raises(ValueError):
            qnd_unitary(params, 1, 1)

    def test_wrong_time_deviation_reported(self):
        params = QndParams(1.0, 0.5 * math.pi / 2, (0, 1))
        dev = qnd_closed_form_deviation(params, 2)
        assert dev > 0.5

    def test_every_photon_sector_is_a_power_of_the_one_photon_gate(self):
        n = 4
        for sites in ((0, 2, 3), (1, 3)):
            params = QndParams.canonical(0.7, sites)
            u1 = qnd_unitary(params, 1, n).to_matrix()
            for k in range(4):
                assert np.array_equal(qnd_unitary(params, k, n).to_matrix(),
                                      np.linalg.matrix_power(u1, k))

    def test_negative_photon_number_rejected(self):
        with pytest.raises(ValueError):
            qnd_unitary(QndParams.canonical(1.0, (0,)), -1, 2)

    @pytest.mark.parametrize("canonical", (True, False))
    def test_deviation_equals_dense_expm_reference(self, canonical):
        # dense exponential and per-block 2-norms, independent of the module
        chi, cavity_dim = 0.8, 3
        for n, sites in ((2, (0, 1)), (4, (1, 2, 3)), (6, (0, 3, 5))):
            tau = math.pi / (2 * chi) if canonical else 0.7
            params = QndParams(chi, tau, sites)
            dim = 1 << n
            z = np.diag([1.0, -1.0])
            zsum = np.zeros((dim, dim))
            for j in sites:
                op = np.ones((1, 1))
                for k in range(n - 1, -1, -1):
                    op = np.kron(op, z if k == j else np.eye(2))
                zsum += op
            h = np.kron(np.diag(np.arange(cavity_dim, dtype=float)),
                        chi * zsum)
            u_exact = scipy.linalg.expm(-1j * tau * h)
            u1 = qnd_unitary(QndParams.canonical(chi, sites), 1,
                             n).to_matrix()
            want = max(
                np.linalg.norm(u_exact[k * dim:(k + 1) * dim,
                                       k * dim:(k + 1) * dim]
                               - np.linalg.matrix_power(u1, k), 2)
                for k in range(cavity_dim))
            got = qnd_closed_form_deviation(params, n, cavity_dim)
            assert abs(got - want) < 1e-12
            assert (want < 1e-12) == canonical

    @pytest.mark.parametrize("cavity_dim", (0, -1))
    def test_empty_cavity_rejected(self, cavity_dim):
        params = QndParams.canonical(1.0, (0, 1))
        with pytest.raises(ValueError, match="cavity_dim must be >= 1"):
            qnd_closed_form_deviation(params, 2, cavity_dim)

    def test_deviation_fits_past_the_old_square_budget(self):
        # 3 * 2**11 states; the dense check needed (3 * 2**11)**2 entries
        params = QndParams.canonical(1.0, (0, 5))
        assert qnd_closed_form_deviation(params, 11, 3) < 1e-12

    @staticmethod
    def _full_diagonal_deviation(params, n, cavity_dim):
        # the whole 2**n qubit diagonal of each sector: popcount of every
        # index, the exact exponential and the closed-form factor
        mask = sum(1 << s for s in params.sites)
        bits = np.arange(1 << n, dtype=np.uint64)
        zsum = params.n - 2 * np.bitwise_count(
            bits & np.uint64(mask)).astype(np.int64)
        levels = np.arange(cavity_dim)
        diag = params.chi * (levels[:, None] * zsum[None, :]).ravel()
        exact = np.exp(-1j * params.tau * diag)
        canonical = QndParams.canonical(params.chi, params.sites)
        qubits = np.arange(1 << n)
        closed = np.concatenate([
            _factor(qnd_unitary(canonical, n_c, n), qubits)
            for n_c in range(cavity_dim)])
        return float(np.max(np.abs(exact - closed)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_deviation_bit_identical_to_the_full_diagonal(self, n):
        rng = np.random.default_rng(300 + n)
        for cavity_dim in range(1, 5):
            for canonical in (True, False):
                for _ in range(6):
                    chi = rng.uniform(0.2, 2.0) * rng.choice((-1.0, 1.0))
                    # repeated sites collapse to one
                    sites = tuple(int(s) for s in rng.integers(
                        0, n, size=rng.integers(1, n + 2)))
                    tau = math.pi / (2 * chi) if canonical else \
                        rng.uniform(-3.0, 3.0)
                    params = QndParams(chi, tau, sites)
                    got = qnd_closed_form_deviation(params, n, cavity_dim)
                    want = self._full_diagonal_deviation(params, n,
                                                         cavity_dim)
                    assert got.hex() == want.hex()

    def test_deviation_at_forty_qubits_holds_no_register_array(self):
        params = QndParams.canonical(1.3, (0, 7, 19, 33, 39))
        tracemalloc.start()
        try:
            dev = qnd_closed_form_deviation(params, 40, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dev < 1e-12
        assert peak < 64 * 1024

    def test_independent_matrix_oracle(self):
        # full-space exponential built from scratch, not via the module
        n = 3
        chi = 0.6
        params = QndParams.canonical(chi, tuple(range(n)))
        dim = 1 << n
        z = np.diag([1.0, -1.0])
        zsum = np.zeros((dim, dim))
        for j in range(n):
            op = 1
            for k in range(n - 1, -1, -1):
                op = np.kron(op, z if k == j else np.eye(2))
            zsum += op
        h = np.kron(np.diag([0.0, 1.0]), chi * zsum)
        u_exact = scipy.linalg.expm(-1j * params.tau * h)
        u1 = qnd_unitary(params, 1, n).to_matrix()
        block = u_exact[dim:, dim:]
        assert np.linalg.norm(block - u1, 2) < 1e-12
        assert np.linalg.norm(u_exact[:dim, :dim] - np.eye(dim), 2) < 1e-12


class TestControlledString:
    def test_one_photon_cavity_reduces_to_string(self):
        n = 3
        sites = (0, 2)
        qubits = random_state(n, rng=np.random.default_rng(1))
        st = StateVector(n, 2, np.concatenate(
            [np.zeros(1 << n), qubits.amplitudes]))
        out = ControlledString(sites).apply(st)
        u1 = qnd_unitary(QndParams.canonical(1.0, sites), 1, n)
        want = apply_pauli(qubits, u1)
        assert np.allclose(out.blocks()[1], want.amplitudes)
        assert np.allclose(out.blocks()[0], 0)

    @pytest.mark.parametrize("mu, nu", [(1 / math.sqrt(2), 1 / math.sqrt(2)),
                                        (0.6, 0.8j), (0.28 + 0.96j, 0.0)])
    def test_superposition_equals_stacked_products(self, mu, nu):
        qubits = random_state(6, rng=np.random.default_rng(5))
        st = cavity_superposition(qubits, mu, nu)
        q = qubits.amplitudes
        assert st.cavity_dim == 2
        assert np.array_equal(st.amplitudes, np.concatenate([mu * q, nu * q]))

    def test_zero_photon_cavity_untouched(self):
        n = 2
        qubits = random_state(n, rng=np.random.default_rng(2))
        st = cavity_superposition(qubits, 1, 0)
        out = ControlledString((0, 1)).apply(st)
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_coherence_tracks_string_eigenvalue(self):
        # qubits in a Z-string eigenstate: the cavity coherence picks up
        # Re[(-i)^N w] exactly
        n = 2
        sites = (0, 1)
        for bits, w in ((0, 1.0), (1, -1.0)):
            qubits = basis_state(n, bits)
            st = cavity_superposition(qubits, 1 / math.sqrt(2),
                                      1 / math.sqrt(2))
            out = ControlledString(sites).apply(st)
            coh = complex(np.vdot(out.blocks()[0], out.blocks()[1]))
            want = 0.5 * ((-1j) ** len(sites)) * w
            assert abs(coh - want) < 1e-12

    def test_requires_cavity(self):
        st = basis_state(2)
        with pytest.raises(CapacityError):
            ControlledString((0,)).apply(st)

    def test_the_gate_holds_only_its_sites(self):
        gate = ControlledString((3, 1, 3))
        assert [f.name for f in dataclasses.fields(gate)] == ["sites"]
        assert gate.sites == (1, 3)

    @pytest.mark.parametrize("coset", [False, True])
    def test_bit_identical_to_per_level_factors(self, coset):
        # the reference: sector n_c times the factors of the n_c-photon
        # unitary, written out level by level
        if coset:
            layout = build_layout(2, 3)
            st = cavity_superposition(project_ground(layout), 0.6, 0.8j)
            sites = (0, 3, 4, 9)
        else:
            st = random_state(5, cavity_dim=4, rng=np.random.default_rng(8))
            sites = (1, 2, 4)
        params = QndParams.canonical(1.0, sites)
        want = st.values.reshape(st.cavity_dim, -1).copy()
        for n_c in range(1, st.cavity_dim):
            want[n_c] *= _factor(qnd_unitary(params, n_c, st.n_qubits),
                                 st.index)
        out = ControlledString(sites).apply(st)
        assert np.array_equal(out.index, st.index) and out.rows == st.rows
        assert np.array_equal(out.values.view(np.float64),
                              want.ravel().view(np.float64))

    def test_norm_preserved(self):
        st = random_state(4, cavity_dim=3, rng=np.random.default_rng(3))
        out = ControlledString((1, 2, 3)).apply(st)
        assert out.norm() == pytest.approx(1.0, abs=1e-12)

    def test_four_level_cavity_matches_repeated_one_photon_gate(self):
        # sector n_c must carry u1 applied n_c times, for odd and even N
        n = 4
        st = random_state(n, cavity_dim=4, rng=np.random.default_rng(4))
        for sites in ((0, 2, 3), (1, 3)):
            u1 = qnd_unitary(QndParams.canonical(1.0, sites), 1,
                             n).to_matrix()
            out = ControlledString(sites).apply(st)
            for n_c in range(4):
                want = np.linalg.matrix_power(u1, n_c) @ st.blocks()[n_c]
                assert np.max(np.abs(out.blocks()[n_c] - want)) < 1e-14


class TestInterferometry:
    def test_contractible_loop_on_ground_state(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout, cavity_dim=2)
        sites = link_sites(layout, 0, 1)
        rec = interferometry_run(layout, ground, sites)
        assert rec.inferred_eigenvalue == pytest.approx(1.0, abs=1e-10)

    def test_enclosed_vortex_flips_sign(self):
        layout = build_layout(2, 3)
        ground = project_ground(layout, cavity_dim=2)
        spec = StringSpec.site_flip(layout, 0, BLACK)
        excited = apply_pauli(ground, spec.operator)
        rec = interferometry_run(layout, excited,
                                 link_sites(layout, 0, 1))
        assert rec.inferred_eigenvalue == pytest.approx(-1.0, abs=1e-10)

    def test_no_cavity_is_an_error(self):
        layout = build_layout(1, 2)
        with pytest.raises(CapacityError):
            interferometry_run(layout, project_ground(layout), (0,))

    def test_matches_direct_expectation_for_random_states(self):
        layout = build_layout(1, 3)
        rng = np.random.default_rng(14)
        sites = (0, 3, 4)
        mask = sum(1 << s for s in sites)
        uz = PauliString(layout.n_sites, 0, mask, 0)
        for _ in range(5):
            qubits = random_state(layout.n_sites, rng=rng)
            st = StateVector(layout.n_sites, 2, np.concatenate(
                [qubits.amplitudes, np.zeros(1 << layout.n_sites)]))
            rec = interferometry_run(layout, st, sites)
            direct = expectation(qubits, uz).real
            assert abs(rec.inferred_eigenvalue - direct) < 1e-10


class TestJaynesCummingsSwap:
    def test_dark_state_unchanged(self):
        st = basis_state(1, bits=0, cavity_dim=2)
        out = jc_swap(st, omega=1.3, t=2.1)
        assert np.allclose(out.amplitudes, st.amplitudes)

    def test_full_transfer_at_swap_time(self):
        omega = 0.9
        st = basis_state(1, bits=1, cavity_dim=2)
        out = jc_swap(st, omega, math.pi / (2 * omega))
        amps = out.amplitudes
        assert abs(amps[2] + 1j) < 1e-12          # -i |1_c, 0_q>
        assert abs(amps[1]) < 1e-12

    def test_rabi_closed_form(self):
        # independent 2x2 oscillation oracle
        omega = 1.7
        st = basis_state(1, bits=1, cavity_dim=2)
        for t in np.linspace(0.0, 4.0, 17):
            out = jc_swap(st, omega, float(t))
            p_keep = abs(out.amplitudes[1]) ** 2
            p_move = abs(out.amplitudes[2]) ** 2
            assert p_keep == pytest.approx(math.cos(omega * t) ** 2, abs=1e-12)
            assert p_move == pytest.approx(math.sin(omega * t) ** 2, abs=1e-12)

    def test_norm_conserved(self):
        rng = np.random.default_rng(15)
        st = random_state(2, cavity_dim=3, rng=rng)
        for t in np.linspace(0, 7, 23):
            assert jc_swap(st, 1.1, float(t), qubit=1).norm() == \
                pytest.approx(1.0, abs=1e-12)

    def test_matches_dense_exponential(self):
        # oracle: expm of the exchange Hamiltonian on cavity (x) 1 qubit
        omega, t = 0.8, 1.9
        cav = 3
        dim = 2 * cav
        h = np.zeros((dim, dim), dtype=complex)
        for n in range(cav - 1):
            ket = (n + 1) * 2 + 0   # |n+1, ground>
            bra = n * 2 + 1         # |n, excited>
            h[ket, bra] = omega * math.sqrt(n + 1)
            h[bra, ket] = omega * math.sqrt(n + 1)
        rng = np.random.default_rng(16)
        psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi /= np.linalg.norm(psi)
        want = scipy.linalg.expm(-1j * t * h) @ psi
        st = StateVector(1, cav, psi)
        got = jc_swap(st, omega, t).amplitudes
        assert np.max(np.abs(got - want)) < 1e-12

    @staticmethod
    def _index_array_swap(state, omega, t, qubit):
        # each level pair mixed through arrays of the excited indices
        # and their ground partners
        blocks = state.blocks()
        bit = 1 << qubit
        excited = np.flatnonzero(np.arange(state.qubit_dim) & bit)
        ground = excited ^ bit
        for n in range(state.cavity_dim - 1):
            theta = omega * math.sqrt(n + 1) * t
            c, s = math.cos(theta), math.sin(theta)
            upper = blocks[n, excited].copy()
            lower = blocks[n + 1, ground].copy()
            blocks[n, excited] = c * upper - 1j * s * lower
            blocks[n + 1, ground] = -1j * s * upper + c * lower
        return StateVector(state.n_qubits, state.cavity_dim, blocks.ravel())

    def _assert_bit_identical(self, state):
        for omega, t in ((0.9, math.pi / 1.8), (1.3, 2.1), (-0.4, 0.77)):
            for qubit in range(state.n_qubits):
                got = jc_swap(state, omega, t, qubit).amplitudes
                want = self._index_array_swap(state, omega, t,
                                              qubit).amplitudes
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_bit_identical_to_index_arrays_on_dense_states(self, n):
        rng = np.random.default_rng(500 + n)
        for cavity_dim in range(2, 6):
            self._assert_bit_identical(random_state(n, cavity_dim, rng))

    def test_bit_identical_to_index_arrays_on_a_coset_state(self):
        layout = _layout(2, 3)
        ground = project_ground(layout, cavity_dim=3)
        self._assert_bit_identical(
            apply_pauli(ground, x_string_op(layout, 2, BLACK)))

    def test_requires_cavity(self):
        with pytest.raises(CapacityError):
            jc_swap(basis_state(1), 1.0, 1.0)
