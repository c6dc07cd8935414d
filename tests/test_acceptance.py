"""Acceptance suite: one test per exit criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Every tolerance is pinned here, not configurable.

One deliberate red: the pair-coupling quadratic error bound asserts that
the ``2 beta E_c`` shorthand is accurate to ``3 beta^2``, but the exact
formula gives ``lambda = 2 beta E_c / (1 + 2 beta)``, a relative
deviation of ``2 beta / (1 + 2 beta)`` that no network can beat.  The
check is kept at its stated strength and fails honestly; the companion
tests assert the true exact identity and the linear-order bound.
"""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from semionlab.anyons import (
    ControlledString,
    QndParams,
    StringSpec,
    braid_phase,
    braid_phase_on_state,
    cavity_superposition,
    jc_swap,
    qnd_unitary,
    vortex_map,
)
from semionlab.circuit import (
    DeviceNetwork,
    DeviceParams,
    chain_couplings,
    two_device_couplings,
)
from semionlab.hamiltonian import (
    DiagonalOracle,
    build_spin_hamiltonian,
    predicted_ground_degeneracy,
    spectrum,
)
from semionlab.lattice import BLACK, WHITE, build_layout
from semionlab.operators import link_zz_op
from semionlab.pauli import PauliString, commutes, multiply
from semionlab.states import (
    apply_pauli,
    basis_state,
    energy_moments,
    expectation,
    project_ground,
    random_state,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_mapping_equivalence():
    """Spin spectrum equals the fermion-oracle multiset, 1x4 and 2x3."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for dims in ((1, 4), (2, 3)):
        layout = build_layout(*dims)
        for _ in range(5):
            j_up, j_down, u = rng.uniform(0.2, 2.0, 3)
            ham = build_spin_hamiltonian(layout, j_up, j_down, u)
            eig = spectrum(ham)
            oracle = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
            worst = max(worst, float(np.max(np.abs(eig - oracle))))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 60.0
    report("mapping equivalence", ok,
           f"max multiset deviation {worst:.2e}, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 60.0


def test_stabilizer_algebra():
    """Every stabilizer pair on 3x3 commutes; plaquette ops square to 1."""
    start = time.monotonic()
    layout = build_layout(3, 3)
    plaqs = [w for p in layout.bond_plaquettes for w in (p.up, p.down)]
    ops = plaqs + [link_zz_op(layout, s)
                   for s in range(layout.square.n_sites)]
    commuting = all(commutes(a, b)
                    for a, b in itertools.combinations(ops, 2))
    hermitian = all(w.is_hermitian() for w in plaqs)
    squares = all(
        multiply(w, w).is_identity_mask() and multiply(w, w).phase_exp == 0
        for w in plaqs)
    elapsed = time.monotonic() - start
    ok = commuting and hermitian and squares and elapsed < 5.0
    report("stabilizer algebra", ok,
           f"{len(ops)} operators, all pairs exact, {elapsed:.2f}s")
    assert commuting and hermitian and squares
    assert elapsed < 5.0


def test_ground_state():
    """Projected state on 2x3: flux-free, minimal, eigensharp, 4-fold."""
    start = time.monotonic()
    layout = build_layout(2, 3)
    ground = project_ground(layout)
    flux_dev = max(
        abs(expectation(ground, w).real - 1.0)
        for p in layout.bond_plaquettes for w in (p.up, p.down))
    ham = build_spin_hamiltonian(layout, 1.0, 1.0, 1.0)
    energy, variance = energy_moments(ground, ham)
    eig = spectrum(ham)
    energy_gap = abs(energy - float(eig[0]))
    ed_deg = int(np.count_nonzero(eig <= eig[0] + 1e-8))
    oracle_deg = DiagonalOracle(layout, 1.0, 1.0, 1.0).ground_degeneracy()
    predicted = predicted_ground_degeneracy(layout, 1.0, 1.0, 1.0)
    elapsed = time.monotonic() - start
    ok = (flux_dev < 1e-12 and energy_gap < 1e-10 and variance < 1e-10
          and oracle_deg == ed_deg == predicted and elapsed < 120.0)
    report("ground state", ok,
           f"flux dev {flux_dev:.1e}, energy gap {energy_gap:.1e}, "
           f"variance {variance:.1e}, degeneracy {oracle_deg}, "
           f"{elapsed:.1f}s")
    assert flux_dev < 1e-12
    assert energy_gap < 1e-10
    assert variance < 1e-10
    assert oracle_deg == ed_deg == predicted
    assert elapsed < 120.0


def test_conditioned_string_closed_form():
    """Exponentiated dispersive coupling matches the sector closed form."""
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 9):
        params = QndParams.canonical(0.9, tuple(range(n)))
        dim = 1 << n
        diag_terms = np.zeros(dim)
        for j in range(n):
            bit = np.where((np.arange(dim) >> j) & 1, -1.0, 1.0)
            diag_terms = diag_terms + bit
        h = np.concatenate([0.0 * diag_terms, params.chi * diag_terms])
        exact = scipy.linalg.expm(-1j * params.tau * np.diag(h))
        closed0 = np.eye(dim)
        closed1 = qnd_unitary(params, 1, n).to_matrix()
        dev0 = np.linalg.norm(exact[:dim, :dim] - closed0, 2)
        dev1 = np.linalg.norm(exact[dim:, dim:] - closed1, 2)
        worst = max(worst, float(dev0), float(dev1))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report("conditioned string closed form", ok,
           f"max sector deviation {worst:.2e} up to 8 sites, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30.0


def test_mutual_exchange_phase():
    """Odd crossings of opposite string families exchange with phase -1."""
    start = time.monotonic()
    layout33 = build_layout(3, 3)
    hexagons = layout33.complete_plaquettes()
    odd_ok = True
    even_ok = True
    for hexagon in hexagons:
        loop = StringSpec.z_string(layout33, hexagon)
        for site in hexagon:
            odd_ok &= braid_phase(
                loop, StringSpec.x_string(layout33, [site])) == -1
        for pair in itertools.combinations(hexagon[:4], 2):
            even_ok &= braid_phase(
                loop, StringSpec.x_string(layout33, pair)) == 1
        outside = [r for r in range(layout33.n_sites) if r not in hexagon]
        even_ok &= braid_phase(
            loop, StringSpec.x_string(layout33, outside[:1])) == 1

    layout23 = build_layout(2, 3)
    ground = project_ground(layout23)
    loop_sites = []
    for s in (0, 1):
        loop_sites += [layout23.rank(s, BLACK), layout23.rank(s, WHITE)]
    loop = StringSpec.z_string(layout23, loop_sites)
    vortex = StringSpec.site_flip(layout23, 0, BLACK)
    base = vortex_map(ground, layout23)
    excited = apply_pauli(ground, vortex.operator)
    created = vortex_map(excited, layout23).flipped_against(base)
    state_phase = braid_phase_on_state(loop, vortex, ground)
    even_state = braid_phase_on_state(
        loop, StringSpec.x_string(layout23, loop_sites[:2]), ground)
    elapsed = time.monotonic() - start
    state_ok = abs(state_phase - (-1.0)) < 1e-10 and \
        abs(even_state - 1.0) < 1e-10 and (created["up"] or created["down"])
    ok = odd_ok and even_ok and state_ok and elapsed < 60.0
    report("mutual exchange phase", ok,
           f"operator phases exact, state overlap {state_phase.real:+.12f}, "
           f"{elapsed:.1f}s")
    assert odd_ok and even_ok
    assert state_ok
    assert elapsed < 60.0


def test_interferometry_consistency():
    """Inferred string eigenvalue equals the direct expectation, 20 states."""
    start = time.monotonic()
    rng = np.random.default_rng(77)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, n + 1))
        sites = tuple(sorted(rng.choice(n, size=k, replace=False).tolist()))
        qubits = random_state(n, rng=rng)
        s = 1 / math.sqrt(2)
        evolved = ControlledString(sites).apply(
            cavity_superposition(qubits, s, s))
        blocks = evolved.blocks()
        coherence = complex(np.vdot(blocks[0], blocks[1]))
        inferred = (2 * coherence * 1j ** len(sites)).real
        mask = sum(1 << site for site in sites)
        direct = expectation(qubits, PauliString(n, 0, mask, 0)).real
        worst = max(worst, abs(inferred - direct))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 30.0
    report("interferometry consistency", ok,
           f"max deviation {worst:.2e} over 20 random states, {elapsed:.1f}s")
    assert worst < 1e-10
    assert elapsed < 30.0


def _identical_network(beta: float, rng) -> DeviceNetwork:
    c_g = float(rng.uniform(100, 500)) * 1e-18
    c_j = float(rng.uniform(100, 500)) * 1e-18
    dev = DeviceParams(c_g, c_j, 1e-24)
    return DeviceNetwork(dev, dev, beta * dev.c_0)


def test_circuit_pair_coupling_quadratic_bound():
    """Stated bound: |lambda / (2 beta E_c) - 1| <= 3 beta^2.

    Unattainable: the exact ratio is 1 / (1 + 2 beta) for every
    identical-device network, so the deviation is 2 beta / (1 + 2 beta),
    linear in beta.  Kept at the stated strength; fails honestly.
    """
    start = time.monotonic()
    rng = np.random.default_rng(5)
    worst = {}
    for beta in (0.01, 0.05, 0.1):
        devs = []
        for _ in range(10):
            c = two_device_couplings(_identical_network(beta, rng))
            devs.append(abs(c.lam_pair / (2 * beta * c.e_c_a) - 1.0))
        worst[beta] = max(devs)
    elapsed = time.monotonic() - start
    ok = all(worst[b] <= 3 * b ** 2 for b in worst) and elapsed < 5.0
    detail = ", ".join(f"beta={b}: dev {worst[b]:.4f} vs bound {3 * b * b:.4f}"
                       for b in sorted(worst))
    report("circuit pair-coupling quadratic bound", ok, detail)
    assert elapsed < 5.0
    for beta, dev in worst.items():
        assert dev <= 3 * beta ** 2, (
            f"exact deviation {dev:.4f} = 2b/(1+2b) exceeds the stated "
            f"quadratic bound {3 * beta ** 2:.4f}; the shorthand "
            f"2*beta*E_c is first-order accurate only")


def test_circuit_exact_identity_and_linear_bound():
    """What the exact formula does satisfy, asserted at full strength."""
    start = time.monotonic()
    rng = np.random.default_rng(6)
    ok = True
    for beta in (0.01, 0.05, 0.1):
        for _ in range(10):
            c = two_device_couplings(_identical_network(beta, rng))
            ratio = c.lam_pair / (2 * beta * c.e_c_a)
            ok &= abs(ratio * (1 + 2 * beta) - 1.0) < 1e-12
            ok &= abs(ratio - 1.0) <= 2 * beta
    elapsed = time.monotonic() - start
    report("circuit pair-coupling exact identity", ok,
           f"lambda (1 + 2 beta) = 2 beta E_c to 1e-12, {elapsed:.2f}s")
    assert ok
    assert elapsed < 5.0


def test_circuit_decoupling_limit():
    """The pair coupling vanishes with the coupling capacitor."""
    start = time.monotonic()
    dev = DeviceParams(330e-18, 270e-18, 1e-24)
    c = two_device_couplings(DeviceNetwork(dev, dev, 0.0))
    eps_ref = 2 * (1.602176634e-19) ** 2 / dev.c_0
    eps_rel_gap = abs(c.eps_a - eps_ref) / eps_ref
    elapsed = time.monotonic() - start
    ok = c.lam_pair == 0.0 and eps_rel_gap < 1e-12 and elapsed < 5.0
    report("circuit decoupling limit", ok,
           f"lambda = {c.lam_pair}, eps relative gap {eps_rel_gap:.1e}")
    assert ok


def test_circuit_dimensional_scaling():
    """Capacitance and charge scalings act exactly as dimensions demand."""
    start = time.monotonic()
    dev = DeviceParams(300e-18, 300e-18, 1e-24)
    net = DeviceNetwork(dev, dev, 30e-18, 20e-18, 10e-18)
    base = chain_couplings(net)
    s = 2.5
    scaled_dev = DeviceParams(s * 300e-18, s * 300e-18, 1e-24)
    scaled = chain_couplings(DeviceNetwork(scaled_dev, scaled_dev,
                                           s * 30e-18, s * 20e-18,
                                           s * 10e-18))
    charge_scaled = chain_couplings(net, charge=2 * 1.602176634e-19)
    pairs = [
        (base.lam_pair, scaled.lam_pair, charge_scaled.lam_pair),
        (base.eps_a, scaled.eps_a, charge_scaled.eps_a),
        (base.e_c_a, scaled.e_c_a, charge_scaled.e_c_a),
        (base.lam_chain_a, scaled.lam_chain_a, charge_scaled.lam_chain_a),
        (base.lam_chain_b, scaled.lam_chain_b, charge_scaled.lam_chain_b),
        (base.lam_chain_c, scaled.lam_chain_c, charge_scaled.lam_chain_c),
    ]
    cap_ok = all(abs(b - a / s) <= 1e-15 * abs(a / s) for a, b, _ in pairs)
    chg_ok = all(abs(c4 - 4 * a) <= 1e-15 * abs(4 * a) for a, _, c4 in pairs)
    elapsed = time.monotonic() - start
    ok = cap_ok and chg_ok and elapsed < 5.0
    report("circuit dimensional scaling", ok,
           f"capacitance 1/s and charge e^2 scalings exact, {elapsed:.2f}s")
    assert cap_ok and chg_ok
    assert elapsed < 5.0


def test_excitation_swap_gate():
    """Full population transfer at the swap time; norm at 50 samples."""
    start = time.monotonic()
    omega = 1.3
    st = basis_state(1, bits=1, cavity_dim=2)
    swapped = jc_swap(st, omega, math.pi / (2 * omega))
    p_cavity = abs(swapped.amplitudes[2]) ** 2
    p_resid = abs(swapped.amplitudes[1]) ** 2
    transfer_ok = abs(p_cavity - 1.0) < 1e-12 and p_resid < 1e-12
    rabi_ok = True
    norm_ok = True
    rng = np.random.default_rng(8)
    mixed = random_state(1, cavity_dim=2, rng=rng)
    for t in np.linspace(0.0, 5.0, 50):
        out = jc_swap(st, omega, float(t))
        rabi_ok &= abs(abs(out.amplitudes[1]) ** 2
                       - math.cos(omega * t) ** 2) < 1e-12
        norm_ok &= abs(jc_swap(mixed, omega, float(t)).norm() - 1.0) < 1e-12
    elapsed = time.monotonic() - start
    ok = transfer_ok and rabi_ok and norm_ok and elapsed < 5.0
    report("excitation swap gate", ok,
           f"transfer deficit {abs(p_cavity - 1.0):.1e}, norm kept at "
           f"50 times, {elapsed:.2f}s")
    assert transfer_ok and rabi_ok and norm_ok
    assert elapsed < 5.0
