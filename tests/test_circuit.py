"""Circuit compiler: exact formulas, limits, scaling audits, diagnostics."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
import scipy.constants
from hypothesis import given, settings
from hypothesis import strategies as st

from semionlab.circuit import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    HBAR,
    PLANCK,
    DeviceNetwork,
    DeviceParams,
    capacitance_determinant,
    chain_couplings,
    charging_energy,
    jc_resonance,
    long_range_warning,
    qnd_frequencies,
    two_device_couplings,
)
from semionlab.errors import DegenerateNetworkError

ATTO = 1e-18


def identical_network(c_0=600 * ATTO, beta=0.05, e_j=1e-24, n_g=0.5,
                      c_a=0.0, c_b=0.0):
    return DeviceNetwork.identical(c_0 / 2, c_0 / 2, e_j, beta, n_g,
                                   c_a, c_b)


def test_constants_are_the_si_defined_values():
    # e, h and k_B are exact by the 2019 SI definition, so a typo in a
    # literal is the only way these can fail
    assert ELEMENTARY_CHARGE == 1.602176634e-19
    assert PLANCK == 6.62607015e-34
    assert BOLTZMANN == 1.380649e-23
    assert HBAR == PLANCK / (2 * math.pi)
    assert (ELEMENTARY_CHARGE, PLANCK, HBAR, BOLTZMANN) == (
        scipy.constants.e, scipy.constants.h, scipy.constants.hbar,
        scipy.constants.k)


class TestPairCouplings:
    def test_charging_energy_reference_point(self):
        e_c = charging_energy(600 * ATTO)
        assert e_c / PLANCK / 1e9 == pytest.approx(32.28, rel=2e-3)

    def test_identical_devices_eps_is_4ec_exact(self):
        net = identical_network()
        c = two_device_couplings(net)
        assert c.eps_a == pytest.approx(4 * c.e_c_a, rel=1e-14)
        assert c.eps_a == c.eps_b

    def test_lambda_exact_identity(self):
        # lambda * (1 + 2 beta) = 2 beta E_c, exactly, for any beta
        for beta in (0.01, 0.05, 0.1, 0.3):
            c = two_device_couplings(identical_network(beta=beta))
            assert c.lam_pair * (1 + 2 * beta) == \
                pytest.approx(2 * beta * c.e_c_a, rel=1e-12)

    def test_first_order_shorthand_deviates_linearly(self):
        # the popular 2 beta E_c shorthand is first order only: the exact
        # relative deviation is 2 beta / (1 + 2 beta)
        for beta in (0.01, 0.05, 0.1):
            c = two_device_couplings(identical_network(beta=beta))
            dev = abs(c.lam_pair / (2 * beta * c.e_c_a) - 1)
            assert dev == pytest.approx(2 * beta / (1 + 2 * beta), rel=1e-12)
            assert dev <= 2 * beta

    def test_decoupled_limit(self):
        dev = DeviceParams(300 * ATTO, 300 * ATTO, 1e-24)
        net = DeviceNetwork(dev, dev, 0.0)
        c = two_device_couplings(net)
        assert c.lam_pair == 0.0
        assert c.eps_a == pytest.approx(
            2 * ELEMENTARY_CHARGE ** 2 / dev.c_0, rel=1e-14)

    def test_junction_energy_passthrough(self):
        net = identical_network(e_j=3.3e-24)
        c = two_device_couplings(net)
        assert c.delta_a == 3.3e-24 == c.delta_b

    def test_single_device_terms_reported_not_included(self):
        net = identical_network(n_g=0.3)
        c = two_device_couplings(net)
        assert c.report()["single_device_terms_included"] is False
        assert c.single_device_z[0] == pytest.approx(
            -0.5 * c.eps_a * (1 - 0.6), rel=1e-12)
        at_degeneracy = two_device_couplings(identical_network(n_g=0.5))
        assert at_degeneracy.single_device_z == (0.0, 0.0)

    def test_degenerate_determinant_rejected(self):
        # impossible through the constructor for capacitances whose
        # products stay normal; the guard covers a negative raw C_0 and
        # devices so small that C_0^2 underflows to zero
        with pytest.raises(DegenerateNetworkError, match="not positive"):
            capacitance_determinant(-1 * ATTO, 1 * ATTO, 0.0)
        tiny = DeviceParams(1e-170, 1e-170, 1e-24)
        with pytest.raises(DegenerateNetworkError, match="0.0 is not pos"):
            DeviceNetwork(tiny, tiny, 0.0)
        with pytest.raises(ValueError):
            DeviceNetwork(DeviceParams(ATTO, ATTO, 1e-24),
                          DeviceParams(ATTO, ATTO, 1e-24), -1 * ATTO)

    def test_overflowing_determinant_raises(self):
        with pytest.raises(OverflowError):
            capacitance_determinant(1e200, 1e200, 0.0)
        huge = DeviceParams(1e300, 1e300, 1e-24)
        with pytest.raises(OverflowError):
            DeviceNetwork(huge, huge, 0.05 * huge.c_0)

    def test_identity_holds_at_any_coupling_strength(self):
        # the determinant has no subtraction, so no beta loses digits:
        # strong coupling keeps the exact identity to 1e-12
        for beta in (1.0, 1.5, 10.0, 1000.0, 1e5, 5e5, 1e6, 1e9):
            c = two_device_couplings(identical_network(beta=beta))
            assert c.lam_pair * (1 + 2 * beta) == \
                pytest.approx(2 * beta * c.e_c_a, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(log_c_0=st.tuples(st.floats(-19, -15), st.floats(-19, -15)),
           log_beta=st.floats(-3, 9))
    def test_determinant_within_two_eps_of_exact(self, log_c_0, log_beta):
        # unequal devices against exact rational arithmetic of the
        # textbook form (C_0^a + C_c)(C_0^b + C_c) - C_c^2
        dev_a, dev_b = (DeviceParams(10 ** x / 2, 10 ** x / 2, 1e-24)
                        for x in log_c_0)
        net = DeviceNetwork(dev_a, dev_b, 10 ** log_beta * dev_a.c_0)
        c_0_a, c_0_b, c_c = map(Fraction, (dev_a.c_0, dev_b.c_0, net.c_c))
        exact = (c_0_a + c_c) * (c_0_b + c_c) - c_c ** 2
        assert abs(Fraction(net.lam_det) / exact - 1) <= \
            2 * sys.float_info.epsilon

    def test_invalid_device_params(self):
        with pytest.raises(ValueError):
            DeviceParams(-1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DeviceParams(1.0, 1.0, 1.0, n_g=1.5)


class TestChainCouplings:
    def test_symmetric_chains(self):
        net = identical_network(c_a=30 * ATTO, c_b=30 * ATTO)
        c = chain_couplings(net)
        assert c.lam_chain_a == c.lam_chain_b

    def test_equal_couplers_share_denominator(self):
        # with C_a = C_b = C_c all three denominators coincide, so the
        # three couplings are equal
        c0 = 600 * ATTO
        net = DeviceNetwork.identical(c0 / 2, c0 / 2, 1e-24, beta=0.05,
                                      c_a=0.05 * c0, c_b=0.05 * c0)
        c = chain_couplings(net)
        assert c.lam_chain_a == pytest.approx(c.lam_chain_c, rel=1e-14)
        assert c.lam_chain_b == pytest.approx(c.lam_chain_c, rel=1e-14)

    def test_compiled_couplings_drive_the_lattice_model(self):
        # the compiled triple feeds straight into the spin builder and
        # the mapping equivalence holds at circuit energy scales
        import numpy as np

        from semionlab.hamiltonian import (
            DiagonalOracle,
            build_spin_hamiltonian,
            spectrum,
        )
        from semionlab.lattice import build_layout

        net = identical_network(c_a=25 * ATTO, c_b=20 * ATTO)
        triple = chain_couplings(net).as_model_couplings()
        ghz = {k: v / PLANCK / 1e9 for k, v in triple.items()}
        layout = build_layout(1, 2)
        ham = build_spin_hamiltonian(layout, **ghz)
        oracle = DiagonalOracle(layout, **ghz)
        assert np.max(np.abs(spectrum(ham) - oracle.sorted_spectrum())) \
            < 1e-10

    def test_two_device_limit_recovers_pair_formula(self):
        # with the intra-chain couplers off, the on-site chain coupling
        # must equal the exact pair coupling: this pins the denominator
        # normalization of the first-order chain formulas
        net = identical_network(beta=0.05)
        c = chain_couplings(net)
        assert c.lam_chain_c == pytest.approx(c.lam_pair, rel=1e-12)

    def test_model_coupling_record(self):
        net = identical_network(c_a=20 * ATTO, c_b=25 * ATTO)
        c = chain_couplings(net)
        record = c.as_model_couplings()
        assert record == {"j_up": c.lam_chain_a, "j_down": c.lam_chain_b,
                          "u": c.lam_chain_c}
        assert record["j_up"] > 0 and record["u"] > 0

    def test_first_order_label_present(self):
        c = chain_couplings(identical_network(c_a=10 * ATTO, c_b=10 * ATTO))
        assert any("first order" in n for n in c.notes)


class TestScalingAudits:
    def test_capacitance_scaling_inverts_energies(self):
        s = 3.0
        base = chain_couplings(identical_network(beta=0.05, c_a=20 * ATTO,
                                                 c_b=10 * ATTO))
        scaled = chain_couplings(identical_network(
            c_0=s * 600 * ATTO, beta=0.05, c_a=s * 20 * ATTO,
            c_b=s * 10 * ATTO))
        for a, b in ((base.lam_pair, scaled.lam_pair),
                     (base.eps_a, scaled.eps_a),
                     (base.e_c_a, scaled.e_c_a),
                     (base.lam_chain_a, scaled.lam_chain_a),
                     (base.lam_chain_c, scaled.lam_chain_c)):
            assert b == pytest.approx(a / s, rel=1e-12)

    def test_doubling_the_charge_quadruples_couplings(self):
        net = identical_network(c_a=20 * ATTO, c_b=10 * ATTO)
        base = chain_couplings(net)
        doubled = chain_couplings(net, charge=2 * ELEMENTARY_CHARGE)
        for a, b in ((base.lam_pair, doubled.lam_pair),
                     (base.eps_a, doubled.eps_a),
                     (base.lam_chain_a, doubled.lam_chain_a),
                     (base.lam_chain_c, doubled.lam_chain_c),
                     (base.e_c_a, doubled.e_c_a)):
            assert b == pytest.approx(4 * a, rel=1e-12)


class TestLongRange:
    def test_warning_threshold_arithmetic(self):
        # warn iff beta^2 > threshold * beta / (1 + 2 beta)
        for beta in (0.005, 0.009, 0.02, 0.05):
            rec = long_range_warning(beta)
            assert rec["threshold"] == 0.01
            want = beta ** 2 > 0.01 * beta / (1 + 2 * beta)
            assert rec["warn"] == want
        assert long_range_warning(0.05)["warn"] is True
        assert long_range_warning(0.005)["warn"] is False


class TestProtocolFrequencies:
    def test_delta_two_identity(self):
        e_c = charging_energy(600 * ATTO)
        rec = qnd_frequencies(e_c, 0.3, omega_c=2e9, delta=5e7, g=1e8)
        # delta_2 = omega_01 - omega_c - delta by substitution
        assert rec["delta_2"] == pytest.approx(
            rec["omega_01"] - 2e9 - 5e7, rel=1e-12)

    def test_chi_tau_product(self):
        rec = qnd_frequencies(1e-24, 0.2, 1e9, 5e7, 2e8)
        assert rec["chi"] == pytest.approx((2e8) ** 2 / (2 * 5e7))
        assert rec["chi"] * rec["tau"] == pytest.approx(math.pi / 2)

    def test_degeneracy_point_kills_first_transition(self):
        rec = qnd_frequencies(1e-24, 0.5, 1e9, 1e7, 1e8)
        assert rec["omega_01"] == 0.0

    def test_zero_detuning_rejected(self):
        with pytest.raises(ZeroDivisionError):
            qnd_frequencies(1e-24, 0.2, 1e9, 0.0, 1e8)

    def test_negative_frequency_flagged(self):
        # past the degeneracy point the first transition goes negative
        rec = qnd_frequencies(1e-24, 0.9, 1e9, 1e7, 1e8)
        assert rec["negative_frequency_flag"] is True
        rec = qnd_frequencies(charging_energy(600 * ATTO), 0.2, 1e9, 1e7, 1e8)
        assert rec["negative_frequency_flag"] is False

    def test_regime_flag(self):
        e_c = charging_energy(600 * ATTO)
        cold = qnd_frequencies(e_c, 0.2, 1e9, 5e7, 1e8, temperature=0.02)
        hot = qnd_frequencies(e_c, 0.2, 1e9, 5e7, 1e8, temperature=2.0)
        assert cold["regime_ok"] is True
        assert hot["regime_ok"] is False
        assert cold["k_b_T_over_E_c"] == pytest.approx(
            BOLTZMANN * 0.02 / e_c)

    def test_negative_temperature_refused(self):
        e_c = charging_energy(600 * ATTO)
        with pytest.raises(ValueError, match="temperature must be >= 0 K"):
            qnd_frequencies(e_c, 0.2, 1e9, 5e7, 1e8, temperature=-0.02)
        zero = qnd_frequencies(e_c, 0.2, 1e9, 5e7, 1e8, temperature=0.0)
        assert zero["regime_ok"] is True and zero["k_b_T_over_E_c"] == 0.0

    def test_resonance_round_trip(self):
        e_c = charging_energy(600 * ATTO)
        jc = jc_resonance(e_c, 0.3, omega_c=2e9)
        disp = qnd_frequencies(e_c, 0.3, omega_c=2e9, delta=1e7, g=1e8)
        assert jc["omega_01"] == pytest.approx(disp["omega_01"], rel=1e-14)
        assert jc["drive_omega"] == pytest.approx(2e9 + disp["omega_01"])

    def test_resonance_degeneracy_note(self):
        assert jc_resonance(1e-24, 0.5, 1e9)["at_degeneracy_point"]
        assert jc_resonance(1e-24, 0.5, 1e9)["drive_omega"] == 1e9
        assert not jc_resonance(1e-24, 0.3, 1e9)["at_degeneracy_point"]

    def test_degeneracy_window_is_the_agreement_rule(self):
        # n_g agrees with 0.5 within REL at scale 1, and no wider
        assert not jc_resonance(1e-24, 0.5 + 4e-10,
                                3e10)["at_degeneracy_point"]
        assert jc_resonance(1e-24, 0.5 + 5e-13, 3e10)["at_degeneracy_point"]

    def test_monotone_in_gate_charge(self):
        vals = [jc_resonance(1e-24, ng, 1e9)["drive_omega"]
                for ng in np.linspace(0.0, 0.5, 6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
