"""Charge-qubit circuit parameters compiled into effective couplings.

Inputs are SI (farads, joules, kelvin, rad/s); energy outputs are
dual-rendered in joules and GHz (division by the Planck constant).
Physical constants are the SI-defined exact values of e, h and k_B (SI
2019), with hbar = h / (2 pi), fixed in one table below.

Formulas implemented exactly for one capacitively coupled device pair:

    C_0 = C_g + C_J
    Lambda = C_0^a C_0^b + C_c (C_0^a + C_0^b)
    eps_a = 2 e^2 (C_0^b + 2 C_c) / Lambda     (and a<->b)
    delta_eta = E_J^eta
    lambda_pair = e^2 C_c / Lambda
    E_c = e^2 / (2 C_0)      beta = C_c / C_0

For identical devices these give ``eps = 4 E_c`` exactly and the
identity ``lambda_pair * (1 + 2 beta) = 2 beta E_c``, i.e. the popular
``2 beta E_c`` shorthand is accurate only to first order in beta.
``Lambda`` is ``(C_0^a + C_c)(C_0^b + C_c) - C_c^2``, the determinant of
the two-node capacitance matrix, written with no subtraction: it keeps
its digits at any beta, so no coupling strength is refused.

Chain couplings are first order in beta.  The printed forms carry a
dimensional slip (an energy cannot scale as e^2 C / C), so the
denominators here are normalized by ``C_0``; the normalized expressions
reduce exactly to the two-device formula when the intra-chain couplers
vanish, which is asserted in tests:

    lambda_eta = e^2 C_eta / (C_0 (C_0 + 2 (C_c + 2 C_eta)))
    lambda_c   = e^2 C_c   / (C_0 (C_0 + 2 (C_c + C_a + C_b)))

Diagnostics never alter computed values; they only report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import DegenerateNetworkError

ELEMENTARY_CHARGE = 1.602176634e-19
PLANCK = 6.62607015e-34
HBAR = PLANCK / (2 * math.pi)
BOLTZMANN = 1.380649e-23

__all__ = [
    "DeviceParams",
    "DeviceNetwork",
    "EffectiveCouplings",
    "capacitance_determinant",
    "two_device_couplings",
    "chain_couplings",
    "charging_energy",
    "long_range_warning",
    "qnd_frequencies",
    "jc_resonance",
]


@dataclass(frozen=True)
class DeviceParams:
    """One charge qubit: gate/junction capacitance, Josephson energy, bias."""

    c_g: float
    c_j: float
    e_j: float
    n_g: float = 0.5

    def __post_init__(self):
        if self.c_g <= 0 or self.c_j <= 0:
            raise ValueError("capacitances must be positive")
        if not 0.0 <= self.n_g <= 1.0:
            raise ValueError("gate charge must lie in [0, 1]")

    @property
    def c_0(self) -> float:
        return self.c_g + self.c_j


def capacitance_determinant(c_0_a: float, c_0_b: float, c_c: float) -> float:
    """``C_0^a C_0^b + C_c (C_0^a + C_0^b)``, refused unless positive.

    This is ``(C_0^a + C_c)(C_0^b + C_c) - C_c^2`` with the ``C_c^2``
    terms cancelled exactly, so for positive capacitances it is a sum of
    positive products: it keeps its digits at any beta and no coupling
    strength is refused.  It is not positive only when a product
    underflows or a raw input is not physical
    (``DegenerateNetworkError``); an infinite value raises
    ``OverflowError``.
    """
    det = c_0_a * c_0_b + c_c * (c_0_a + c_0_b)
    if math.isinf(det):
        raise OverflowError(f"capacitance determinant {det} is not finite")
    if not det > 0:
        raise DegenerateNetworkError(
            f"capacitance determinant {det} is not positive")
    return det


@dataclass(frozen=True)
class DeviceNetwork:
    """Two coupled devices plus optional intra-chain couplers."""

    device_a: DeviceParams
    device_b: DeviceParams
    c_c: float
    c_a: float = 0.0
    c_b: float = 0.0

    def __post_init__(self):
        if self.c_c < 0 or self.c_a < 0 or self.c_b < 0:
            raise ValueError("coupling capacitances cannot be negative")
        self.lam_det  # refuses a degenerate or overflowing network

    @property
    def lam_det(self) -> float:
        return capacitance_determinant(self.device_a.c_0, self.device_b.c_0,
                                       self.c_c)

    @property
    def is_identical(self) -> bool:
        return math.isclose(self.device_a.c_0, self.device_b.c_0,
                            rel_tol=1e-12)

    @classmethod
    def identical(cls, c_g: float, c_j: float, e_j: float, beta: float,
                  n_g: float = 0.5, c_a: float = 0.0,
                  c_b: float = 0.0) -> "DeviceNetwork":
        """Two identical devices with ``C_c = beta * C_0``."""
        dev = DeviceParams(c_g, c_j, e_j, n_g)
        return cls(dev, dev, beta * dev.c_0, c_a, c_b)


def charging_energy(c_0: float, charge: float = ELEMENTARY_CHARGE) -> float:
    """Single-pair charging energy e^2 / (2 C_0), joules."""
    if c_0 <= 0:
        raise ValueError("capacitance must be positive")
    return charge ** 2 / (2.0 * c_0)


@dataclass(frozen=True)
class EffectiveCouplings:
    """Compiled energies (joules) with a GHz rendering."""

    eps_a: float
    eps_b: float
    delta_a: float
    delta_b: float
    lam_pair: float
    e_c_a: float
    e_c_b: float
    beta_a: float
    beta_b: float
    lam_chain_a: float | None = None
    lam_chain_b: float | None = None
    lam_chain_c: float | None = None
    single_device_z: tuple[float, float] = (0.0, 0.0)
    notes: tuple[str, ...] = field(default=(), compare=False)

    def in_ghz(self, value: float) -> float:
        return value / PLANCK / 1e9

    def as_model_couplings(self) -> dict[str, float]:
        """Map (chain a, chain b, on-site) onto the lattice couplings."""
        if self.lam_chain_a is None:
            raise ValueError("chain couplings were not compiled")
        return {"j_up": self.lam_chain_a, "j_down": self.lam_chain_b,
                "u": self.lam_chain_c}

    def report(self) -> dict:
        out = {
            "eps_a_J": self.eps_a, "eps_b_J": self.eps_b,
            "delta_a_J": self.delta_a, "delta_b_J": self.delta_b,
            "lambda_pair_J": self.lam_pair,
            "lambda_pair_GHz": self.in_ghz(self.lam_pair),
            "E_c_a_J": self.e_c_a, "E_c_a_GHz": self.in_ghz(self.e_c_a),
            "E_c_b_J": self.e_c_b, "E_c_b_GHz": self.in_ghz(self.e_c_b),
            "beta_a": self.beta_a, "beta_b": self.beta_b,
            "single_device_z_J": list(self.single_device_z),
            "single_device_terms_included": False,
            "notes": list(self.notes),
        }
        if self.lam_chain_a is not None:
            out.update({
                "lambda_chain_a_J": self.lam_chain_a,
                "lambda_chain_b_J": self.lam_chain_b,
                "lambda_chain_c_J": self.lam_chain_c,
                "lambda_chain_a_GHz": self.in_ghz(self.lam_chain_a),
                "lambda_chain_b_GHz": self.in_ghz(self.lam_chain_b),
                "lambda_chain_c_GHz": self.in_ghz(self.lam_chain_c),
                "model_couplings_J": self.as_model_couplings(),
            })
        return out


def two_device_couplings(net: DeviceNetwork,
                         charge: float = ELEMENTARY_CHARGE) -> EffectiveCouplings:
    """Exact pair couplings of two capacitively coupled charge qubits.

    Single-device Z coefficients are computed and reported but excluded
    from the lattice mapping (they are assumed nulled by bias tuning).
    """
    lam_det = net.lam_det
    c_0_a, c_0_b, c_c = net.device_a.c_0, net.device_b.c_0, net.c_c
    e2 = charge ** 2
    eps_a = 2 * e2 * ((c_0_b + c_c) + c_c) / lam_det
    eps_b = 2 * e2 * ((c_0_a + c_c) + c_c) / lam_det
    lam = e2 * c_c / lam_det
    sz_a = -0.5 * eps_a * (1 - 2 * net.device_a.n_g)
    sz_b = -0.5 * eps_b * (1 - 2 * net.device_b.n_g)
    return EffectiveCouplings(
        eps_a=eps_a, eps_b=eps_b,
        delta_a=net.device_a.e_j, delta_b=net.device_b.e_j,
        lam_pair=lam,
        e_c_a=charging_energy(net.device_a.c_0, charge),
        e_c_b=charging_energy(net.device_b.c_0, charge),
        beta_a=net.c_c / net.device_a.c_0,
        beta_b=net.c_c / net.device_b.c_0,
        single_device_z=(sz_a, sz_b),
        notes=("single-device terms reported only (assumed nulled)",),
    )


def chain_couplings(net: DeviceNetwork,
                    charge: float = ELEMENTARY_CHARGE) -> EffectiveCouplings:
    """Chain couplings, first order in beta, for identical devices."""
    if not net.is_identical:
        raise ValueError("chain formulas assume identical devices")
    base = two_device_couplings(net, charge=charge)
    c_0 = net.device_a.c_0
    e2 = charge ** 2
    lam_a = e2 * net.c_a / (c_0 * (c_0 + 2 * (net.c_c + 2 * net.c_a)))
    lam_b = e2 * net.c_b / (c_0 * (c_0 + 2 * (net.c_c + 2 * net.c_b)))
    lam_c = e2 * net.c_c / (c_0 * (c_0 + 2 * (net.c_c + net.c_a + net.c_b)))
    return replace(
        base, lam_chain_a=lam_a, lam_chain_b=lam_b, lam_chain_c=lam_c,
        notes=base.notes + ("chain couplings are first order in beta",))


def long_range_warning(beta: float) -> dict:
    """Flag when the next-nearest coupling is not negligible.

    The nearest coupling in units of ``2 E_c`` is ``beta / (1 + 2 beta)``
    exactly; the warning triggers when the next-nearest estimate
    ``beta**2`` exceeds 0.01 (reported as ``threshold``) times that
    scale; a strong coupling (``beta >= 1``) is flagged, not refused.
    """
    nearest_rel = beta / (1.0 + 2.0 * beta)
    estimate = beta ** 2
    threshold = 0.01
    return {
        "next_nearest_estimate": estimate,
        "nearest_relative_coupling": nearest_rel,
        "threshold": threshold,
        "warn": estimate > threshold * nearest_rel,
    }


def qnd_frequencies(e_c: float, n_g: float, omega_c: float, delta: float,
                    g: float, temperature: float | None = None) -> dict:
    """Drive frequencies and validity flags for the dispersive gate.

    All frequencies are angular (rad/s); ``e_c`` is in joules.  The
    transition frequencies of the three lowest charge states are
    ``omega_01 = 2 E_c (1 - 2 n_g) / hbar`` and
    ``omega_12 = 2 E_c (3 - 2 n_g) / hbar``; the drive sits at
    ``omega = omega_12 + omega_c + delta`` and the leakage detunings are
    checked against ``delta``: each must be at least ten times larger.
    The charge regime holds while ``k_B T`` is at most a tenth of ``E_c``;
    a negative ``temperature`` raises (0 K is valid).
    """
    if delta == 0:
        raise ZeroDivisionError("detuning delta must be nonzero")
    if g == 0:
        raise ValueError(f"coupling g must be nonzero, got {g}")
    if temperature is not None and temperature < 0:
        raise ValueError(f"temperature must be >= 0 K, got {temperature}")
    omega_01 = 2 * e_c * (1 - 2 * n_g) / HBAR
    omega_12 = 2 * e_c * (3 - 2 * n_g) / HBAR
    drive = omega_12 + omega_c + delta
    delta_1 = drive - omega_01
    delta_2 = omega_01 + omega_12 - drive
    chi = g ** 2 / (2 * delta)
    tau = math.pi / (2 * chi)
    small = all(d != 0 and abs(delta / d) <= 0.1 for d in (delta_1, delta_2))
    out = {
        "omega_01": omega_01,
        "omega_12": omega_12,
        "drive_omega": drive,
        "delta_1": delta_1,
        "delta_2": delta_2,
        "chi": chi,
        "tau": tau,
        "small_detuning_ok": small,
        "negative_frequency_flag": bool(min(omega_01, omega_12, drive) < 0),
    }
    if temperature is not None:
        out["regime_ok"] = bool(BOLTZMANN * temperature <= 0.1 * e_c)
        out["k_b_T_over_E_c"] = BOLTZMANN * temperature / e_c
    return out


def jc_resonance(e_c: float, n_g: float, omega_c: float) -> dict:
    """Resonant drive frequency for the ancilla swap.

    ``omega = omega_c + omega_01``; the ancilla must sit away from the
    degeneracy point for the qubit transition to be nonzero.
    """
    omega_01 = 2 * e_c * (1 - 2 * n_g) / HBAR
    return {
        "omega_01": omega_01,
        "drive_omega": omega_c + omega_01,
        "at_degeneracy_point": math.isclose(n_g, 0.5, abs_tol=1e-12),
    }
