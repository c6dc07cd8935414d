"""Batch front-end: schema validation, verdicts, deterministic output."""

import argparse
import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semionlab import __version__
from semionlab.cli import _to_csv, _to_json, main, run_lattice, run_spectrum
from semionlab.errors import MAX_CAVITY_LEVELS, MAX_RANDOM_TRIALS

SRC = str(Path(__file__).resolve().parent.parent / "src")


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class _Hang(BaseException):
    """Raised by the alarm of :func:`run_bounded`; a ``BaseException``, so
    no handler in the package catches it."""


def run_bounded(args, capsys, seconds=4.0):
    """:func:`run` under an alarm, so a run that hangs fails, not stalls."""
    def stop(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return run(args, capsys)
    except _Hang:
        capsys.readouterr()
        pytest.fail(f"{args} still running after {seconds} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestLattice:
    def test_report_counts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lat.json", {"rows": 2, "cols": 3})
        code, out, _ = run(["lattice", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["counts"] == {"honeycomb_sites": 12, "bonds": 4,
                                    "complete_plaquettes": 0, "chains": 2}

    def test_invalid_dims_nonzero_exit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"rows": 1, "cols": 0})
        code, out, err = run(["lattice", "--config", cfg], capsys)
        assert code == 2
        assert "error" in err
        assert out == ""

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json",
                           {"rows": 2, "cols": 2, "wat": 1})
        code, _, err = run(["lattice", "--config", cfg], capsys)
        assert code == 2 and "unknown config keys" in err

    @pytest.mark.parametrize("rows,cols", [(65, 64), (10**30, 2)])
    def test_size_limit_exits_2(self, tmp_path, capsys, rows, cols):
        cfg = write_config(tmp_path, "big.json", {"rows": rows, "cols": cols})
        code, out, err = run(["lattice", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "4096" in err
        assert err.count("\n") == 1

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lat.json", {"rows": 2, "cols": 2})
        _, out1, _ = run(["lattice", "--config", cfg], capsys)
        _, out2, _ = run(["lattice", "--config", cfg], capsys)
        assert out1 == out2


class TestSpectrum:
    def test_small_lattice_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "spec.json",
                           {"rows": 1, "cols": 4, "j_up": 1.0,
                            "j_down": 0.8, "u": 1.3})
        code, out, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["equivalence_pass"] is True
        assert len(report["trials"][0]["eigenvalues"]) == 2 ** 8

    def test_zero_couplings(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "spec.json",
                           {"rows": 1, "cols": 2, "j_up": 0,
                            "j_down": 0, "u": 0})
        code, out, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        assert all(v == 0 for v in json.loads(out)["trials"][0]["eigenvalues"])

    def test_oversize_lattice_capacity_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "spec.json", {"rows": 1, "cols": 13})
        code, _, err = run(["spectrum", "--config", cfg], capsys)
        assert code == 2 and "error" in err

    def test_3x3_lattice_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "spec.json", {"rows": 3, "cols": 3})
        code, out, _ = run(["spectrum", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["equivalence_pass"] is True
        assert len(report["trials"][0]["eigenvalues"]) == 2 ** 18

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_random_trials_rejected(self, tmp_path, capsys, trials):
        # zero trials would pass vacuously
        cfg = write_config(tmp_path, "spec.json",
                           {"rows": 2, "cols": 3, "random_trials": trials})
        code, out, err = run(["spectrum", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: random_trials") and err.count("\n") == 1

    @pytest.mark.parametrize("rows,cols,trials,limit", [
        (1, 4, 10**6, str(MAX_RANDOM_TRIALS)),
        (1, 4, 10**30, str(MAX_RANDOM_TRIALS)),
        (1, 2, MAX_RANDOM_TRIALS + 1, str(MAX_RANDOM_TRIALS)),
        # 257 spectra of 2**16 eigenvalues pass the 2**24 budget
        (2, 4, 257, "dense budget"),
    ])
    def test_trial_limits_exit_2(self, tmp_path, capsys, rows, cols, trials,
                                 limit):
        cfg = write_config(tmp_path, "spec.json", {
            "rows": rows, "cols": cols, "random_trials": trials})
        code, out, err = run_bounded(["spectrum", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert limit in err

    @pytest.mark.parametrize("couplings", [
        {"j_up": -5}, {"j_down": 3, "u": 7}, {"j_up": -5, "j_down": 3, "u": 7}])
    def test_random_trials_with_couplings_exit_2(self, tmp_path, capsys,
                                                 couplings):
        # refused before the lattice is built, which 100x100 would fail
        cfg = write_config(tmp_path, "spec.json", {
            "rows": 100, "cols": 100, "random_trials": 1, **couplings})
        code, out, err = run(["spectrum", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == ("error: random_trials draws its own couplings; "
                       f"remove {sorted(couplings)}\n")

    def test_random_trials_deterministic_under_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "spec.json",
                           {"rows": 1, "cols": 2, "random_trials": 2})
        _, out1, _ = run(["spectrum", "--config", cfg, "--seed", "5"], capsys)
        _, out2, _ = run(["spectrum", "--config", cfg, "--seed", "5"], capsys)
        assert out1 == out2

    def test_csv_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "spec.json",
                           {"rows": 1, "cols": 2, "random_trials": 2})
        code, out, _ = run(["spectrum", "--config", cfg, "--format", "csv"],
                           capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,j_up,j_down,u,max_multiset_deviation"
        assert len(lines) == 3


class TestGround:
    def test_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g.json", {"rows": 2, "cols": 3})
        code, out, _ = run(["ground", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(report["checks"].values())
        assert report["degeneracy"] == {"oracle": 4,
                                        "exact_diagonalization": 4,
                                        "predicted": 4}

    def test_3x3_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g.json", {"rows": 3, "cols": 3})
        code, out, _ = run(["ground", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert all(report["checks"].values())
        assert report["degeneracy"] == {"oracle": 8,
                                        "exact_diagonalization": 8,
                                        "predicted": 8}

    def test_mixed_sign_chains_predict_null(self, tmp_path, capsys):
        # the chain picture has no count here; oracle and ED still agree
        cfg = write_config(tmp_path, "g.json", {
            "rows": 1, "cols": 4, "j_up": 1.79, "j_down": -0.75,
            "u": -0.31})
        code, out, err = run(["ground", "--config", cfg], capsys)
        report = json.loads(out)
        assert report["degeneracy"] == {"oracle": 4,
                                        "exact_diagonalization": 4,
                                        "predicted": None}
        assert all(report["checks"].values())
        assert code == 0
        assert err == ""

    @pytest.mark.parametrize("j_up, j_down, u", [(1.0, 0.5, -1.0),
                                                  (-1.0, -0.5, 0.3)])
    def test_signed_couplings_reach_the_minimum(self, tmp_path, capsys, j_up,
                                                j_down, u):
        # the all-+1 plaquette sector lies above the minimum here: 0.0
        # against -12.0 and 4.2 against -7.8 (the 1x4 case above: -1.88
        # against -7.62)
        cfg = write_config(tmp_path, "g.json", {
            "rows": 2, "cols": 3, "j_up": j_up, "j_down": j_down, "u": u})
        code, out, err = run(["ground", "--config", cfg], capsys)
        report = json.loads(out)
        assert code == 0 and err == ""
        assert report["checks"] == {"plaquettes_match_sector": True,
                                    "energy_is_minimum": True,
                                    "variance_small": True,
                                    "degeneracy_match": True}
        assert report["energy"] == pytest.approx(report["min_eigenvalue"],
                                                 abs=1e-10)

    def test_4x4_refused_before_the_state(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "g.json", {"rows": 4, "cols": 4})
        code, out, err = run(["ground", "--config", cfg], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "basis of 32 sites" in err

    def test_variance_never_negative(self, tmp_path):
        # a sum of squares; on one BLAS thread <H^2> - <H>^2 rounded to
        # -2.8e-14 here
        cfg = write_config(tmp_path, "g.json", {
            "rows": 2, "cols": 4, "j_up": 0.7, "j_down": 1.3, "u": 0.4})
        proc = subprocess.run(
            [sys.executable, "-m", "semionlab.cli", "ground", "--config", cfg],
            capture_output=True, text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
        assert proc.returncode == 0
        variance = json.loads(proc.stdout)["energy_variance"]
        assert variance >= 0 and math.copysign(1.0, variance) > 0


class TestBraid:
    def test_odd_crossing_minus_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", {
            "rows": 2, "cols": 3,
            "loop": {"family": "z", "sites": [[0, "black"], [0, "white"],
                                              [1, "black"], [1, "white"]]},
            "crossing": {"family": "x", "sites": [[0, "black"]]},
            "state_check": True,
        })
        code, out, _ = run(["braid", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["operator_phase"] == -1.0
        assert report["state_phase"][0] == pytest.approx(-1.0, abs=1e-10)
        assert report["agree"] is True

    def test_state_check_past_the_dense_budget(self, tmp_path, capsys):
        # 4x4 has 32 qubits; the ground state has 4,096 support entries
        cfg = write_config(tmp_path, "b.json", {
            "rows": 4, "cols": 4,
            "loop": {"family": "z", "sites": [[5, "black"], [5, "white"],
                                              [6, "black"], [6, "white"]]},
            "crossing": {"family": "x", "sites": [[5, "black"]]},
            "state_check": True,
        })
        code, out, _ = run(["braid", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["operator_phase"] == -1.0
        assert report["state_phase"][0] == pytest.approx(-1.0, abs=1e-10)
        assert report["agree"] is True

    @pytest.mark.parametrize("family", ["x", "z"])
    @pytest.mark.parametrize("crossing,shared", [
        ([[0, "black"]], 1),
        ([[0, "black"], [1, "white"]], 2),
    ])
    def test_y_loop_phase_counts_shared_sites(self, tmp_path, capsys,
                                              family, crossing, shared):
        # Y anticommutes with X and with Z on each shared site
        cfg = write_config(tmp_path, "b.json", {
            "rows": 2, "cols": 3,
            "loop": {"family": "y", "sites": [[0, "black"], [0, "white"],
                                              [1, "black"], [1, "white"]]},
            "crossing": {"family": family, "sites": crossing},
            "state_check": True,
        })
        code, out, _ = run(["braid", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["loop_family"] == "y"
        assert report["shared_sites"] == shared
        assert report["operator_phase"] == (-1.0) ** shared
        assert report["agree"] is True

    def test_null_string_plus_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "b.json", {
            "rows": 1, "cols": 2,
            "loop": {"family": "z", "sites": []},
            "crossing": {"family": "x", "sites": [0]},
        })
        code, out, _ = run(["braid", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["operator_phase"] == 1.0


class TestQnd:
    def test_canonical_time_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": 4, "sites": [0, 1, 3]})
        code, out, _ = run(["qnd", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["closed_form_deviation"] < 1e-10
        assert report["canonical_time"] is True

    def test_halved_time_reported_not_crashed(self, tmp_path, capsys):
        import math
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": 2, "sites": [0, 1], "chi": 1.0,
                            "tau": math.pi / 8})
        code, out, _ = run(["qnd", "--config", cfg], capsys)
        assert code == 1  # clean verdict failure, not an error
        report = json.loads(out)
        assert report["canonical_time"] is False
        assert report["closed_form_deviation"] > 0.1


    def test_zero_chi_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": 3, "sites": [0], "chi": 0})
        code, out, err = run(["qnd", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: chi must be nonzero, got 0.0\n"
        proc = subprocess.run(
            [sys.executable, "-m", "semionlab.cli", "qnd", "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "chi" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_register_over_the_budget_rejected(self, tmp_path, capsys):
        # the deviation check holds no register array; the random state
        # over 2 x 2**25 amplitudes is what the budget refuses
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": 25, "sites": [0, 24]})
        code, out, err = run(["qnd", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: state over 2 x 2**25 needs 67108864 "
                              "elements, over the dense budget of ")

    def test_site_outside_register_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": 4, "sites": [-1, 2]})
        code, out, err = run(["qnd", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: site -1 outside register\n"

    @pytest.mark.parametrize("levels", [MAX_CAVITY_LEVELS + 1, 10**6])
    def test_cavity_level_limit_exits_2(self, tmp_path, capsys, levels):
        # 10**6 levels at 4 qubits pass the 2**24 budget
        cfg = write_config(tmp_path, "q.json", {
            "n_qubits": 4, "sites": [0, 1], "cavity_levels": levels})
        code, out, err = run_bounded(["qnd", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: {levels} cavity levels, over the limit of "
                       f"{MAX_CAVITY_LEVELS}\n")

    def test_negative_register_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": -1, "sites": [0]})
        code, out, err = run(["qnd", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: n_qubits must be >= 1, got -1\n"


class TestCircuit:
    def test_beta_fixture(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                            "beta": 0.05})
        code, out, _ = run(["circuit", "--config", cfg], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["beta_a"] == pytest.approx(0.05)
        assert report["E_c_a_GHz"] == pytest.approx(32.28, rel=2e-3)
        assert report["long_range"]["warn"] is True

    @pytest.mark.parametrize("coupling", [{"beta": 1.5}])
    def test_strong_coupling_warns(self, tmp_path, capsys, coupling):
        # beta >= 1 is a valid network: the long-range check only reports
        cfg = write_config(tmp_path, "c.json",
                           {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                            **coupling})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["beta_a"] >= 1
        assert report["long_range"]["warn"] is True

    def test_decoupled(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24})
        code, out, _ = run(["circuit", "--config", cfg], capsys)
        assert code == 0
        assert json.loads(out)["lambda_pair_J"] == 0.0

    def test_degenerate_network_error(self, tmp_path, capsys):
        # C_0^2 of 2e-170 F devices underflows to a zero determinant
        cfg = write_config(tmp_path, "c.json",
                           {"c_g": 1e-170, "c_j": 1e-170, "e_j": 1e-24})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: capacitance determinant 0.0 is not positive\n"

    def test_very_strong_coupling_keeps_the_identity(self, tmp_path, capsys):
        # beta = 5e5: the determinant keeps its digits at any coupling
        cfg = write_config(tmp_path, "c.json",
                           {"c_g": 1e-18, "c_j": 1e-18, "e_j": 1e-24,
                            "beta": 5e5})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 0 and err == ""
        report = json.loads(out)
        beta = report["beta_a"]
        assert beta == pytest.approx(5e5)
        assert report["lambda_pair_J"] * (1 + 2 * beta) == \
            pytest.approx(2 * beta * report["E_c_a_J"], rel=1e-12)

    @pytest.mark.parametrize("extra,missing", [
        ({"omega_c": 3e10, "delta": 1e9}, "['g']"),
        ({"temperature": 0.02}, "['delta', 'g', 'omega_c']"),
    ])
    def test_partial_frequency_keys_exit_2(self, tmp_path, capsys, extra,
                                           missing):
        # omega_c, delta and g go together, and temperature needs them
        cfg = write_config(tmp_path, "c.json", {**_CIRCUIT, **extra})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: missing config keys: {missing} "
                       "(frequencies need omega_c, delta and g)\n")

    def test_coupling_capacitance_key_is_unknown(self, tmp_path, capsys):
        # the coupler is set by beta alone
        cfg = write_config(tmp_path, "c.json", {**_CIRCUIT, "c_c": 9e-16})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: unknown config keys: ['c_c']\n"

    def test_negative_temperature_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            **_CIRCUIT, "omega_c": 3e10, "delta": 1e9, "g": 1e8,
            "temperature": -0.02})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: temperature must be >= 0 K, got -0.02\n"

    def test_zero_coupling_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24, "beta": 0.05,
            "omega_c": 3e10, "delta": 1e9, "g": 0})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: coupling g must be nonzero, got 0.0\n"


@pytest.mark.parametrize("command,payload", [
    ("qnd", {"n_qubits": 3, "sites": 5}),
    ("lattice", {"rows": "2", "cols": [3]}),
])
def test_mistyped_config_values_exit_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "bad.json", payload)
    code, out, err = run([command, "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: config key ") and err.count("\n") == 1
    proc = subprocess.run(
        [sys.executable, "-m", "semionlab.cli", command, "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr


_CIRCUIT = {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24, "beta": 0.05}
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,payload,key", [
    ("circuit", {**_CIRCUIT, "c_g": _NAN}, "c_g"),
    ("circuit", {**_CIRCUIT, "omega_c": 3e10, "delta": 1e9, "g": 1e8,
                 "temperature": _INF}, "temperature"),
    ("spectrum", {"rows": 1, "cols": 2, "j_up": _NAN}, "j_up"),
    ("ground", {"rows": 1, "cols": 2, "u": -_INF}, "u"),
    ("qnd", {"n_qubits": 3, "sites": [0], "chi": _NAN}, "chi"),
    ("qnd", {"n_qubits": 3, "sites": [0], "tau": _INF}, "tau"),
    ("spectrum", {"rows": 1, "cols": 2, "u": _NAN}, "u"),
    ("ground", {"rows": 1, "cols": 2, "j_down": _INF}, "j_down"),
    ("circuit", {**_CIRCUIT, "beta": -_INF}, "beta"),
    # an absent temperature is left out, not null
    ("circuit", {**_CIRCUIT, "omega_c": 3e10, "delta": 1e9, "g": 1e8,
                 "temperature": None}, "temperature"),
])
def test_non_finite_numbers_and_bad_tolerances_exit_2(tmp_path, capsys,
                                                      command, payload, key):
    cfg = write_config(tmp_path, "bad.json", payload)
    code, out, err = run([command, "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: config key {key!r} must be a finite ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,payload", [
    ("qnd", {"n_qubits": 10**30, "sites": [0]}),
    ("circuit", {**_CIRCUIT, "c_g": 1e300}),
])
def test_overflow_exits_2(tmp_path, capsys, command, payload):
    cfg = write_config(tmp_path, "big.json", payload)
    code, out, err = run([command, "--config", cfg], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: numeric overflow: ")
    assert err.count("\n") == 1


def test_out_file_written(tmp_path, capsys):
    cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
    out_path = tmp_path / "report.json"
    code, out, _ = run(["lattice", "--config", cfg, "--out", str(out_path)],
                       capsys)
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["counts"]["bonds"] == 1


def test_unwritable_out_path_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
    out_path = str(tmp_path / "missing" / "report.json")
    code, out, err = run(["lattice", "--config", cfg, "--out", out_path],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write output {out_path}: ")
    assert err.count("\n") == 1


def test_invalid_utf8_config_names_the_file(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b'{"rows": 1, "cols": 2, "note": "\xff"}')
    code, out, err = run(["lattice", "--config", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read config {path}: 'utf-8' codec")
    assert err.count("\n") == 1


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
    proc = subprocess.run(
        [sys.executable, "-m", "semionlab.cli", "lattice", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"]["honeycomb_sites"] == 4


def test_cli_import_leaves_out_the_eigensolver(tmp_path):
    # every spectrum is exact from the stabilizer tableau and the circuit
    # constants are SI-defined, so numpy is the only runtime dependency:
    # neither an import nor a `circuit` or `qnd` run may load scipy
    circuit = write_config(tmp_path, "circuit.json", {
        "c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24, "beta": 0.05,
        "c_a": 25e-18, "c_b": 20e-18})
    qnd = write_config(tmp_path, "qnd.json",
                       {"n_qubits": 10, "sites": [0, 2, 3, 7, 9]})
    script = (
        "import sys, semionlab.cli\n"
        "codes = [semionlab.cli.main([cmd, '--config', cfg,"
        " '--out', cfg + '.out']) for cmd, cfg in"
        f" (('circuit', {circuit!r}), ('qnd', {qnd!r}))]\n"
        "print(codes, sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (0, "[0, 0] []\n", "")


def test_cli_run_leaves_out_argparse(tmp_path):
    # the front end reads the canonical form without argparse, which
    # costs a small run a quarter of its time; any other form loads it
    cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
    out = cfg + ".out"
    canonical = [
        ["lattice", "--config", cfg],
        ["lattice", f"--config={cfg}"],
        ["lattice", "--config", cfg, "--out", out],
        ["lattice", "--config", cfg, "--format", "csv"],
        ["lattice", "--config", cfg, "--seed", "3"],
        ["lattice", "--seed=-3", f"--out={out}", "--format=json",
         "--config", cfg],
        ["lattice", "--format", "csv", "--config", "missing.json",
         "--seed", "1", "--config", cfg, "--format", "json", "--seed=2"],
    ]
    script = (
        "import contextlib, io, json, sys, semionlab.cli\n"
        "runs = []\n"
        f"for argv in {[*canonical, ['lattice', '--conf', cfg]]!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = semionlab.cli.main(argv)\n"
        "    runs.append([code, out.getvalue(), 'argparse' in sys.modules])\n"
        "print(json.dumps(runs))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stderr) == (0, "")
    runs = json.loads(proc.stdout)
    assert [(code, loaded) for code, _, loaded in runs] == \
        [(0, False)] * len(canonical) + [(0, True)]
    stdouts = [stdout for _, stdout, _ in runs]
    assert stdouts[0] and stdouts[3].startswith("key,")
    assert stdouts == [stdouts[0], stdouts[0], "", stdouts[3], stdouts[0],
                       "", stdouts[0], stdouts[0]]


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308, 0.1, -2.5]),
    st.floats(allow_nan=False, allow_infinity=False))
# float64 arrays made of runs of equal neighbours, some of them strided
_ARRAYS = st.lists(st.tuples(_FLOATS, st.integers(1, 4)), max_size=8).map(
    lambda runs: np.array([v for v, n in runs for _ in range(n)],
                          dtype=np.float64))
_LEAVES = st.one_of(_ARRAYS, _ARRAYS.map(lambda a: a[::-2]), _FLOATS,
                    st.integers(), st.text(max_size=3), st.booleans(),
                    st.none())


# keys with format characters, escapes and a lone surrogate
_KEYS = st.one_of(st.text(max_size=4), st.sampled_from(
    ["%", "%s", "%%", "a%(b)s", "\"", "\\", "\n", "\t", "\u00e9",
     "\u2028", "\udc80", "{", "]"]))


def _tables(children):
    """Containers of ``children``, among them the shapes ``_to_json``
    writes by column: lists of dicts with one key set and lists of lists
    (or tuples) of one length; the others mix scalars and containers."""
    same_keys = st.lists(_KEYS, min_size=1, max_size=3, unique=True).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(
            {key: children for key in keys}), min_size=1, max_size=4))
    same_length = st.integers(1, 3).flatmap(lambda n: st.lists(
        st.one_of(st.lists(children, min_size=n, max_size=n),
                  st.tuples(*[children] * n)), min_size=1, max_size=4))
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(_KEYS, children, max_size=4),
                     same_keys, same_length)


def _as_lists(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: _as_lists(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_as_lists(val) for val in obj]
    return obj


class TestOutputBytes:
    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[]], [{}],
        [{"b": 1, "a": 2}, {"c": [1, 2]}], {"y": [1, 2], "x": [3]},
        {"t": (1, (2.5, "s")), "u": ()},
        [-0.0, 0.1],
        {"b": True, "f": False, "n": None, "i": -3},
        {"\u00e9t\u00e9": "\u20ac \"q\" \\ \n", "k": ["\u00fc"]},
        {"deep": {"er": [[1, [2, {"z": None, "a": [True]}]], {}]}},
        "text", 7, 2.5, None, False,
    ])
    def test_to_json_matches_json_dumps(self, obj):
        assert _to_json(obj) == json.dumps(obj, sort_keys=True, indent=2)

    @pytest.mark.parametrize("command,payload", [
        ("lattice", {"rows": 2, "cols": 2}),
        ("lattice", {"rows": 8, "cols": 8}),
        ("spectrum", {"rows": 1, "cols": 4, "random_trials": 3}),
        ("ground", {"rows": 2, "cols": 2}),
        ("braid", {"rows": 2, "cols": 3,
                   "loop": {"family": "z",
                            "sites": [[0, "black"], [0, "white"],
                                      [1, "black"], [1, "white"]]},
                   "crossing": {"family": "x", "sites": [[0, "black"]]},
                   "state_check": True}),
        ("qnd", {"n_qubits": 4, "sites": [0, 1, 3], "cavity_levels": 3}),
        ("circuit", {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                     "beta": 0.05, "c_a": 25e-18, "c_b": 20e-18}),
        ("circuit", {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                     "beta": 0.05, "omega_c": 3e10, "delta": 1e9,
                     "g": 1e8, "temperature": 0.02}),
    ])
    def test_report_is_indented_json(self, tmp_path, capsys, command,
                                     payload):
        cfg = write_config(tmp_path, "cfg.json", payload)
        code, out, _ = run([command, "--config", cfg], capsys)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n"
        out_path = tmp_path / "report.json"
        run([command, "--config", cfg, "--out", str(out_path)], capsys)
        assert out_path.read_bytes() == out.encode()

    @pytest.mark.parametrize("obj", [
        [float("nan"), float("inf"), -float("inf"), -0.0, 0.1],
        {"a": [1, {"b": float("inf")}]}, -float("inf"), [0.1, float("nan")],
        np.array([0.0, float("nan")]), np.array([1.0, 1.0, -float("inf")]),
        {"e": np.array([float("inf")] * 3), "f": 1},
    ])
    def test_non_finite_refused(self, obj):
        with pytest.raises(ValueError):
            _to_json(obj)

    @pytest.mark.parametrize("obj", [
        np.arange(3), np.zeros((2, 2)), np.zeros(3, dtype=np.float32),
        np.zeros(3, dtype=complex), np.zeros(()),
        {"a": [np.zeros(2, dtype=">f8")]},
    ])
    def test_other_arrays_refused_like_json_dumps(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj)
        with pytest.raises(TypeError):
            _to_json(obj)

    def test_csv_refuses_non_finite(self):
        assert _to_csv({"a": 1.5, "b": "x"}) == "key,value\na,1.5\nb,'x'\n"
        with pytest.raises(ValueError):
            _to_csv({"a": float("inf")})
        with pytest.raises(ValueError):
            _to_csv({"vortex_map": [[1.0, float("nan")]]})

    @settings(deadline=None, max_examples=300)
    @given(st.recursive(_LEAVES, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=4)),
        max_leaves=12))
    @example(np.zeros(0))
    @example(np.array([0.0, -0.0, -0.0, 0.0]))
    @example({"x": [np.array([5e-324]), np.array([1e308, 1e308, -1e308])]})
    def test_arrays_written_as_lists(self, obj):
        assert _to_json(obj) == json.dumps(_as_lists(obj), sort_keys=True,
                                           indent=2)

    @settings(deadline=None, max_examples=300)
    @given(st.recursive(_LEAVES, _tables, max_leaves=16))
    @example([{"%s": 1, "b%": [2, 3]}, {"%s": 4, "b%": [5, 6]}])
    @example([{"a": 1, "b": 2}, {"a": 1, "c": 2}])
    @example([{"a": 1}, {"a": 2, "b": 3}])
    @example([{"a": 1}, {"a": [1, {"b": None}]}, {"a": "x"}])
    @example([[1, [2]], (3, [4]), [5, ()], [6, []]])
    @example([{"k": np.array([0.5, 0.5])}, {"k": np.array([-0.0])}])
    def test_columns_written_as_json_dumps(self, obj):
        assert _to_json(obj) == json.dumps(_as_lists(obj), sort_keys=True,
                                           indent=2)

    @pytest.mark.parametrize("obj", [
        [{"a": 1.0, "b": 2}, {"a": float("nan"), "b": 3}],
        [[1.0, 2.0], [3.0, float("inf")]],
        [(0.5, "s"), (-float("inf"), "t")],
        {"x": [{"k": [0.5, -float("inf")]}, {"k": [1.0, 2.0]}]},
        [{"a": [1, 2]}, {"a": [3, float("nan")]}],
        [1, [2.0], float("inf")],
    ])
    def test_non_finite_in_a_column_refused(self, obj):
        with pytest.raises(ValueError):
            json.dumps(obj, allow_nan=False)
        with pytest.raises(ValueError):
            _to_json(obj)

    @pytest.mark.parametrize("dims", [(r, c) for r in range(1, 9)
                                      for c in range(2, 9)])
    def test_lattice_bytes_are_json_dumps(self, tmp_path, capsys, dims):
        payload = {"rows": dims[0], "cols": dims[1]}
        cfg = write_config(tmp_path, "lattice.json", payload)
        code, out, err = run(["lattice", "--config", cfg], capsys)
        report, ok = run_lattice(payload, argparse.Namespace(seed=0))
        assert (code, err, ok) == (0, "", True)
        assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("payload", [
        {"rows": 1, "cols": 4, "random_trials": 3},
        {"rows": 2, "cols": 3},
        {"rows": 2, "cols": 4},
        {"rows": 2, "cols": 3, "j_up": 0, "j_down": 0, "u": 0},
    ])
    def test_spectrum_bytes_are_the_list_encoding(self, tmp_path, capsys,
                                                  payload):
        cfg = write_config(tmp_path, "spec.json", payload)
        code, out, _ = run(["spectrum", "--config", cfg, "--seed", "4"],
                           capsys)
        report, ok = run_spectrum(payload, argparse.Namespace(seed=4))
        assert code == (0 if ok else 1)
        assert all(isinstance(t["eigenvalues"], np.ndarray)
                   for t in report["trials"])
        assert out == json.dumps(_as_lists(report), sort_keys=True,
                                 indent=2) + "\n"


class TestNonFiniteResults:
    def test_circuit_infinite_frequency_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            **_CIRCUIT, "omega_c": 3e10, "delta": 1e-300, "g": 1e8})
        code, out, err = run(["circuit", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["spectrum", "ground"])
    def test_overflowing_couplings_exit_2(self, tmp_path, command):
        # numpy would warn on stderr and the report would hold NaN
        cfg = write_config(tmp_path, "big.json", {
            "rows": 1, "cols": 2, "j_up": 1e308, "j_down": 1e308,
            "u": 1e308})
        proc = subprocess.run(
            [sys.executable, "-m", "semionlab.cli", command, "--config", cfg],
            capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: ")
        assert proc.stderr.count("\n") == 1


# -- energy verdicts in the units of the couplings -----------------------

# the model couplings in joules that CLI circuit prints for the README
# circuit config
_JOULES = {"j_up": 1.407330025512922e-24, "j_down": 1.1562927777187252e-24,
           "u": 1.711313311023713e-24}


def _cli_report(command, payload):
    """``(exit code, report)`` of one in-process run on ``payload``."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out):
        code = main([command, "--config",
                     write_config(Path(tmp), "cfg.json", payload)])
    return code, json.loads(out.getvalue())


def _verdicts(rows, cols, couplings):
    """Every verdict and count of ``ground`` and ``spectrum``."""
    payload = {"rows": rows, "cols": cols, **couplings}
    ground_code, ground = _cli_report("ground", payload)
    spectrum_code, spec = _cli_report("spectrum", payload)
    return (ground_code, ground["checks"], ground["degeneracy"],
            spectrum_code, spec["equivalence_pass"])


class TestScaleFreeVerdicts:
    @settings(max_examples=30, deadline=None)
    @given(dims=st.sampled_from([(1, 2), (1, 3), (2, 2), (1, 4), (2, 3),
                                 (3, 2), (2, 4)]),
           magnitudes=st.tuples(*[st.floats(0.2, 2.0)] * 3),
           signs=st.tuples(*[st.sampled_from((-1.0, 1.0))] * 3),
           k=st.integers(-12, 12))
    def test_scaled_couplings_keep_every_verdict(self, dims, magnitudes,
                                                 signs, k):
        base = dict(zip(("j_up", "j_down", "u"),
                        (s * m for s, m in zip(signs, magnitudes))))
        scaled = {key: c * 10.0 ** k for key, c in base.items()}
        assert _verdicts(*dims, scaled) == _verdicts(*dims, base)

    @pytest.mark.parametrize("couplings", [
        _JOULES, {"j_up": 1e-9, "j_down": 1e-9, "u": 1e-9}],
        ids=["joules", "nano"])
    def test_small_couplings_find_the_predicted_ground_states(self,
                                                              couplings):
        # an absolute window counted every level (joules) or 340 of them
        # (1e-9) as ground states
        code, report = _cli_report("ground",
                                   {"rows": 2, "cols": 3, **couplings})
        assert code == 0 and all(report["checks"].values())
        assert report["degeneracy"] == {"oracle": 4,
                                        "exact_diagonalization": 4,
                                        "predicted": 4}

    def test_spectrum_window_follows_the_couplings(self, monkeypatch):
        # a shift of 1e-30 J is 1e-7 of S here, far outside the window,
        # though an absolute 1e-10 window would take it
        import semionlab.cli as cli
        payload = {"rows": 2, "cols": 3, **_JOULES}
        assert _cli_report("spectrum", payload)[0] == 0
        exact = cli.spectrum
        monkeypatch.setattr(cli, "spectrum", lambda ham: exact(ham) + 1e-30)
        code, report = _cli_report("spectrum", payload)
        assert code == 1 and report["equivalence_pass"] is False

    def test_coupling_under_the_window_is_a_stated_limit(self):
        # u is 1e-300 of the chain couplings, so the levels it splits
        # agree within the window: ED and the oracle count 16 ground
        # states where the chain picture has 4 (exact ties need integer
        # level keys)
        code, report = _cli_report("ground", {"rows": 2, "cols": 3,
                                              "j_up": 1.0, "j_down": 1.0,
                                              "u": 1e-300})
        assert code == 1
        assert report["degeneracy"] == {"oracle": 16,
                                        "exact_diagonalization": 16,
                                        "predicted": 4}

    @pytest.mark.parametrize("command,payload", [
        ("spectrum", {"rows": 1, "cols": 2, "tolerance": 1e-10}),
        ("qnd", {"n_qubits": 3, "sites": [0], "tolerance": 1e-10}),
    ])
    def test_tolerance_is_an_unknown_key(self, tmp_path, capsys, command,
                                         payload):
        cfg = write_config(tmp_path, "tol.json", payload)
        assert run([command, "--config", cfg], capsys) == \
            (2, "", "error: unknown config keys: ['tolerance']\n")


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse grammar the CLI front end keeps, built as it once was."""
    parser = argparse.ArgumentParser(
        prog="semionlab",
        description="anyon lattice model and circuit parameter toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("lattice", "spectrum", "ground", "braid", "qnd", "circuit"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
    return parser


_REFERENCE = _reference_parser()


class _Parsed(Exception):
    """Carries the options a patched runner received out of ``main``."""


def _front_end(argv, reference=False, columns="80"):
    """``(exit code, options, stdout, stderr)`` of one argv: the code is
    ``None`` and the options a dict when the argv parses.

    ``main`` runs with every runner replaced by one that raises the
    options it gets, and no config is read; ``reference=True`` parses
    with ``_REFERENCE`` instead.  ``COLUMNS`` is set to ``columns``, at
    which the reference wraps help text 2 columns short."""
    import semionlab.cli as cli

    def record(cfg, args):
        raise _Parsed(vars(args))

    out, err = io.StringIO(), io.StringIO()
    code = options = None
    with mock.patch.dict(os.environ, {"COLUMNS": columns}), \
            mock.patch.object(cli, "_load_config", lambda path, cmd: {}), \
            mock.patch.dict(cli._RUNNERS, dict.fromkeys(cli._RUNNERS,
                                                        record)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if reference:
                options = vars(_REFERENCE.parse_args(argv))
            else:
                main(argv)
        except SystemExit as exc:
            code = exc.code
        except _Parsed as exc:
            options = exc.args[0]
    return code, options, out.getvalue(), err.getvalue()


# tokens of each kind argparse told apart: commands, values, negative
# numbers, flags in full, by prefix, with "=", unknown, "-h" clusters,
# "--" and ambiguous ones.  An "=" value of exactly "--" is left out:
# argparse before 3.13 turns it into an empty list, where the front end
# takes it as the text "--" (test_accepted_forms, _REFUSALS).
_ARGV_TOKENS = [
    "lattice", "qnd", "circuit", "nosuch", "", "x", "a b", "-", "--",
    "-1", "-.5", "-1x", "-x", "-x y", "-h", "-hh", "-hx", "-h=", "-h=h",
    "-hh=x", "--h", "--help", "--help=x", "--version", "--v", "--ver=1",
    "--=x", "--config", "--conf", "--c", "--config=a", "--c=a=b",
    "--config=", "--c b", "--out", "--o=x", "--format", "--f", "json",
    "csv", "xml", "--format=csv", "--seed", "--s", "--seed=3", "3", " 7 ",
    "1.5", "--seed=-2", "--nosuch", "--nosuch=1", "---", "--seed=1_0",
]


# (argv, prog, error line) of argv the CLI refuses; tools/cli_bytes.py
# runs each of them on two trees
_REFUSALS = [
    (["lattice"], "semionlab lattice",
     "the following arguments are required: --config"),
    (["lattice", "--config", "c", "--format", "xml"], "semionlab lattice",
     "argument --format: invalid choice: 'xml' (choose from 'json', "
     "'csv')"),
    (["lattice", "--config", "c", "--seed", "1.5"], "semionlab lattice",
     "argument --seed: invalid int value: '1.5'"),
    (["lattice", "--config", "c", "--nosuch"], "semionlab",
     "unrecognized arguments: --nosuch"),
    (["lattice", "--config"], "semionlab lattice",
     "argument --config: expected one argument"),
    (["lattice", "--config", "c", "--format", "xml", "-h"],
     "semionlab lattice",
     "argument --format: invalid choice: 'xml' (choose from 'json', "
     "'csv')"),
    ([], "semionlab", "the following arguments are required: command"),
    (["--=x"], "semionlab",
     "ambiguous option: --=x could match --help, --version"),
    (["lattice", "--config", "c", "--"], "semionlab",
     "unrecognized arguments: --"),
    (["lattice", "--config", "--", "c"], "semionlab lattice",
     "argument --config: expected one argument"),
    # argparse before 3.13 skipped the type and choices checks of these
    (["lattice", "--config", "c", "--s=--"], "semionlab lattice",
     "argument --seed: invalid int value: '--'"),
    (["lattice", "--config", "c", "--f=--"], "semionlab lattice",
     "argument --format: invalid choice: '--' (choose from 'json', 'csv')"),
]


class TestParser:
    @settings(max_examples=1500, deadline=None)
    @given(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=2),
           st.sampled_from(["lattice", "qnd", "spectrum", "nosuch", "--"]),
           st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6))
    def test_argv_read_as_argparse_read_it(self, head, command, tail):
        argv = [*head, command, *tail]
        assert _front_end(argv) == _front_end(argv, reference=True)

    @pytest.mark.parametrize("argv, options", [
        (["ground", "--config=c.json"], {}),
        (["ground", "--conf", "c.json"], {}),
        (["ground", "--c=c.json", "--f", "csv", "--s", "-3"],
         {"format": "csv", "seed": -3}),
        (["ground", "--seed", "1", "--config", "a", "--seed", "2",
          "--config", "c.json", "--out", "r", "--out=s"],
         {"seed": 2, "out": "s"}),
        (["ground", "--config", "c.json", "--seed", " 7 "], {"seed": 7}),
        # argparse before 3.13 made these values an empty list
        (["ground", "--config=c.json", "--out=--"], {"out": "--"}),
        (["ground", "--conf=--"], {"config": "--"}),
        (["ground", "--config=c.json", "--o=--"], {"out": "--"}),
    ])
    def test_accepted_forms(self, argv, options):
        assert _front_end(argv) == (None, {
            "command": "ground", "config": "c.json", "out": None,
            "format": "json", "seed": 0, **options}, "", "")

    @pytest.mark.parametrize("argv, prog, error", _REFUSALS)
    def test_refusals(self, argv, prog, error):
        code, options, out, err = _front_end(argv)
        assert (code, options, out) == (2, None, "")
        assert err.startswith("usage: semionlab ")
        assert err.endswith(f"\n{prog}: error: {error}\n")

    @pytest.mark.parametrize("argv, usage", [
        (["-h"], "semionlab [-h]"), (["--he"], "semionlab [-h]"),
        (["-hh"], "semionlab [-h]"), (["qnd", "-h"], "semionlab qnd [-h]"),
        (["qnd", "--config", "c", "--help"], "semionlab qnd [-h]"),
    ] + [([command, "-h"], f"semionlab {command} [-h]") for command in
         ("lattice", "spectrum", "ground", "braid", "circuit")])
    def test_help(self, argv, usage):
        code, options, out, err = _front_end(argv)
        assert (code, options, err) == (0, None, "")
        assert out.startswith(f"usage: {usage}")
        assert out == _front_end(argv, reference=True)[2]

    @pytest.mark.parametrize("argv", [
        ["-h"], ["qnd", "-h"], ["--version"], [], ["nosuch"], ["lattice"],
        ["lattice", "--config", "c", "--format", "xml"]])
    def test_help_and_errors_ignore_the_terminal_width(self, argv):
        # every usage line is 81 to 93 columns unwrapped, so a width
        # read from the terminal would wrap it differently at 50 or 200
        at_80 = _front_end(argv)
        for columns in ("50", "200"):
            assert _front_end(argv, columns=columns) == at_80

    def test_config_double_dash_names_the_file(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        for argv in (["lattice", "--conf=--"], ["lattice", "--config=--"]):
            code, out, err = run(argv, capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: cannot read config --: ")
            assert err.count("\n") == 1

    def test_real_run_through_each_form(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
        code, expected, _ = run(["lattice", "--config", cfg], capsys)
        assert code == 0
        for argv in (["lattice", f"--config={cfg}"],
                     ["lattice", "--conf", cfg],
                     ["lattice", "--config", "missing.json", "--config",
                      cfg]):
            assert run(argv, capsys) == (0, expected, "")

    def test_reuse_matches_fresh_process(self, tmp_path, capsys):
        spec = write_config(tmp_path, "spec.json",
                            {"rows": 1, "cols": 2, "random_trials": 2})
        lat = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
        qnd = write_config(tmp_path, "q.json",
                           {"n_qubits": 3, "sites": [0, 2]})
        env = {**os.environ, "PYTHONPATH": SRC}
        # flags set by one call must not leak into the next
        for argv in (["spectrum", "--config", spec, "--seed", "5",
                      "--format", "csv"],
                     ["lattice", "--config", lat],
                     ["spectrum", "--config", spec],
                     ["qnd", "--config", qnd, "--seed", "3"],
                     ["qnd", "--config", qnd, "--format", "csv"]):
            code, out, _ = run(argv, capsys)
            proc = subprocess.run(
                [sys.executable, "-m", "semionlab.cli", *argv],
                capture_output=True, text=True, env=env)
            assert (proc.returncode, proc.stdout) == (code, out), \
                f"{argv}: fresh process stderr: {proc.stderr!r}"

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == __version__ + "\n"

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["nosuch"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: semionlab ")
        assert "invalid choice: 'nosuch'" in err


# -- the input contract, one key at a time ------------------------------

# per subcommand, a small valid config with every optional key set
_FULL_CONFIGS = {
    "lattice": {"rows": 1, "cols": 2},
    "spectrum": {"rows": 1, "cols": 2, "random_trials": 2},
    # random_trials draws the couplings, so it refuses them
    "spectrum-couplings": {"rows": 1, "cols": 2, "j_up": 1.0, "j_down": 0.5,
                           "u": 0.3},
    "ground": {"rows": 1, "cols": 2, "j_up": 1.0, "j_down": 0.5, "u": 0.3},
    "braid": {"rows": 1, "cols": 2,
              "loop": {"family": "z", "sites": [0, 1]},
              "crossing": {"family": "x", "sites": [1]},
              "state_check": True},
    "qnd": {"n_qubits": 3, "sites": [0, 2], "chi": 1.0, "tau": math.pi / 2,
            "cavity_levels": 2},
    "circuit": {**_CIRCUIT, "n_g": 0.3, "c_a": 25e-18, "c_b": 20e-18,
                "omega_c": 3e10, "delta": 1e9, "g": 1e8, "temperature": 0.02},
}

_EDGE_VALUES = [0, 1, -1, 10**6, 10**30, 1e-300, -1e-300, 1e300, -1e300,
                _NAN, _INF, -_INF, "a string", None, True, [], {}]


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _contract_breach(code, out, err, fmt, caught) -> str | None:
    """What the run broke of the CLI contract, or ``None``."""
    if caught:
        return f"warnings {[str(w.message) for w in caught]}"
    if code not in (0, 1, 2):
        return f"exit code {code!r}"
    if code == 2:
        if out or not err.startswith("error: ") or err.count("\n") != 1 \
                or not err.endswith("\n"):
            return f"exit 2 with stdout {out[:80]!r}, stderr {err!r}"
        return None
    if err:
        return f"exit {code} with stderr {err!r}"
    try:
        if fmt == "json":
            json.loads(out, parse_constant=_refuse_constant)
        else:
            for cell in out.replace("\n", ",").split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    raise ValueError(f"non-finite cell {cell!r}")
    except ValueError as exc:
        return f"exit {code} with bad stdout: {exc}"
    return None


def _one_key_mutations(base):
    """``(label, config)`` for each key of ``base``, and each key of an
    object value, set to each edge value."""
    for key, old in base.items():
        for value in _EDGE_VALUES:
            yield f"{key}={value!r}", {**base, key: value}
            for sub in old if isinstance(old, dict) else ():
                yield (f"{key}.{sub}={value!r}",
                       {**base, key: {**old, sub: value}})


@pytest.mark.parametrize("command", sorted(_FULL_CONFIGS))
def test_every_one_key_mutation_keeps_the_contract(tmp_path, capsys,
                                                   command):
    """Each key of a full config set to each edge value, in JSON and CSV:
    exit 0, 1 or 2; exit 2 with no stdout and one ``error:`` line; else
    no stderr and stdout without NaN or Infinity.  A run still going
    after two seconds counts as a breach."""
    base = _FULL_CONFIGS[command]
    command = command.split("-")[0]
    assert run([command, "--config", write_config(tmp_path, "base.json",
                                                  base)], capsys)[0] == 0
    breaches = []
    for mutation, payload in _one_key_mutations(base):
        cfg = write_config(tmp_path, "cfg.json", payload)
        for fmt in ("json", "csv"):
            label = f"{mutation} --format {fmt}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code, out, err = run_bounded(
                        [command, "--config", cfg, "--format", fmt],
                        capsys, seconds=2.0)
                except pytest.fail.Exception as exc:
                    breaches.append(f"{label}: {exc}")
                    continue
                except Exception as exc:
                    capsys.readouterr()
                    breaches.append(f"{label}: raised {exc!r}")
                    continue
            breach = _contract_breach(code, out, err, fmt, caught)
            if breach:
                breaches.append(f"{label}: {breach}")
    assert not breaches, "\n".join(breaches)
