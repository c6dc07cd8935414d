"""Batch front-end: schema validation, verdicts, deterministic output."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest

from semionlab import __version__
from semionlab.cli import _to_json, main


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


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

    def test_variance_never_negative(self, tmp_path):
        # on one BLAS thread <H^2> - <H>^2 rounds to -2.8e-14 here
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

    def test_site_outside_register_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": 4, "sites": [-1, 2]})
        code, out, err = run(["qnd", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: site -1 outside register\n"

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

    @pytest.mark.parametrize("coupling", [{"beta": 1.5},
                                          {"c_c": 900e-18}])
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
        cfg = write_config(tmp_path, "c.json",
                           {"c_g": 1e-18, "c_j": 1e-18, "e_j": 1e-24,
                            "c_c": 1e-12})
        code, _, err = run(["circuit", "--config", cfg], capsys)
        assert code == 2 and "error" in err

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
    ("spectrum", {"rows": 1, "cols": 2, "j_up": _NAN, "tolerance": _INF},
     "j_up"),
    ("ground", {"rows": 1, "cols": 2, "u": -_INF}, "u"),
    ("qnd", {"n_qubits": 3, "sites": [0], "chi": _NAN}, "chi"),
    ("spectrum", {"rows": 1, "cols": 2, "tolerance": _INF}, "tolerance"),
    ("spectrum", {"rows": 1, "cols": 2, "tolerance": 0}, "tolerance"),
    ("qnd", {"n_qubits": 3, "sites": [0], "tolerance": -1e-10},
     "tolerance"),
    ("qnd", {"n_qubits": 3, "sites": [0], "tolerance": _NAN}, "tolerance"),
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


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
    proc = subprocess.run(
        [sys.executable, "-m", "semionlab.cli", "lattice", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"]["honeycomb_sites"] == 4


def test_cli_import_leaves_out_the_eigensolver():
    # every spectrum is exact from the stabilizer tableau; nothing in the
    # package needs LAPACK's eigensolver, so the CLI must not load it
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, semionlab.cli; print('scipy.linalg' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout == "False\n"


class TestOutputBytes:
    @pytest.mark.parametrize("obj", [
        {}, [], (), {"a": {}, "b": [], "c": [[], {}]}, [[]], [{}],
        [{"b": 1, "a": 2}, {"c": [1, 2]}], {"y": [1, 2], "x": [3]},
        {"t": (1, (2.5, "s")), "u": ()},
        [float("nan"), float("inf"), -float("inf"), -0.0, 0.1],
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
        ("circuit", {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                     "beta": 0.05, "omega_c": 3e10, "delta": 1e9,
                     "g": 1e8, "temperature": None}),
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


class TestParser:
    def test_parser_built_once(self, tmp_path, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def spy(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
        for _ in range(5):
            assert run(["lattice", "--config", cfg], capsys)[0] == 0
        assert built.count("semionlab") <= 1

    def test_reuse_matches_fresh_process(self, tmp_path, capsys):
        spec = write_config(tmp_path, "spec.json",
                            {"rows": 1, "cols": 2, "random_trials": 2})
        lat = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
        qnd = write_config(tmp_path, "q.json",
                           {"n_qubits": 3, "sites": [0, 2]})
        # flags set by one call must not leak into the next
        for argv in (["spectrum", "--config", spec, "--seed", "5",
                      "--format", "csv"],
                     ["lattice", "--config", lat],
                     ["spectrum", "--config", spec],
                     ["qnd", "--config", qnd, "--seed", "3"],
                     ["qnd", "--config", qnd, "--format", "csv"]):
            _, out, _ = run(argv, capsys)
            proc = subprocess.run(
                [sys.executable, "-m", "semionlab.cli", *argv],
                capture_output=True, text=True)
            assert out == proc.stdout

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
