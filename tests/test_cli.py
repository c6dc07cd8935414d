"""Batch front-end: schema validation, verdicts, deterministic output."""

import json
import subprocess
import sys

import pytest

from semionlab.cli import main


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
        cfg = write_config(tmp_path, "spec.json", {"rows": 3, "cols": 3})
        code, _, err = run(["spectrum", "--config", cfg], capsys)
        assert code == 2 and "error" in err

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


    def test_site_outside_register_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "q.json",
                           {"n_qubits": 4, "sites": [-1, 2]})
        code, out, err = run(["qnd", "--config", cfg], capsys)
        assert code == 2 and out == ""
        assert err == "error: site -1 outside register\n"


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


def test_out_file_written(tmp_path, capsys):
    cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
    out_path = tmp_path / "report.json"
    code, out, _ = run(["lattice", "--config", cfg, "--out", str(out_path)],
                       capsys)
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["counts"]["bonds"] == 1


def test_console_entry_point(tmp_path):
    cfg = write_config(tmp_path, "lat.json", {"rows": 1, "cols": 2})
    proc = subprocess.run(
        [sys.executable, "-m", "semionlab.cli", "lattice", "--config", cfg],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["counts"]["honeycomb_sites"] == 4
