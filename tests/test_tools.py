"""The repository tools under ``tools/`` that tests can run in-process."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os


class Thing:
    """Class docstring."""

    size = (1,
            2)  # trailing comment

    def method(self):
        """Method docstring."""
        text = """a string
that is not a docstring"""
        return text


def f(x): return x
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks():
    # import, class, size (2 lines), def, text (2 lines), return, def f
    assert _load("code_lines").code_lines(FIXTURE) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert _load("code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "2 b.py\n9 pkg/a.py\n11 total\n"


def _json(report):
    return json.dumps(report, sort_keys=True, indent=2).encode()


def test_cli_bytes_names_a_renamed_key_by_its_two_paths():
    old = {"checks": {"all_plus": True, "degeneracy_match": True,
                      "energy_is_minimum": True}, "energy": -1.5}
    new = {"checks": {"degeneracy_match": True, "energy_is_minimum": True,
                      "sector_match": True}, "energy": -1.5}
    keys = _load("cli_bytes")._differing_keys("json", _json(old), _json(new))
    assert keys == ["checks.all_plus", "checks.sector_match"]


def test_cli_bytes_names_only_the_key_of_a_removed_csv_line():
    old = b"key,value\na,1\nb,2\nc,3\n"
    new = b"key,value\nb,2\nc,3\n"
    assert _load("cli_bytes")._differing_keys("csv", old, new) == ["a"]


def test_cli_bytes_names_only_the_path_of_one_changed_list_element():
    # the last row gains an entry, which shifts every later leaf
    old = {"levels": [[-1.0, 2], [1.0, 2]], "total": 4}
    new = {"levels": [[-1.0, 2], [1.0, 2, 0]], "total": 4}
    keys = _load("cli_bytes")._differing_keys("json", _json(old), _json(new))
    assert keys == ["levels[][]"]


@pytest.mark.parametrize("fmt, report", [
    ("json", _json({"energy": -1.5, "checks": {"ok": True}})),
    ("csv", b"key,value\nenergy,-1.5\nok,True\n"),
])
def test_cli_bytes_names_an_empty_stdout_as_no_output(fmt, report):
    tool = _load("cli_bytes")
    assert tool._differing_keys(fmt, b"", report) == ["(no output)"]
    assert tool._differing_keys(fmt, report, b"") == ["(no output)"]


def test_cli_bytes_reports_a_one_ulp_move():
    old = {"lambda_pair_J": 1.0, "notes": ["a"]}
    new = {"lambda_pair_J": 1.0000000000000002, "notes": ["a"]}
    tool = _load("cli_bytes")
    change = tool._largest_change("json", _json(old), _json(new))
    assert abs(change - 2.2e-16) < 1e-17
    assert tool._largest_change(
        "csv", b"key,value\nx,1.0\nflag,True\n",
        b"key,value\nx,1.0000000000000002\nflag,True\n") == change


def test_cli_bytes_prints_no_change_for_equal_numbers():
    report = _json({"energy": -1.5, "levels": [[-1.0, 2], [1.0, 2]]})
    tool = _load("cli_bytes")
    assert tool._largest_change("json", report, report) is None
    assert tool._largest_change("csv", b"key,value\na,1\n",
                                b"key,value\na,1\n") is None


def test_cli_bytes_prints_no_change_for_a_renamed_key():
    old = {"checks": {"all_plus": True}, "energy": -1.5, "gap": 2.0}
    new = {"checks": {"sector_match": True}, "energy": -1.5, "gap_J": 2.5}
    assert _load("cli_bytes")._largest_change("json", _json(old),
                                              _json(new)) is None


def test_ab_pass_counts_the_pairs_the_change_won():
    wins = _load("ab_pass")._wins
    assert wins([2.0, 1.0, 3.0, 1.5], [1.0, 1.0, 3.5, 1.4]) == 2
    assert wins([], []) == 0


def test_ab_pass_pairs_each_operation_before_the_median():
    # the change took half the time in three of four pairs; the ratio
    # of the unpaired medians, 2.5 / 3.0, would read 0.833
    ratio = _load("ab_pass")._paired_ratio
    assert ratio([1.0, 2.0, 4.0, 8.0], [0.5, 1.0, 16.0, 4.0]) == 0.5
    assert ratio([2.0], [3.0]) == 1.5


def test_cli_bytes_runs_each_refusal_of_the_parser_tests():
    spec = importlib.util.spec_from_file_location(
        "cli_tests", Path(__file__).resolve().parent / "test_cli.py")
    cli_tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli_tests)
    forms = [argv for _, argv in _load("cli_bytes").ARGV_FORMS]
    assert [argv for argv, _, _ in cli_tests._REFUSALS
            if argv not in forms] == []
    for argv in (["-h"], ["lattice", "-h"], ["--version"],
                 ["lattice", "--conf=--"], ["lattice", "--config=--"]):
        assert argv in forms


def test_cli_bytes_names_what_differs_in_an_argv_run():
    from subprocess import CompletedProcess
    tool = _load("cli_bytes")
    run = CompletedProcess([], 2, b"", b"usage: semionlab\nerror: x\n")
    assert tool._difference("argv:a", None, run, run) is None
    other = CompletedProcess([], 0, b"0.1.0\n", run.stderr)
    assert tool._difference("argv:a", None, run, other) == \
        "DIFF argv:a: exit 2 -> 0; stdout differs; stderr same"
    report = _json({"energy": -1.5})
    old = CompletedProcess([], 0, report, b"")
    new = CompletedProcess([], 0, _json({"energy": -1.25}), b"warn\n")
    assert tool._difference("readme:ground", "json", old, new) == (
        "DIFF readme:ground --format json: exit 0 -> 0; stdout keys "
        "['energy'] (largest relative change 0.17); stderr differs")


def test_cli_bytes_runs_both_qnd_edges():
    tool = _load("cli_bytes")
    runs = {label: (command, cfg)
            for label, command, cfg, _ in tool._all_runs(TOOLS.parent)}
    assert runs["edge:qnd:over-budget"] == \
        ("qnd", {"n_qubits": 25, "sites": [0, 24]})
    assert runs["edge:qnd:in-budget"][1]["cavity_levels"] == 4


def test_cli_bytes_runs_the_shadowed_inputs():
    tool = _load("cli_bytes")
    runs = {label: (command, cfg)
            for label, command, cfg, _ in tool._all_runs(TOOLS.parent)}
    assert runs["shadowed:circuit-c_c"][1]["c_c"] == 9e-16
    assert runs["shadowed:circuit-null-temperature"][1]["temperature"] \
        is None
    command, cfg = runs["shadowed:spectrum-trials-couplings"]
    assert command == "spectrum" and cfg["random_trials"] == 1
    assert {"j_up", "j_down", "u"} <= cfg.keys()
    assert runs["edge:circuit:beta-5e5"][1]["beta"] == 5e5


def test_cli_bytes_names_no_stdout_key_when_only_stderr_differs():
    from subprocess import CompletedProcess
    old = CompletedProcess([], 2, b"", b"error: a\n")
    new = CompletedProcess([], 2, b"", b"error: b\n")
    assert _load("cli_bytes")._difference("edge:qnd:x", "csv", old, new) == \
        "DIFF edge:qnd:x --format csv: exit 2 -> 2; stdout keys []; " \
        "stderr differs"


def test_cli_bytes_runs_the_couplings_far_from_unit_scale():
    tool = _load("cli_bytes")
    runs = {label: (command, cfg)
            for label, command, cfg, _ in tool._all_runs(TOOLS.parent)}
    joules = {"j_up": 1.407330025512922e-24,
              "j_down": 1.1562927777187252e-24, "u": 1.711313311023713e-24}
    for command in ("ground", "spectrum"):
        assert runs[f"scaled:{command}-joules"] == \
            (command, {"rows": 2, "cols": 3, **joules})
    assert runs["scaled:ground-1e-9"][1] == \
        {"rows": 2, "cols": 3, "j_up": 1e-9, "j_down": 1e-9, "u": 1e-9}
    command, cfg = runs["scaled:ground-2x4-1e2"]
    assert command == "ground" and (cfg["rows"], cfg["cols"]) == (2, 4)
    assert 1e2 <= max(abs(cfg[key]) for key in ("j_up", "j_down", "u")) < 1e3
    command, cfg = runs["scaled:spectrum-2x3-1e5"]
    assert command == "spectrum" and (cfg["rows"], cfg["cols"]) == (2, 3)
    assert 1e5 <= max(abs(cfg[key]) for key in ("j_up", "j_down", "u")) < 1e6
