"""Byte comparison of the CLI of two trees, one fresh process per run.

Run from anywhere, with two checkouts of this repository:

    python tools/cli_bytes.py PARENT CHANGE

Each tree's CLI (``python -m semionlab.cli`` with that tree's ``src``
first on ``PYTHONPATH``) runs on a fixed set of configs, each once with
``--format json`` and once with ``--format csv``:

- every config of the plans of both benchmark workloads at seeds 1-3,
  built by PARENT's ``perfbench/plans.py`` (nothing else of
  ``perfbench`` is read), each run with the seed the benchmark gives it;
- the example config of each command in the README;
- a fixed list of ``ground`` configs with signed couplings;
- a fixed list of ``ground`` and ``spectrum`` configs far from unit
  couplings: the model couplings in joules of the README ``circuit``
  config, all couplings 1e-9, and signed couplings of about 1e2 and 1e5;
- a fixed list of ``circuit`` edge configs: very strong coupling, a
  determinant that underflows, and a partial set of frequency keys;
- a fixed list of ``qnd`` edge configs: a register over the dense
  budget, one inside it with four cavity levels, and one inside it
  with 64 cavity levels, whose deviation window is about 800 times the
  unit one;
- a ``braid`` edge config: the README loop and crossing at 4x4, with
  ``state_check``;
- a ``ground`` edge config at 7x2, refused at a size check: its 28
  sites are past the basis budget, its 14 square sites past the
  oracle's, and its 2**21 tableau levels inside the budget;
- a fixed list of shadowed inputs, each a key that another key leaves
  unread or a second spelling of one value: ``circuit`` with ``c_c``
  beside ``beta``, ``circuit`` with a ``null`` temperature, and
  ``spectrum`` with couplings beside ``random_trials``.

Then each tree runs a fixed list of argv forms on one small ``lattice``
config: help, the version, prefix and ``=`` forms (an ``=`` value of
exactly ``--`` among them) and each refusal of the CLI parser tests.

For each run the exit code, stdout and stderr of the two trees are
compared byte for byte.  A config run that differs is printed with what
differs: the exit codes, the report keys whose values differ (JSON paths
with list positions folded to ``[]``, compared as the list of values at
each path, or CSV first cells, compared as the list of lines that start
with each; ``(no output)`` when one stdout only is empty), the largest
relative change of a number that sits at the same place on both sides
(the same JSON path, or the same cell of the lines under the same CSV
first cell), when one moved, and whether stderr differs; an argv run
that differs, with its exit codes and whether stdout and stderr differ.
The exit code is 1 if any run differs, else 0.  BLAS and OpenMP are
pinned to one thread.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

PACKAGE = "semionlab"
SEEDS = (1, 2, 3)
FORMATS = ("json", "csv")

README_CONFIGS = (
    ("lattice", {"rows": 2, "cols": 3}, 0),
    ("ground", {"rows": 2, "cols": 3}, 0),
    ("spectrum", {"rows": 2, "cols": 3, "random_trials": 5}, 1),
    ("braid", {"rows": 2, "cols": 3,
               "loop": {"family": "z",
                        "sites": [[0, "black"], [0, "white"],
                                  [1, "black"], [1, "white"]]},
               "crossing": {"family": "x", "sites": [[0, "black"]]},
               "state_check": True}, 0),
    ("qnd", {"n_qubits": 10, "sites": [0, 2, 3, 7, 9]}, 0),
    ("circuit", {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                 "beta": 0.05, "c_a": 25e-18, "c_b": 20e-18}, 0),
)

# (rows, cols, j_up, j_down, u).  `ground` moves the all-+1 plaquette
# state into the tableau's ground sector, so each exits 0 but 4x4, which
# exits 2 at a size check.
SIGNED_GROUND = (
    (2, 3, 1.0, 0.5, -1.0),
    (2, 3, -1.0, -0.5, 0.3),
    (1, 4, 1.79, -0.75, -0.31),
    (2, 3, -1.0, -1.0, -1.0),
    (1, 2, 0.3, -2.0, 1.5),
    (3, 2, 1.4, 0.6, -0.2),
    (2, 4, -0.9, 1.1, -0.6),
    (3, 3, 0.7, -1.3, 0.4),
    (3, 3, 0.7, 1.3, 0.4),
    (4, 4, 0.7, 1.3, 0.4),
)

# (label, command, config) far from unit couplings: the model couplings
# in joules that CLI circuit prints for the README circuit config, all
# couplings 1e-9, and signed draws of magnitude about 1e2 and 1e5
_JOULES = {"j_up": 1.407330025512922e-24, "j_down": 1.1562927777187252e-24,
           "u": 1.711313311023713e-24}
SCALED = (
    ("ground-joules", "ground", {"rows": 2, "cols": 3, **_JOULES}),
    ("spectrum-joules", "spectrum", {"rows": 2, "cols": 3, **_JOULES}),
    ("ground-1e-9", "ground",
     {"rows": 2, "cols": 3, "j_up": 1e-9, "j_down": 1e-9, "u": 1e-9}),
    ("ground-2x4-1e2", "ground",
     {"rows": 2, "cols": 4, "j_up": -129.22431205535082,
      "j_down": -199.94938327014845, "u": 164.66049976752828}),
    ("spectrum-2x3-1e5", "spectrum",
     {"rows": 2, "cols": 3, "j_up": -36485.26173291324,
      "j_down": 170389.79806330093, "u": 65284.99356709383}),
)

# (label, config): the old ill-conditioned refusal (beta 5e5), beta 1e5
# with the frequency keys, 2e-170 F devices whose determinant underflows
# to zero, and frequency keys without g.
CIRCUIT_EDGES = (
    ("beta-5e5", {"c_g": 1e-18, "c_j": 1e-18, "e_j": 1e-24, "beta": 5e5}),
    ("beta-1e5", {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24, "beta": 1e5,
                  "omega_c": 3e10, "delta": 1e9, "g": 1e8,
                  "temperature": 0.02}),
    ("underflow", {"c_g": 1e-170, "c_j": 1e-170, "e_j": 1e-24}),
    ("partial-frequencies", {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                             "beta": 0.05, "omega_c": 3e10, "delta": 1e9}),
)

# (label, config): 2 x 2**25 states, over the dense budget,
# 4 x 2**18 states, inside it, and 64 x 2**16 states, inside it, whose
# largest gate phase is 63 * 8 * pi / 2, about 792.
QND_EDGES = (
    ("over-budget", {"n_qubits": 25, "sites": [0, 24]}),
    ("in-budget", {"n_qubits": 18, "sites": [0, 5, 17],
                   "cavity_levels": 4}),
    ("phase-792", {"n_qubits": 16, "sites": [0, 2, 4, 6, 8, 10, 12, 15],
                   "cavity_levels": 64}),
)

# (label, config): the README braid loop and crossing at 4x4
BRAID_EDGES = (
    ("4x4-state-check",
     {"rows": 4, "cols": 4,
      "loop": {"family": "z", "sites": [[0, "black"], [0, "white"],
                                        [1, "black"], [1, "white"]]},
      "crossing": {"family": "x", "sites": [[0, "black"]]},
      "state_check": True}),
)

# (label, config): 7x2, which ground_sector runs and CLI ground refuses
GROUND_EDGES = (
    ("7x2", {"rows": 7, "cols": 2}),
)

# (label, command, config) of the shadowed inputs
SHADOWED = (
    ("circuit-c_c", "circuit", {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24,
                                "beta": 0.05, "c_c": 9e-16}),
    ("circuit-null-temperature", "circuit",
     {"c_g": 300e-18, "c_j": 300e-18, "e_j": 1e-24, "beta": 0.05,
      "omega_c": 3e10, "delta": 1e9, "g": 1e8, "temperature": None}),
    ("spectrum-trials-couplings", "spectrum",
     {"rows": 2, "cols": 3, "random_trials": 1, "j_up": -5, "j_down": 3,
      "u": 7}),
)

# (label, argv) run in the work directory, CONFIG standing for the path
# of a 1x2 lattice config.  The refusals are those of the CLI parser
# tests; "c" names no file, as no refusal reads a config.
CONFIG = "@config"
ARGV_FORMS = (
    ("help", ["-h"]),
    ("help-cluster", ["-hh"]),
    ("help-prefix", ["--he"]),
    ("command-help", ["lattice", "-h"]),
    ("command-help-late", ["qnd", "--config", "c", "--help"]),
    ("version", ["--version"]),
    ("version-prefix", ["--vers"]),
    ("prefixes", ["lattice", "--conf", CONFIG, "--f", "csv", "--s", "-3"]),
    ("equals", ["lattice", f"--config={CONFIG}", "--seed=2", "--format=csv"]),
    ("prefix-equals", ["lattice", f"--c={CONFIG}", "--s=-1"]),
    ("twice", ["lattice", "--config", "c", "--config", CONFIG, "--seed", "1",
               "--seed", " 7 "]),
    ("config=--", ["lattice", "--config=--"]),
    ("conf=--", ["lattice", "--conf=--"]),
    ("o=--", ["lattice", "--config", CONFIG, "--o=--"]),
    ("refuse:no-config", ["lattice"]),
    ("refuse:format", ["lattice", "--config", "c", "--format", "xml"]),
    ("refuse:seed", ["lattice", "--config", "c", "--seed", "1.5"]),
    ("refuse:unknown-flag", ["lattice", "--config", "c", "--nosuch"]),
    ("refuse:no-value", ["lattice", "--config"]),
    ("refuse:format-before-help",
     ["lattice", "--config", "c", "--format", "xml", "-h"]),
    ("refuse:no-command", []),
    ("refuse:ambiguous", ["--=x"]),
    ("refuse:trailing--", ["lattice", "--config", "c", "--"]),
    ("refuse:value--", ["lattice", "--config", "--", "c"]),
    ("refuse:s=--", ["lattice", "--config", "c", "--s=--"]),
    ("refuse:f=--", ["lattice", "--config", "c", "--f=--"]),
    ("refuse:unknown-command", ["nosuch"]),
)


def _plan_runs(parent: Path) -> list[tuple[str, str, dict, int]]:
    """``(label, command, config, seed)`` of every benchmark plan config."""
    spec = importlib.util.spec_from_file_location(
        "cli_bytes_plans", parent / "perfbench" / "plans.py")
    plans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plans)
    runs = []
    for workload, seed in itertools.product(plans.WORKLOADS, SEEDS):
        plan = plans.make_plan(workload, seed)
        params = plan["params"]
        for stem, cfg in plan["configs"].items():
            # the seed the benchmark passes each CLI run
            cli_seed = params.get("qnd_seeds", {}).get(
                stem, params.get("cli_seed", 0))
            command = re.match(r"[a-z]+", stem).group()
            runs.append((f"{workload}:{seed}:{stem}", command, cfg,
                         cli_seed))
    return runs


def _all_runs(parent: Path) -> list[tuple[str, str, dict, int]]:
    runs = _plan_runs(parent)
    runs += [(f"readme:{command}", command, cfg, seed)
             for command, cfg, seed in README_CONFIGS]
    runs += [(f"signed:{r}x{c}:{j_up},{j_down},{u}", "ground",
              {"rows": r, "cols": c, "j_up": j_up, "j_down": j_down,
               "u": u}, 0)
             for r, c, j_up, j_down, u in SIGNED_GROUND]
    runs += [(f"scaled:{label}", command, cfg, 0)
             for label, command, cfg in SCALED]
    runs += [(f"edge:circuit:{label}", "circuit", cfg, 0)
             for label, cfg in CIRCUIT_EDGES]
    runs += [(f"edge:qnd:{label}", "qnd", cfg, 0)
             for label, cfg in QND_EDGES]
    runs += [(f"edge:braid:{label}", "braid", cfg, 0)
             for label, cfg in BRAID_EDGES]
    runs += [(f"edge:ground:{label}", "ground", cfg, 0)
             for label, cfg in GROUND_EDGES]
    runs += [(f"shadowed:{label}", command, cfg, 0)
             for label, command, cfg in SHADOWED]
    return runs


def _environment(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _check_import(root: Path, env: dict, work: Path) -> None:
    """Exit unless ``root``'s own package is the one imported."""
    found = subprocess.run(
        [sys.executable, "-c", f"import {PACKAGE}; print({PACKAGE}.__file__)"],
        env=env, cwd=work, capture_output=True, text=True, check=True)
    path = Path(found.stdout.strip()).resolve()
    if root / "src" not in path.parents:
        raise SystemExit(f"{PACKAGE} of {root} imported from {path}")


def _run(env: dict, work: Path,
         argv: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", f"{PACKAGE}.cli", *argv],
                          env=env, cwd=work, capture_output=True)


def _leaves(obj, path: str = ""):
    """``(path, value)`` of every scalar of a JSON report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for value in obj:
            yield from _leaves(value, f"{path}[]")
    else:
        yield path, obj


def _grouped(pairs) -> dict:
    """``{key: [value, ...]}`` of ``(key, value)`` pairs, in order."""
    groups = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return groups


def _groups(fmt: str, out: bytes) -> dict:
    """``{key: [value, ...]}`` of one stdout: the values at each JSON
    path, or the lines, split into cells, under each CSV first cell."""
    if fmt == "json":
        return _grouped(_leaves(json.loads(out)))
    return _grouped((cells[0], cells) for cells in
                    (tuple(line.split(",")) for line in
                     out.decode().splitlines()))


def _differing_keys(fmt: str, a: bytes, b: bytes) -> list[str]:
    """The report keys whose values differ between two stdouts: the JSON
    paths whose lists of values differ, or the first cells whose lists of
    CSV lines differ, so a change at one key names that key alone.  Two
    equal stdouts give none.  An empty stdout on one side only (a refused
    run) gives ``(no output)``, not the keys of the other side's whole
    report."""
    if a == b:
        return []
    if not a or not b:
        return ["(no output)"]
    try:
        left, right = _groups(fmt, a), _groups(fmt, b)
    except ValueError:
        return ["(not JSON)"]
    return sorted(key for key in left.keys() | right.keys()
                  if left.get(key) != right.get(key))


def _relative_change(old, new) -> float:
    """``|new - old| / max(|old|, |new|)`` of two numbers (JSON numbers
    or numeric CSV cells), else 0.  A report holds no NaN or infinity."""
    if isinstance(old, bool) or isinstance(new, bool):
        return 0.0
    try:
        old, new = float(old), float(new)
    except (TypeError, ValueError):
        return 0.0
    return abs(new - old) / max(abs(old), abs(new)) if old != new else 0.0


def _cells(old, new):
    """The same-place pairs of two grouped values: two CSV lines pair
    cell by cell when they have as many cells, two JSON leaves pair as
    they are."""
    if not isinstance(old, tuple):
        return [(old, new)]
    return zip(old, new) if len(old) == len(new) else []


def _largest_change(fmt: str, a: bytes, b: bytes) -> float | None:
    """The largest relative change over the numbers that sit at the same
    place in both stdouts, or ``None`` if none of them moved.  A key's
    values pair up only where both sides hold as many, and a CSV line's
    cells only where both lines have as many."""
    try:
        left, right = _groups(fmt, a), _groups(fmt, b)
    except ValueError:
        return None
    changes = [_relative_change(*cell)
               for key in left.keys() & right.keys()
               if len(left[key]) == len(right[key])
               for old, new in zip(left[key], right[key])
               for cell in _cells(old, new)]
    return max(changes, default=0.0) or None


def _difference(label: str, fmt: str | None, old, new) -> str | None:
    """The ``DIFF`` line of one run on the two trees, ``None`` if their
    exit codes, stdouts and stderrs are equal.  ``fmt`` is the format of
    a config run, ``None`` for an argv run, whose stdout is compared
    whole."""
    if (old.returncode, old.stdout, old.stderr) == \
            (new.returncode, new.stdout, new.stderr):
        return None
    stderr = "differs" if old.stderr != new.stderr else "same"
    if fmt is None:
        stdout = "differs" if old.stdout != new.stdout else "same"
        return (f"DIFF {label}: exit {old.returncode} -> {new.returncode}; "
                f"stdout {stdout}; stderr {stderr}")
    keys = _differing_keys(fmt, old.stdout, new.stdout)
    change = _largest_change(fmt, old.stdout, new.stdout)
    moved = "" if change is None else \
        f" (largest relative change {change:.2g})"
    return (f"DIFF {label} --format {fmt}: exit {old.returncode} -> "
            f"{new.returncode}; stdout keys {keys}{moved}; stderr {stderr}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    trees = (args.parent.resolve(), args.change.resolve())
    runs = _all_runs(trees[0])

    differ = 0
    with tempfile.TemporaryDirectory(prefix="cli_bytes-") as tmp:
        work = Path(tmp)
        envs = [_environment(root) for root in trees]
        for root, env in zip(trees, envs):
            _check_import(root, env, work)
        jobs = []
        for k, (label, command, cfg, seed) in enumerate(runs):
            config = work / f"config{k}.json"
            config.write_text(json.dumps(cfg), encoding="utf-8")
            jobs += [(label, fmt, [command, "--config", str(config),
                                   "--format", fmt, "--seed", str(seed)])
                     for fmt in FORMATS]
        config = work / "argv.json"
        config.write_text(json.dumps({"rows": 1, "cols": 2}),
                          encoding="utf-8")
        jobs += [(f"argv:{label}", None,
                  [token.replace(CONFIG, str(config)) for token in argv])
                 for label, argv in ARGV_FORMS]
        for label, fmt, argv in jobs:
            line = _difference(label, fmt,
                               *(_run(env, work, argv) for env in envs))
            if line is not None:
                differ += 1
                print(line)
    print(f"{len(runs) * len(FORMATS)} runs ({len(runs)} configs x "
          f"{len(FORMATS)} formats) and {len(ARGV_FORMS)} argv runs, "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
