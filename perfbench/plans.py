"""Seeded inputs for the two workloads.

Everything a workload feeds the program is drawn here from the run's
seed with ``random.Random``, so one seed always gives the same configs,
couplings and site sets.  The amount of work never depends on the seed:
set sizes, lattice shapes and operation lists are fixed, only the
values drawn change.  That keeps call counts, amplitudes processed and
matrix sizes identical from seed to seed.

A plan is plain JSON: ``configs`` maps a file stem to a CLI config that
the runner writes to disk, ``params`` holds the library-call inputs.
This module imports nothing from numpy or the package under test.
"""

from __future__ import annotations

import random

WORKLOADS = ("dense_solvers", "anyon_states")

ANYON_LATTICES = ((2, 4), (3, 3))
ANYON_PAIRS = 4           # loop/crossing pairs per lattice
ANYON_LOOP_SITES = 6      # Z-string length
ANYON_CROSSING_SITES = 3  # X-string length
ANYON_READOUT_SITES = 4   # Z string read out by interferometry

ALGEBRA_SIDES = (4, 6, 8)
ALGEBRA_PAIRS = 8
CIRCUIT_CONFIGS = 4

QND_CASES = ({"n_qubits": 10}, {"n_qubits": 9, "cavity_levels": 4})
QND_SITES = 5


def _couplings(rng: random.Random) -> dict:
    return {"j_up": rng.uniform(0.2, 2.0), "j_down": rng.uniform(0.2, 2.0),
            "u": rng.uniform(0.2, 2.0)}


def _ranks(rng: random.Random, rows: int, cols: int, k: int) -> list[int]:
    return sorted(rng.sample(range(2 * rows * cols), k))


def _cli_sites(rng: random.Random, rows: int, cols: int, k: int) -> list:
    """``k`` distinct honeycomb sites as ``[square_site, color]`` pairs."""
    picks = rng.sample(range(2 * rows * cols), k)
    return [[p // 2, "black" if p % 2 == 0 else "white"] for p in sorted(picks)]


def _string_pairs(rng, rows, cols, n_pairs, loop_k, cross_k) -> list:
    return [{"loop": _ranks(rng, rows, cols, loop_k),
             "crossing": _ranks(rng, rows, cols, cross_k)}
            for _ in range(n_pairs)]


def _circuit_config(rng: random.Random) -> dict:
    return {"c_g": rng.uniform(200e-18, 400e-18),
            "c_j": rng.uniform(200e-18, 400e-18),
            "e_j": rng.uniform(0.5e-24, 2e-24),
            "beta": rng.uniform(0.01, 0.1),
            "c_a": rng.uniform(10e-18, 40e-18),
            "c_b": rng.uniform(10e-18, 40e-18),
            "omega_c": rng.uniform(3e10, 5e10),
            "delta": rng.uniform(5e7, 2e8),
            "g": rng.uniform(5e7, 2e8),
            "temperature": rng.uniform(0.01, 0.05)}


def _anyon(rng: random.Random) -> dict:
    lattices = []
    for rows, cols in ANYON_LATTICES:
        lattices.append({
            "rows": rows, "cols": cols, "couplings": _couplings(rng),
            "pairs": _string_pairs(rng, rows, cols, ANYON_PAIRS,
                                   ANYON_LOOP_SITES, ANYON_CROSSING_SITES),
            "readout": _ranks(rng, rows, cols, ANYON_READOUT_SITES),
        })
    braid = {"rows": 3, "cols": 3,
             "loop": {"family": "z",
                      "sites": _cli_sites(rng, 3, 3, ANYON_LOOP_SITES)},
             "crossing": {"family": "x",
                          "sites": _cli_sites(rng, 3, 3,
                                              ANYON_CROSSING_SITES)},
             "state_check": True}
    algebra = [{"side": side, "couplings": _couplings(rng),
                "pairs": _string_pairs(rng, side, side, ALGEBRA_PAIRS,
                                       2 * side, side)}
               for side in ALGEBRA_SIDES]
    configs = {"braid": braid, "lattice": {"rows": 8, "cols": 8}}
    for k in range(CIRCUIT_CONFIGS):
        configs[f"circuit{k}"] = _circuit_config(rng)
    return {"configs": configs,
            "params": {"lattices": lattices, "algebra": algebra}}


def _dense(rng: random.Random) -> dict:
    configs = {"spectrum": {"rows": 2, "cols": 3, **_couplings(rng)},
               "ground": {"rows": 2, "cols": 3, **_couplings(rng)}}
    qnd_seeds = {}
    for case in QND_CASES:
        n = case["n_qubits"]
        name = f"qnd_n{n}"
        configs[name] = {**case,
                         "sites": sorted(rng.sample(range(n), QND_SITES))}
        qnd_seeds[name] = rng.randrange(2 ** 31)
    return {"configs": configs,
            "params": {"cli_seed": rng.randrange(2 ** 31),
                       "qnd_seeds": qnd_seeds}}


_BUILDERS = {"dense_solvers": _dense, "anyon_states": _anyon}


def make_plan(workload: str, seed: int) -> dict:
    """The workload's inputs for ``seed``: same seed, same plan."""
    # the workload name is mixed in so that two workloads with one seed
    # do not share their draws
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)
