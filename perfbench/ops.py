"""The fixed operation list of each workload, with the check of each.

An operation is a ``(label, fn)`` pair.  ``fn(ctx)`` calls the program,
checks what came back and returns True when every check held; ``ctx`` is
a dict that lives for one pass, so an operation can hand a state to the
next one.  A pass runs every operation of the list once.

Library calls go through attribute lookups on ``semionlab`` and
``semionlab.cli`` at call time, never through references taken earlier,
so a traced pass reaches the wrapped functions.  CLI operations run
``semionlab.cli.main`` in-process on config files written by the runner.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import semionlab as api
import semionlab.cli

TOL = 1e-10
CIRCUIT_TOL = 1e-12


def cli_json(argv: list[str]) -> tuple[int, dict | None]:
    """Run the CLI in-process; return its exit code and parsed stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = semionlab.cli.main(argv)
    text = out.getvalue()
    return code, json.loads(text) if text else None


def _cli_op(command: str, config: str, check, seed: int = 0):
    def op(ctx) -> bool:
        code, report = cli_json([command, "--config", config,
                                 "--seed", str(seed)])
        return code == 0 and report is not None and bool(check(report))
    return op


# -- dense_solvers ------------------------------------------------------

def _spectrum_ok(report: dict) -> bool:
    return report["equivalence_pass"] is True and all(
        t["max_multiset_deviation"] < TOL and len(t["eigenvalues"]) == 4096
        for t in report["trials"])


def _ground_ok(report: dict) -> bool:
    return all(v is True for v in report["checks"].values())


def _qnd_ok(report: dict) -> bool:
    ifm = report["interferometry"]
    return (report["pass"] is True
            and report["closed_form_deviation"] < TOL
            and abs(ifm["inferred_eigenvalue"]
                    - ifm["direct_expectation"]) < TOL)


def dense_ops(plan: dict, paths: dict) -> list:
    seed = plan["params"]["cli_seed"]
    qnd_seeds = plan["params"]["qnd_seeds"]
    return [("cli.spectrum", _cli_op("spectrum", paths["spectrum"],
                                     _spectrum_ok, seed)),
            ("cli.ground", _cli_op("ground", paths["ground"], _ground_ok,
                                   seed))] + [
        (f"cli.{name}", _cli_op("qnd", paths[name], _qnd_ok, qnd_seed))
        for name, qnd_seed in qnd_seeds.items()]


# -- anyon_states -------------------------------------------------------

def _anyon_lattice_ops(lat: dict) -> list:
    tag = f"{lat['rows']}x{lat['cols']}"
    c = lat["couplings"]

    def ground(ctx) -> bool:
        layout = api.build_layout(lat["rows"], lat["cols"])
        state = api.project_ground(layout)
        ctx[tag] = (layout, state)
        vmap = api.vortex_map(state, layout)
        return all(abs(w - 1) < TOL and abs(wt - 1) < TOL
                   for w, wt in vmap.values)

    def moments(ctx) -> bool:
        layout, state = ctx[tag]
        ham = api.build_spin_hamiltonian(layout, c["j_up"], c["j_down"],
                                         c["u"])
        energy, variance = api.energy_moments(state, ham)
        # every stabilizer and link term is +1 on the projected state
        expected = -(c["j_up"] + c["j_down"]) * len(layout.square.bonds) \
            - c["u"] * layout.square.n_sites
        return variance < TOL and abs(energy - expected) < TOL

    def braid(pair):
        def op(ctx) -> bool:
            layout, state = ctx[tag]
            loop = api.StringSpec.z_string(layout, pair["loop"])
            crossing = api.StringSpec.x_string(layout, pair["crossing"])
            on_state = api.braid_phase_on_state(loop, crossing, state)
            return abs(on_state - api.braid_phase(loop, crossing)) < TOL
        return op

    def interferometry(ctx) -> bool:
        layout, state = ctx[tag]
        cavity_state = api.project_ground(layout, cavity_dim=2)
        record = api.interferometry_run(layout, cavity_state, lat["readout"])
        direct = api.expectation(
            state, api.StringSpec.z_string(layout, lat["readout"]).operator)
        return abs(record.inferred_eigenvalue - direct.real) < TOL

    ops = [(f"ground_{tag}", ground), (f"moments_{tag}", moments)]
    ops += [(f"braid_{tag}_{k}", braid(p)) for k, p in enumerate(lat["pairs"])]
    ops.append((f"interferometry_{tag}", interferometry))
    return ops


def anyon_ops(plan: dict, paths: dict) -> list:
    ops = []
    for lat in plan["params"]["lattices"]:
        ops += _anyon_lattice_ops(lat)
    ops.append(("cli.braid", _cli_op(
        "braid", paths["braid"], lambda r: r["agree"] is True)))
    return ops + _algebra_ops(plan, paths)


# -- the mask-only algebra sweep of anyon_states -------------------------

def _algebra_lattice_ops(lat: dict) -> list:
    side = lat["side"]
    tag = f"{side}x{side}"
    c = lat["couplings"]

    def hamiltonian(ctx) -> bool:
        layout = api.build_layout(side, side)
        ctx[tag] = layout
        ham = api.build_spin_hamiltonian(layout, c["j_up"], c["j_down"],
                                         c["u"])
        n_terms = 2 * side * (side - 1) + side * side
        return len(ham.terms) == n_terms and ham.all_terms_commute()

    def fuse(pair):
        def op(ctx) -> bool:
            layout = ctx[tag]
            loop = api.StringSpec.z_string(layout, pair["loop"])
            crossing = api.StringSpec.x_string(layout, pair["crossing"])
            fused = api.fuse_check(layout, loop, crossing)
            shared = sorted(set(pair["loop"]) & set(pair["crossing"]))
            residual = fused.residual
            return (list(fused.shared_sites) == shared
                    and residual.z_mask == loop.operator.z_mask
                    and residual.x_mask == crossing.operator.x_mask
                    and api.braid_phase(loop, crossing)
                    == (-1) ** len(shared))
        return op

    return [(f"hamiltonian_{tag}", hamiltonian)] + [
        (f"fuse_{tag}_{k}", fuse(p)) for k, p in enumerate(lat["pairs"])]


def _lattice_ok(report: dict) -> bool:
    rows, cols = report["rows"], report["cols"]
    return report["counts"] == {
        "honeycomb_sites": 2 * rows * cols,
        "bonds": rows * (cols - 1),
        "complete_plaquettes": (rows - 2) * (cols - 1),
        "chains": rows,
    } and len(report["sites"]) == 2 * rows * cols


def _circuit_ok(report: dict) -> bool:
    # the exact pair-coupling identity lambda (1 + 2 beta) = 2 beta E_c;
    # the 3 beta^2 bound on the shorthand fails by construction and is
    # not checked
    beta = report["beta_a"]
    ratio = report["lambda_pair_J"] / (2 * beta * report["E_c_a_J"])
    freq = report["frequencies"]
    return (abs(ratio * (1 + 2 * beta) - 1.0) < CIRCUIT_TOL
            and math.isclose(freq["chi"] * freq["tau"], math.pi / 2,
                             rel_tol=CIRCUIT_TOL))


def _algebra_ops(plan: dict, paths: dict) -> list:
    ops = []
    for lat in plan["params"]["algebra"]:
        ops += _algebra_lattice_ops(lat)
    ops.append(("cli.lattice", _cli_op("lattice", paths["lattice"],
                                       _lattice_ok)))
    ops += [(f"cli.{name}", _cli_op("circuit", path, _circuit_ok))
            for name, path in paths.items() if name.startswith("circuit")]
    return ops


BUILDERS = {"dense_solvers": dense_ops, "anyon_states": anyon_ops}


def build_ops(workload: str, plan: dict, paths: dict) -> list:
    """The operation list of one pass; ``paths`` maps config stems to files."""
    return BUILDERS[workload](plan, paths)
