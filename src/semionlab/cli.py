"""Batch front-end: parse a JSON run config, dispatch, emit results.

One subcommand per experiment family: ``lattice``, ``spectrum``,
``ground``, ``braid``, ``qnd``, ``circuit``.  Results go to stdout or
``--out`` as JSON (``--format csv`` emits the main table instead); logs
go to stderr, so machine-readable output is never interleaved.  The exit
code is 0 iff every verdict of the run passed.  Identical configs and
builds produce byte-identical primary output.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .anyons import (
    QndParams,
    StringSpec,
    _zero_photon_readout,
    braid_phase,
    braid_phase_on_state,
    qnd_closed_form_deviation,
    vortex_map,
)
from .circuit import (
    DeviceNetwork,
    DeviceParams,
    chain_couplings,
    long_range_warning,
    qnd_frequencies,
    two_device_couplings,
)
from .errors import ConfigError, SemionLabError
from .hamiltonian import (
    DiagonalOracle,
    build_spin_hamiltonian,
    predicted_ground_degeneracy,
    spectrum,
)
from .lattice import build_layout
from .pauli import PauliString, _site_mask
from .states import (
    energy_moments,
    expectation,
    project_ground,
    random_state,
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    # json.load accepts NaN and Infinity; an int is always finite, and
    # math.isfinite would overflow converting a huge one
    return _is_int(value) or (isinstance(value, float)
                              and math.isfinite(value))


# value kind -> (description for the error message, check)
_KINDS = {
    "int": ("an integer", _is_int),
    "number": ("a finite number", _is_finite),
    "number_or_null": ("a finite number or null",
                       lambda v: v is None or _is_finite(v)),
    "tolerance": ("a finite number > 0",
                  lambda v: _is_finite(v) and v > 0),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "ints": ("a list of integers",
             lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "object": ("an object", lambda v: isinstance(v, dict)),
}

_DIMS = {"rows": "int", "cols": "int"}
_COUPLINGS = {"j_up": "number", "j_down": "number", "u": "number"}

# command -> (required keys, optional keys), each mapping key -> kind
_SCHEMAS = {
    "lattice": (_DIMS, {}),
    "spectrum": (_DIMS, {**_COUPLINGS, "random_trials": "int",
                         "tolerance": "tolerance"}),
    "ground": (_DIMS, _COUPLINGS),
    "braid": ({**_DIMS, "loop": "object", "crossing": "object"},
              {"state_check": "bool"}),
    "qnd": ({"n_qubits": "int", "sites": "ints"},
            {"chi": "number", "tau": "number", "cavity_levels": "int",
             "tolerance": "tolerance"}),
    "circuit": ({"c_g": "number", "c_j": "number", "e_j": "number"},
                {"n_g": "number", "c_c": "number", "beta": "number",
                 "c_a": "number", "c_b": "number", "omega_c": "number",
                 "delta": "number", "g": "number",
                 "temperature": "number_or_null"}),
}


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    required, optional = _SCHEMAS[command]
    kinds = {**required, **optional}
    keys = set(cfg)
    missing = required.keys() - keys
    unknown = keys - kinds.keys()
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in sorted(keys):
        what, check = _KINDS[kinds[key]]
        if not check(cfg[key]):
            raise ConfigError(
                f"config key {key!r} must be {what}, got {cfg[key]!r}")
    return cfg


def _string_spec(layout, spec: dict) -> StringSpec:
    if "family" not in spec or not isinstance(spec.get("sites"), list):
        raise ConfigError("string spec needs 'family' and a list of 'sites'")
    family = spec["family"]
    sites = []
    for entry in spec["sites"]:
        if _is_int(entry):
            sites.append(entry)
        elif isinstance(entry, (list, tuple)) and len(entry) == 2 and \
                _is_int(entry[0]) and isinstance(entry[1], str):
            sites.append(layout.rank(entry[0], entry[1]))
        else:
            raise ConfigError(f"bad site entry {entry!r}")
    builders = {"z": StringSpec.z_string, "x": StringSpec.x_string,
                "y": StringSpec.y_string}
    if not isinstance(family, str) or family not in builders:
        raise ConfigError(f"unknown string family {family!r}")
    return builders[family](layout, sites)


# -- subcommand runners ------------------------------------------------

def run_lattice(cfg: dict, args) -> tuple[dict, bool]:
    layout = build_layout(int(cfg["rows"]), int(cfg["cols"]))
    report = layout.to_dict()
    report["counts"] = {
        "honeycomb_sites": layout.n_sites,
        "bonds": len(layout.square.bonds),
        "complete_plaquettes": len(layout.complete_plaquettes()),
        "chains": len(layout.chains()),
    }
    return report, True


def run_spectrum(cfg: dict, args) -> tuple[dict, bool]:
    layout = build_layout(int(cfg["rows"]), int(cfg["cols"]))
    tol = float(cfg.get("tolerance", 1e-10))
    rng = np.random.default_rng(args.seed)
    trials = []
    if "random_trials" in cfg:
        n_trials = cfg["random_trials"]
        if n_trials < 1:
            raise ConfigError(f"random_trials must be >= 1, got {n_trials}")
        for _ in range(n_trials):
            trials.append(tuple(float(x) for x in rng.uniform(0.2, 2.0, 3)))
    else:
        trials.append((float(cfg.get("j_up", 1.0)),
                       float(cfg.get("j_down", 1.0)),
                       float(cfg.get("u", 1.0))))
    results = []
    ok = True
    for j_up, j_down, u in trials:
        ham = build_spin_hamiltonian(layout, j_up, j_down, u)
        eig = spectrum(ham)
        oracle = DiagonalOracle(layout, j_up, j_down, u).sorted_spectrum()
        dev = float(np.max(np.abs(eig - oracle)))
        results.append({
            "couplings": [j_up, j_down, u],
            "eigenvalues": eig.tolist(),
            "max_multiset_deviation": dev,
        })
        ok = ok and dev < tol
    return {"tolerance": tol, "trials": results,
            "equivalence_pass": ok}, ok


def run_ground(cfg: dict, args) -> tuple[dict, bool]:
    layout = build_layout(int(cfg["rows"]), int(cfg["cols"]))
    j_up = float(cfg.get("j_up", 1.0))
    j_down = float(cfg.get("j_down", 1.0))
    u = float(cfg.get("u", 1.0))
    state = project_ground(layout)
    ham = build_spin_hamiltonian(layout, j_up, j_down, u)
    energy, variance = energy_moments(state, ham)
    eig = spectrum(ham)
    vmap = vortex_map(state, layout)
    oracle_deg = DiagonalOracle(layout, j_up, j_down, u).ground_degeneracy()
    predicted = predicted_ground_degeneracy(layout, j_up, j_down, u)
    ed_deg = int(np.count_nonzero(eig <= eig[0] + 1e-8))
    checks = {
        "all_plaquettes_plus_one": all(
            abs(w - 1) < 1e-12 and abs(wt - 1) < 1e-12
            for w, wt in vmap.values),
        "energy_is_minimum": abs(energy - float(eig[0])) < 1e-10,
        "variance_small": variance < 1e-10,
        "degeneracy_match": oracle_deg == ed_deg == predicted,
    }
    ok = all(checks.values())
    return {
        "energy": energy,
        "min_eigenvalue": float(eig[0]),
        "energy_variance": variance,
        "vortex_map": [list(v) for v in vmap.values],
        "degeneracy": {
            "oracle": oracle_deg,
            "exact_diagonalization": ed_deg,
            "predicted": predicted,
        },
        "checks": checks,
    }, ok


def run_braid(cfg: dict, args) -> tuple[dict, bool]:
    layout = build_layout(int(cfg["rows"]), int(cfg["cols"]))
    loop = _string_spec(layout, cfg["loop"])
    crossing = _string_spec(layout, cfg["crossing"])
    op_phase = braid_phase(loop, crossing)
    crossings = len(set(loop.sites) & set(crossing.sites))
    report = {
        "loop_family": loop.family,
        "crossing_family": crossing.family,
        "shared_sites": crossings,
        "operator_phase": op_phase.real,
    }
    agree = True
    if cfg.get("state_check", False):
        state = project_ground(layout)
        st_phase = braid_phase_on_state(loop, crossing, state)
        report["state_phase"] = [st_phase.real, st_phase.imag]
        agree = abs(st_phase - op_phase) < 1e-10
        report["agree"] = agree
    return report, agree


def run_qnd(cfg: dict, args) -> tuple[dict, bool]:
    n_qubits = int(cfg["n_qubits"])
    sites = [int(s) for s in cfg["sites"]]
    chi = float(cfg.get("chi", 1.0))
    cavity = int(cfg.get("cavity_levels", 2))
    tol = float(cfg.get("tolerance", 1e-10))
    if "tau" in cfg:
        params = QndParams(chi, float(cfg["tau"]), tuple(sites))
    else:
        params = QndParams.canonical(chi, sites)
    deviation = qnd_closed_form_deviation(params, n_qubits, cavity)
    rng = np.random.default_rng(args.seed)
    state = random_state(n_qubits, cavity_dim=cavity, rng=rng)
    qubits, readout = _zero_photon_readout(state, sites)
    direct = expectation(
        qubits, PauliString(n_qubits, 0, _site_mask(sites, n_qubits), 0)).real
    ok = params.is_canonical and deviation < tol and \
        abs(readout.inferred_eigenvalue - direct) < tol
    return {
        "n_selected": params.n,
        "chi": chi,
        "tau": params.tau,
        "canonical_time": params.is_canonical,
        "closed_form_deviation": deviation,
        "interferometry": {
            "coherence": [readout.coherence_real, readout.coherence_imag],
            "inferred_eigenvalue": readout.inferred_eigenvalue,
            "direct_expectation": direct,
        },
        "pass": ok,
    }, ok


def run_circuit(cfg: dict, args) -> tuple[dict, bool]:
    dev = DeviceParams(float(cfg["c_g"]), float(cfg["c_j"]),
                       float(cfg["e_j"]), float(cfg.get("n_g", 0.5)))
    if "beta" in cfg:
        c_c = float(cfg["beta"]) * dev.c_0
    else:
        c_c = float(cfg.get("c_c", 0.0))
    net = DeviceNetwork(dev, dev, c_c, float(cfg.get("c_a", 0.0)),
                        float(cfg.get("c_b", 0.0)))
    if net.c_a or net.c_b:
        couplings = chain_couplings(net)
    else:
        couplings = two_device_couplings(net)
    report = couplings.report()
    beta = couplings.beta_a
    if beta > 0:
        report["long_range"] = long_range_warning(beta)
    if "omega_c" in cfg and "delta" in cfg and "g" in cfg:
        report["frequencies"] = qnd_frequencies(
            couplings.e_c_a, dev.n_g, float(cfg["omega_c"]),
            float(cfg["delta"]), float(cfg["g"]),
            cfg.get("temperature"))
    return report, True


_RUNNERS = {
    "lattice": run_lattice,
    "spectrum": run_spectrum,
    "ground": run_ground,
    "braid": run_braid,
    "qnd": run_qnd,
    "circuit": run_circuit,
}


def _to_csv(report: dict) -> str:
    """Flatten the main table of a report into CSV."""
    buf = io.StringIO()
    if "trials" in report:
        buf.write("trial,j_up,j_down,u,max_multiset_deviation\n")
        for k, t in enumerate(report["trials"]):
            j1, j2, u = t["couplings"]
            buf.write(f"{k},{j1!r},{j2!r},{u!r},"
                      f"{t['max_multiset_deviation']!r}\n")
    elif "vortex_map" in report:
        buf.write("plaquette,w_up,w_down\n")
        for k, (w, wt) in enumerate(report["vortex_map"]):
            buf.write(f"{k},{w!r},{wt!r}\n")
    else:
        buf.write("key,value\n")
        for key in sorted(report):
            val = report[key]
            if isinstance(val, (int, float, str, bool)):
                buf.write(f"{key},{val!r}\n")
    return buf.getvalue()


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _leaf_encoder(inner: str):
    """The C encoder for a container of scalars, items on their own lines."""
    return json.JSONEncoder(sort_keys=True,
                            separators=(",\n" + inner, ": ")).encode


def _to_json(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte.

    ``json`` indents only in its pure-Python encoder.  A container whose
    values are all scalars is instead one C-encoder call with the newline
    and indent in its item separator; other containers recurse.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    inner = pad + "  "
    is_dict = isinstance(obj, dict)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        body = _leaf_encoder(inner)(obj)[1:-1]
    elif is_dict:
        body = (",\n" + inner).join(
            encode_basestring_ascii(key) + ": " + _to_json(val, inner)
            for key, val in sorted(obj.items()))
    else:
        body = (",\n" + inner).join(_to_json(val, inner) for val in obj)
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}{body}\n{pad}{closing}"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # building the parser costs argparse over ten times what one parse
    # does, so a process that runs many commands builds it once
    parser = argparse.ArgumentParser(
        prog="semionlab",
        description="anyon lattice model and circuit parameter toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = _load_config(args.config, args.command)
        report, ok = _RUNNERS[args.command](cfg, args)
    except (SemionLabError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        payload = _to_json(report) + "\n"
    else:
        payload = _to_csv(report)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write output {args.out}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
