"""Batch front-end: parse a JSON run config, dispatch, emit results.

One subcommand per experiment family: ``lattice``, ``spectrum``,
``ground``, ``braid``, ``qnd``, ``circuit``.  Results go to stdout or
``--out`` as JSON (``--format csv`` emits the main table instead); logs
go to stderr, so machine-readable output is never interleaved.  The exit
code is 0 iff every verdict of the run passed.  Identical configs and
builds produce byte-identical primary output.
"""

from __future__ import annotations

import functools
import io
import json
import math
import operator
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

from . import __version__
from .anyons import (
    QndParams,
    StringSpec,
    _zero_photon_readout,
    braid_phase,
    braid_phase_on_state,
    predicted_flips,
    qnd_closed_form_deviation,
    vortex_map,
)
from .circuit import (
    DeviceNetwork,
    chain_couplings,
    long_range_warning,
    qnd_frequencies,
    two_device_couplings,
)
from .errors import (
    MAX_RANDOM_TRIALS,
    CapacityError,
    ConfigError,
    SemionLabError,
    _agree,
    _require_capacity,
)
from .hamiltonian import (
    DiagonalOracle,
    build_spin_hamiltonian,
    ground_sector,
    predicted_ground_degeneracy,
    spectrum,
)
from .lattice import DOWN, UP, build_layout
from .pauli import PauliString, _site_mask
from .states import (
    apply_pauli,
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
    "spectrum": (_DIMS, {**_COUPLINGS, "random_trials": "int"}),
    "ground": (_DIMS, _COUPLINGS),
    "braid": ({**_DIMS, "loop": "object", "crossing": "object"},
              {"state_check": "bool"}),
    "qnd": ({"n_qubits": "int", "sites": "ints"},
            {"chi": "number", "tau": "number", "cavity_levels": "int"}),
    "circuit": ({"c_g": "number", "c_j": "number", "e_j": "number"},
                {"n_g": "number", "beta": "number", "c_a": "number",
                 "c_b": "number", "omega_c": "number", "delta": "number",
                 "g": "number", "temperature": "number"}),
}


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        # as a text-mode read would, so JSON error positions stay the same
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        cfg = json.loads(text)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    unread = sorted(_COUPLINGS.keys() & cfg.keys())
    if unread and "random_trials" in cfg:
        raise ConfigError("random_trials draws its own couplings; "
                          f"remove {unread}")
    layout = build_layout(int(cfg["rows"]), int(cfg["cols"]))
    rng = np.random.default_rng(args.seed)
    trials = []
    if "random_trials" in cfg:
        n_trials = cfg["random_trials"]
        if n_trials < 1:
            raise ConfigError(f"random_trials must be >= 1, got {n_trials}")
        if n_trials > MAX_RANDOM_TRIALS:
            raise CapacityError(f"{n_trials} random trials, over the limit "
                                f"of {MAX_RANDOM_TRIALS}")
        # the report holds every trial's 2**n eigenvalues
        _require_capacity(n_trials << layout.n_sites,
                          f"{n_trials} x 2**{layout.n_sites} eigenvalues")
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
            "eigenvalues": eig,
            "max_multiset_deviation": dev,
        })
        ok = ok and _agree(dev, 0.0, ham.scale)
    return {"trials": results, "equivalence_pass": ok}, ok


def run_ground(cfg: dict, args) -> tuple[dict, bool]:
    layout = build_layout(int(cfg["rows"]), int(cfg["cols"]))
    j_up = float(cfg.get("j_up", 1.0))
    j_down = float(cfg.get("j_down", 1.0))
    u = float(cfg.get("u", 1.0))
    # the oracle's 4**N budget refuses more than 12 square sites before
    # any spin-side work
    oracle_deg = DiagonalOracle(layout, j_up, j_down, u).ground_degeneracy()
    ham = build_spin_hamiltonian(layout, j_up, j_down, u)
    move, min_energy, ed_deg = ground_sector(ham)
    state = apply_pauli(project_ground(layout), move)
    energy, variance = energy_moments(state, ham)
    vmap = vortex_map(state, layout)
    flips = predicted_flips(layout, move)
    try:
        predicted = predicted_ground_degeneracy(layout, j_up, j_down, u)
    except ValueError:
        predicted = None  # outside the chain picture
    checks = {
        "plaquettes_match_sector": all(
            _agree(w, (-1) ** (k in flips[UP]), 1.0)
            and _agree(wt, (-1) ** (k in flips[DOWN]), 1.0)
            for k, (w, wt) in enumerate(vmap.values)),
        "energy_is_minimum": _agree(energy, min_energy, ham.scale),
        "variance_small": _agree(math.sqrt(variance), 0.0, ham.scale),
        "degeneracy_match": oracle_deg == ed_deg and (
            predicted is None or predicted == ed_deg),
    }
    ok = all(checks.values())
    return {
        "energy": energy,
        "min_eigenvalue": min_energy,
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
        agree = _agree(abs(st_phase - op_phase), 0.0, 1.0)
        report["agree"] = agree
    return report, agree


def run_qnd(cfg: dict, args) -> tuple[dict, bool]:
    n_qubits = int(cfg["n_qubits"])
    sites = [int(s) for s in cfg["sites"]]
    chi = float(cfg.get("chi", 1.0))
    cavity = int(cfg.get("cavity_levels", 2))
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
    ok = params.is_canonical \
        and _agree(deviation, 0.0, params.deviation_scale(cavity)) \
        and _agree(readout.inferred_eigenvalue, direct, 1.0)
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


_FREQUENCY_KEYS = {"omega_c", "delta", "g"}


def run_circuit(cfg: dict, args) -> tuple[dict, bool]:
    net = DeviceNetwork.identical(
        float(cfg["c_g"]), float(cfg["c_j"]), float(cfg["e_j"]),
        float(cfg.get("beta", 0.0)), float(cfg.get("n_g", 0.5)),
        float(cfg.get("c_a", 0.0)), float(cfg.get("c_b", 0.0)))
    if net.c_a or net.c_b:
        couplings = chain_couplings(net)
    else:
        couplings = two_device_couplings(net)
    report = couplings.report()
    beta = couplings.beta_a
    if beta > 0:
        report["long_range"] = long_range_warning(beta)
    missing = _FREQUENCY_KEYS - cfg.keys()
    if missing != _FREQUENCY_KEYS or "temperature" in cfg:
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)} "
                              "(frequencies need omega_c, delta and g)")
        report["frequencies"] = qnd_frequencies(
            couplings.e_c_a, net.device_a.n_g, float(cfg["omega_c"]),
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


def _csv_value(val) -> str:
    if isinstance(val, float) and not math.isfinite(val):
        raise ValueError(f"non-finite value {val!r} in the report")
    return repr(val)


def _to_csv(report: dict) -> str:
    """Flatten the main table of a report into CSV."""
    buf = io.StringIO()
    if "trials" in report:
        buf.write("trial,j_up,j_down,u,max_multiset_deviation\n")
        for k, t in enumerate(report["trials"]):
            values = (*t["couplings"], t["max_multiset_deviation"])
            buf.write(f"{k},{','.join(map(_csv_value, values))}\n")
    elif "vortex_map" in report:
        buf.write("plaquette,w_up,w_down\n")
        for k, (w, wt) in enumerate(report["vortex_map"]):
            buf.write(f"{k},{_csv_value(w)},{_csv_value(wt)}\n")
    else:
        buf.write("key,value\n")
        for key in sorted(report):
            val = report[key]
            if isinstance(val, (int, float, str, bool)):
                buf.write(f"{key},{_csv_value(val)}\n")
    return buf.getvalue()


_SCALARS = frozenset((str, int, float, bool, type(None)))
_SEQUENCES = frozenset((list, tuple))


@functools.cache
def _leaf_encoder(inner: str):
    """The C encoder for a container of scalars, items on their own lines."""
    return json.JSONEncoder(sort_keys=True, allow_nan=False,
                            separators=(",\n" + inner, ": ")).encode


def _encode_each(values: list, pad: str) -> list[str]:
    """``[_to_json(v, pad) for v in values]``, written a column at a time.

    Scalars are one C-encoder call on the whole list, split at ``",\n"``:
    an encoded scalar never holds a raw newline.  Dicts that share one
    set of string keys, and lists that share one length, are written as
    columns, one per key or position, each by one recursive call; each
    item is then one ``%`` format of its row of column texts, with any
    ``%`` of a key escaped.  Other lists encode their scalars in one call
    and the rest one by one.
    """
    if not values:
        return []
    kinds = set(map(type, values))
    if kinds <= _SCALARS:
        return _leaf_encoder("")(values)[1:-1].split(",\n")
    inner = pad + "  "
    sep = ",\n" + inner
    rows = None
    if kinds == {dict}:
        keys = values[0].keys()
        # dicts of one size that all hold the first one's keys share them
        if keys and all(type(key) is str for key in keys) and \
                len(set(map(len, values))) == 1:
            names = sorted(keys)
            try:
                rows = list(map(operator.itemgetter(*names), values))
            except KeyError:
                pass
            else:
                if len(names) == 1:
                    rows = [(value,) for value in rows]
                template = "{\n" + inner + sep.join(
                    encode_basestring_ascii(key).replace("%", "%%") + ": %s"
                    for key in names) + "\n" + pad + "}"
    elif kinds <= _SEQUENCES and len(set(map(len, values))) == 1 and \
            values[0]:
        rows = values
        template = ("[\n" + inner + sep.join(["%s"] * len(values[0]))
                    + "\n" + pad + "]")
    if rows is not None:
        texts = [_encode_each(list(col), inner) for col in zip(*rows)]
        return list(map(template.__mod__, zip(*texts)))
    scalars = iter(_encode_each(
        [v for v in values if type(v) in _SCALARS], pad))
    return [next(scalars) if type(v) in _SCALARS else _to_json(v, pad)
            for v in values]


def _to_json(obj, pad: str = "") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``, byte
    for byte, with a 1-D float64 array written as the list ``.tolist()``
    gives.

    ``json`` indents only in its pure-Python encoder.  A container whose
    values are all scalars is instead one C-encoder call with the newline
    and indent in its item separator; other containers write their values
    through :func:`_encode_each`, which batches them by column.  An array
    is written one run of equal neighbours at a time: each run's value is
    formatted once and its text repeated.
    """
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        try:  # a scalar or an empty container, so no separator shows
            return _leaf_encoder(pad)(obj)
        except TypeError:
            if not (isinstance(obj, np.ndarray) and obj.ndim == 1
                    and obj.dtype == np.float64):
                raise
        if not obj.size:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        # runs split where the bits change, which keeps -0.0 apart from 0.0
        bits = obj.view(np.int64)
        starts = np.concatenate(([True], bits[1:] != bits[:-1]))
        # every value is some run's value, so the encoder sees (and
        # refuses) every non-finite one
        runs = _leaf_encoder(inner)(obj[starts].tolist())[1:-1].split(sep)
        counts = np.diff(np.flatnonzero(np.append(starts, True)))
        body = "".join((text + sep) * count for text, count in
                       zip(runs, counts.tolist()))[:-len(sep)]
        return f"[\n{inner}{body}\n{pad}]"
    inner = pad + "  "
    is_dict = isinstance(obj, dict)
    if _SCALARS.issuperset(map(type, obj.values() if is_dict else obj)):
        body = _leaf_encoder(inner)(obj)[1:-1]
    elif is_dict:
        keys = sorted(obj)
        body = (",\n" + inner).join(map(
            "%s: %s".__mod__,
            zip(map(encode_basestring_ascii, keys),
                _encode_each([obj[key] for key in keys], inner))))
    else:
        body = (",\n" + inner).join(_encode_each(obj, inner))
    opening, closing = "{}" if is_dict else "[]"
    return f"{opening}\n{inner}{body}\n{pad}{closing}"


# -- argv ---------------------------------------------------------------

_FORMATS = ("json", "csv")
_FLAGS = frozenset(("--config", "--out", "--format", "--seed"))


@functools.cache
def _parser():
    """The argparse grammar of the CLI, built on the first argv that
    :func:`_parse_argv` leaves to it.  Help and usage wrap at 78 columns
    whatever the terminal width."""
    import argparse

    class Store(argparse.Action):
        # argparse before 3.13 reads an "=" value of exactly "--" as []
        # and skips the type and choices checks; read it as "--"
        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                values = parser._get_value(self, "--")
                parser._check_value(self, values)
            setattr(namespace, self.dest, values)

    formatter = functools.partial(argparse.HelpFormatter, width=78)
    parser = argparse.ArgumentParser(
        prog="semionlab", formatter_class=formatter,
        description="anyon lattice model and circuit parameter toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name, formatter_class=formatter)
        p.add_argument("--config", required=True, action=Store)
        p.add_argument("--out", default=None, action=Store)
        p.add_argument("--format", choices=_FORMATS, default="json",
                       action=Store)
        p.add_argument("--seed", type=int, default=0, action=Store)
    return parser


def _parse_argv(argv: list[str]):
    """``command``, ``config``, ``out``, ``format`` and ``seed`` of argv.

    The grammar is :func:`_parser`'s.  The canonical form is read here
    without argparse: a command, then whole flag names only, each value
    in the next token (one that does not start with ``-``) or after
    ``=``, a last value winning.  Every other argv, help, ``--version``
    and every refusal among them, goes to argparse.
    """
    if argv and argv[0] in _RUNNERS:
        args = SimpleNamespace(command=argv[0], config=None, out=None,
                               format="json", seed=0)
        k, n = 1, len(argv)
        while k < n:
            name, equals, value = argv[k].partition("=")
            k += 1
            if name not in _FLAGS:
                break
            if not equals:
                if k == n or argv[k][:1] == "-":
                    break
                value = argv[k]
                k += 1
            if name == "--seed":
                try:
                    value = int(value)
                except ValueError:
                    break
            elif name == "--format" and value not in _FORMATS:
                break
            setattr(args, name[2:], value)
        else:
            if args.config is not None:
                return args
    return _parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))

    try:
        cfg = _load_config(args.config, args.command)
        # a float fault inside numpy is an error, not a NaN in the report
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            report, ok = _RUNNERS[args.command](cfg, args)
        if args.format == "json":
            payload = _to_json(report) + "\n"
        else:
            payload = _to_csv(report)
    except (SemionLabError, ValueError, ZeroDivisionError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: numeric overflow: {exc}", file=sys.stderr)
        return 2

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
