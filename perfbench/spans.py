"""Spans around the calls into each ``semionlab`` module, recorded from outside.

``install`` wraps every public function of every ``semionlab`` module,
in each module namespace (and module-level dispatch table) that holds
it, plus the class methods in ``METHODS`` and the private
``cli._load_config``.  The program's own code is left as it is; a wrapper
only records ``[name, start, end, parent, pass_id, measure]`` in memory.
Span names are ``<module>.<function>`` with the renames in ``RENAMES``.

``pass_metrics`` turns the spans of one pass into the per-layer metrics
of ``LAYER_METRICS``.  Every ``.s`` figure is self time: a span's
duration minus the time its child spans cover, summed over the pass.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
import sys
from collections import defaultdict
from time import perf_counter

RENAMES = {
    "hamiltonian.HamiltonianTerms.apply": "hamiltonian.terms_apply",
    "hamiltonian.HamiltonianTerms.all_terms_commute":
        "hamiltonian.all_terms_commute",
    "hamiltonian.DiagonalOracle.enumerate_energies": "hamiltonian.oracle",
    "anyons.ControlledString.apply": "anyons.controlled_string",
    "anyons.qnd_closed_form_deviation": "anyons.qnd_deviation",
    "cli._load_config": "cli.load_config",
}

# (module, class, method) wrapped on the class itself
METHODS = (
    ("hamiltonian", "HamiltonianTerms", "apply"),
    ("hamiltonian", "HamiltonianTerms", "all_terms_commute"),
    ("hamiltonian", "DiagonalOracle", "enumerate_energies"),
    ("anyons", "ControlledString", "apply"),
)

PRIVATE = {"cli._load_config"}


def _dim(bound) -> int:
    return 1 << bound["ham"].n_sites


def _amps(bound) -> int:
    return bound["amps"].size


def _plaquette_key(bound) -> tuple:
    layout = bound["layout"]
    return (layout.square.rows, layout.square.cols,
            bound["plaquette"].index, bound["family"])


# span name -> (what to record from the bound arguments, from the result)
MEASURES = {
    "hamiltonian.spectrum": (_dim, None),
    "hamiltonian.dense_matrix": (None, lambda out: out.nbytes / 2 ** 20),
    "pauli.apply_to_amplitudes": (_amps, None),
    "operators.plaquette_op": (_plaquette_key, None),
}

# metric -> (unit, kind, span names).  Kinds: "calls" counts spans, "s"
# sums self time, "sum"/"max" fold the recorded measure, "rebuild" is
# calls over distinct recorded keys, "spans" counts every span of the pass.
LAYER_METRICS = {
    "hamiltonian.spectrum.calls": ("count", "calls", ("hamiltonian.spectrum",)),
    "hamiltonian.spectrum.s": ("s", "s", ("hamiltonian.spectrum",)),
    "hamiltonian.spectrum.dim_max": ("count", "max", ("hamiltonian.spectrum",)),
    "hamiltonian.spectrum.matrix_mb_computed":
        ("MB", "sum", ("hamiltonian.dense_matrix",)),
    "hamiltonian.dense_matrix.s": ("s", "s", ("hamiltonian.dense_matrix",)),
    "hamiltonian.oracle.s": ("s", "s", ("hamiltonian.oracle",)),
    "hamiltonian.build_spin_hamiltonian.s":
        ("s", "s", ("hamiltonian.build_spin_hamiltonian",)),
    "pauli.apply_to_amplitudes.calls":
        ("count", "calls", ("pauli.apply_to_amplitudes",)),
    "pauli.apply_to_amplitudes.s":
        ("s", "s", ("pauli.apply_to_amplitudes", "pauli.apply_phases")),
    "pauli.apply_to_amplitudes.amps":
        ("count", "sum", ("pauli.apply_to_amplitudes",)),
    "hamiltonian.terms_apply.calls":
        ("count", "calls", ("hamiltonian.terms_apply",)),
    "hamiltonian.terms_apply.s": ("s", "s", ("hamiltonian.terms_apply",)),
    "states.project_ground.s": ("s", "s", ("states.project_ground",)),
    "states.expectation.calls": ("count", "calls", ("states.expectation",)),
    "states.expectation.s": ("s", "s", ("states.expectation",)),
    "states.energy_moments.s": ("s", "s", ("states.energy_moments",)),
    "anyons.vortex_map.s": ("s", "s", ("anyons.vortex_map",)),
    "anyons.braid_phase_on_state.s":
        ("s", "s", ("anyons.braid_phase_on_state",)),
    "anyons.interferometry_run.s": ("s", "s", ("anyons.interferometry_run",)),
    "anyons.controlled_string.s": ("s", "s", ("anyons.controlled_string",)),
    "anyons.qnd_deviation.s": ("s", "s", ("anyons.qnd_deviation",)),
    "pauli.multiply.calls": ("count", "calls", ("pauli.multiply",)),
    "pauli.commutes.calls": ("count", "calls", ("pauli.commutes",)),
    "pauli.algebra.s": ("s", "s", ("pauli.multiply", "pauli.multiply_all",
                                   "pauli.commutes",
                                   "pauli.commutation_phase")),
    "anyons.fuse_check.s": ("s", "s", ("anyons.fuse_check",)),
    "lattice.build_layout.calls": ("count", "calls", ("lattice.build_layout",)),
    "lattice.build_layout.s": ("s", "s", ("lattice.build_layout",)),
    "operators.plaquette_op.calls":
        ("count", "calls", ("operators.plaquette_op",)),
    "operators.plaquette_op.s": ("s", "s", ("operators.plaquette_op",)),
    "operators.plaquette_op.rebuild_ratio":
        ("ratio", "rebuild", ("operators.plaquette_op",)),
    "circuit.couplings.s": ("s", "s", ("circuit.two_device_couplings",
                                       "circuit.chain_couplings",
                                       "circuit.charging_energy",
                                       "circuit.capacitance_determinant")),
    "circuit.frequencies.s": ("s", "s", ("circuit.qnd_frequencies",
                                         "circuit.jc_resonance")),
    "cli.load_config.s": ("s", "s", ("cli.load_config",)),
    "cli.main.self_s": ("s", "s", ("cli.main",)),
    "trace.spans": ("count", "spans", ()),
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self.pass_id = 0
        self._stack: list[int] = []

    def reset(self, pass_id: int) -> None:
        self.spans = []
        self.pass_id = pass_id

    def wrap(self, name: str, fn):
        arg_measure, out_measure = MEASURES.get(name, (None, None))
        signature = inspect.signature(fn) if arg_measure else None
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self.pass_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if arg_measure is not None:
                rec[5] = arg_measure(signature.bind(*args, **kwargs).arguments)
            elif out_measure is not None:
                rec[5] = out_measure(out)
            return out
        return traced


def _span_name(fn) -> str:
    name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"
    return RENAMES.get(name, name)


def install(tracer: Tracer) -> int:
    """Wrap the package's public functions and ``METHODS``; return how many."""
    import semionlab

    modules = [semionlab] + [importlib.import_module(f"semionlab.{info.name}")
                             for info in pkgutil.iter_modules(semionlab.__path__)]
    wrapped = {}
    for mod in modules:
        for obj in vars(mod).values():
            if not (inspect.isfunction(obj)
                    and obj.__module__.startswith("semionlab.")):
                continue
            name = f"{obj.__module__.rsplit('.', 1)[-1]}.{obj.__name__}"
            if obj.__name__.startswith("_") and name not in PRIVATE:
                continue
            if obj not in wrapped:
                wrapped[obj] = tracer.wrap(_span_name(obj), obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])
            elif isinstance(obj, dict):
                # dispatch tables such as the CLI's runner map
                for key, value in obj.items():
                    if inspect.isfunction(value) and value in wrapped:
                        obj[key] = wrapped[value]
    for module, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"semionlab.{module}"), cls_name)
        fn = cls.__dict__[method]
        setattr(cls, method, tracer.wrap(_span_name(fn), fn))
    return len(wrapped) + len(METHODS)


def pass_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, and a per-span table of it.

    The table maps each span name to ``[calls, self_s, total_s]``.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    table = defaultdict(lambda: [0, 0.0, 0.0])
    measures = defaultdict(list)
    for i, (name, start, end, _, _, measure) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += end - start - child[i]
        row[2] += end - start
        if measure is not None:
            measures[name].append(measure)
    metrics = {}
    for metric, (_, kind, names) in LAYER_METRICS.items():
        rows = [table[n] for n in names if n in table]
        values = [m for n in names for m in measures.get(n, ())]
        if kind == "calls":
            metrics[metric] = sum(r[0] for r in rows)
        elif kind == "s":
            metrics[metric] = float(sum(r[1] for r in rows))
        elif kind == "sum":
            metrics[metric] = sum(values)
        elif kind == "max":
            metrics[metric] = max(values, default=0)
        elif kind == "rebuild":
            metrics[metric] = len(values) / len(set(values)) if values else 0.0
        else:
            metrics[metric] = len(spans)
    return metrics, dict(table)


def fold_passes(per_pass: list[dict]) -> dict:
    """Median over passes for times; counts must repeat in every pass."""
    folded = {}
    for metric, (unit, _, _) in LAYER_METRICS.items():
        values = [p[metric] for p in per_pass]
        if unit == "s":
            folded[metric] = statistics.median(values)
            continue
        folded[metric] = values[0]
        if any(v != values[0] for v in values):
            print(f"warning: {metric} differs between passes: {values}",
                  file=sys.stderr)
    return folded
