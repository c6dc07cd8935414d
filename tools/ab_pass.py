"""Interleaved A/B timing of one benchmark workload, both trees in one process.

Run from anywhere, with two checkouts of this repository:

    python tools/ab_pass.py PARENT CHANGE --workload anyon_states --passes 300

Each tree's ``src/semionlab`` is imported under its own set of module
objects, and its ``perfbench/plans.py`` and ``perfbench/ops.py`` build the
operation list of the workload for ``--seed``, exactly as a benchmark
worker would.  Then the two lists run in alternation, one pass of each
per pair, the first tree of a pair alternating from pair to pair.  Run
apart, two processes on a shared host can drift by a factor of two in
pass time, far more than the change being measured; passes interleaved
in one process see the same drift, so their ratio keeps it out.

Printed: the median of the per-pair ratios CHANGE / PARENT with its
quartiles, the number of pairs the change ran faster in (a claimed gain
is judged by the pairs it wins), the median pass time of each tree, and
each operation's median time in both with the median over pairs of its
own ratio CHANGE / PARENT.  The unpaired medians drift as whole passes
do; the paired ratio names the operation that moved.  A pass whose
checks fail is reported and ends the run with exit code 1.  BLAS and
OpenMP are pinned to one thread, as in the benchmark worker.  Nothing
else of ``perfbench`` is read.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

PACKAGE = "semionlab"
WARMUP_PASSES = 5


def _package_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")}


def _load_file(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Tree:
    """One checkout: its own package modules and its operation list."""

    def __init__(self, root: Path, tag: str, workload: str, seed: int,
                 work: Path):
        self.root = root
        for name in _package_modules():
            del sys.modules[name]
        src = str(root / "src")
        sys.path.insert(0, src)
        try:
            package = importlib.import_module(PACKAGE)
            importlib.import_module(PACKAGE + ".cli")
            if root / "src" not in Path(package.__file__).resolve().parents:
                raise SystemExit(f"{PACKAGE} of {root} imported from "
                                 f"{package.__file__}")
            bench = root / "perfbench"
            plans = _load_file(f"ab_{tag}_plans", bench / "plans.py")
            ops = _load_file(f"ab_{tag}_ops", bench / "ops.py")
        finally:
            sys.path.remove(src)
        self.modules = _package_modules()
        plan = plans.make_plan(workload, seed)
        paths = {}
        for stem, cfg in plan["configs"].items():
            path = work / f"{tag}-{stem}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            paths[stem] = str(path)
        self.ops = ops.build_ops(workload, plan, paths)
        self.pass_s: list[float] = []
        self.op_s = {label: [] for label, _ in self.ops}

    def run_pass(self, record: bool) -> None:
        # the other tree's modules leave sys.modules for the pass, so a
        # name resolved at call time reaches this tree's code
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(self.modules)
        ctx = {}
        times = []
        failed = []
        start = perf_counter()
        for label, fn in self.ops:
            t0 = perf_counter()
            if not fn(ctx):
                failed.append(label)
            times.append(perf_counter() - t0)
        total = perf_counter() - start
        if failed:
            raise SystemExit(f"{self.root}: checks failed in {failed}")
        if record:
            self.pass_s.append(total)
            for (label, _), t in zip(self.ops, times):
                self.op_s[label].append(t)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _wins(parent: list[float], change: list[float]) -> int:
    """How many pairs the change ran strictly faster in."""
    return sum(c < p for p, c in zip(parent, change))


def _paired_ratio(parent: list[float], change: list[float]) -> float:
    """The median over pairs of the ratio change / parent."""
    return statistics.median(c / p for p, c in zip(parent, change))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--passes", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.passes < 2:
        parser.error("--passes must be at least 2")

    with tempfile.TemporaryDirectory(prefix="ab_pass-") as tmp:
        work = Path(tmp)
        parent = Tree(args.parent.resolve(), "parent", args.workload,
                      args.seed, work)
        change = Tree(args.change.resolve(), "change", args.workload,
                      args.seed, work)
        for _ in range(WARMUP_PASSES):
            parent.run_pass(False)
            change.run_pass(False)
        for k in range(args.passes):
            first, second = (parent, change) if k % 2 == 0 else (change,
                                                                  parent)
            first.run_pass(True)
            second.run_pass(True)

    ratios = [c / p for p, c in zip(parent.pass_s, change.pass_s)]
    q1, med, q3 = _quartiles(ratios)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{args.passes} interleaved pass pairs")
    print(f"paired ratio change/parent: median {med:.3f} "
          f"(quartiles {q1:.3f}, {q3:.3f}); change faster in "
          f"{_wins(parent.pass_s, change.pass_s)} of {len(ratios)} pairs")
    print(f"median pass: parent {statistics.median(parent.pass_s) * 1e3:.2f}"
          f" ms, change {statistics.median(change.pass_s) * 1e3:.2f} ms")
    print(f"{'operation':<28} {'parent ms':>10} {'change ms':>10} "
          f"{'paired':>8}")
    labels = list(parent.op_s) + [label for label in change.op_s
                                  if label not in parent.op_s]
    for label in labels:
        cells = [f"{statistics.median(tree.op_s[label]) * 1e3:10.3f}"
                 if label in tree.op_s else f"{'-':>10}"
                 for tree in (parent, change)]
        times = parent.op_s.get(label), change.op_s.get(label)
        paired = (f"{_paired_ratio(*times):8.3f}" if all(times)
                  else f"{'-':>8}")
        print(f"{label:<28} {cells[0]} {cells[1]} {paired}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
