"""Benchmark of semionlab: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload dense_solvers --seed 1 --seconds 55 --trace 0

The workloads are ``dense_solvers`` and ``anyon_states``;
``perfbench/README.md`` says why each exists and which layers it
isolates.  Inputs are drawn from ``--seed`` (plans.py) and
written as CLI configs under ``perfbench/.work``; the workload runs in a
fresh worker process with BLAS pinned to one thread (worker.py).

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over five fresh processes of the time from process
  start until numpy, scipy and semionlab are imported and LAPACK is
  loaded; two run before the workload's own worker and two after it.
* ``solve_s``: median wall time of one pass over the operation list,
  every result checked; passes repeat for about ``--seconds``.
* ``peak_rss_mb``: ``ru_maxrss`` of the workload's worker.
* ``verified_frac``: operations whose exit code, verdict and checks were
  right (no exception), over operations attempted: one minus the failure
  fraction.

``--trace 1`` prints the per-layer metrics of spans.py and
``trace.overhead_s``, the traced minus the untraced median pass time
measured in the same worker; the spans of the first traced pass go to
``perfbench/out``.  Every line but the last is information; the last is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from plans import WORKLOADS, make_plan
from spans import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(worker_args: list[str], deadline: float) -> float:
    """Start a worker, time it to its ``ready`` line, wait for its exit.

    Returns the set-up time.  The worker is killed if it overruns.
    """
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *worker_args],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - perf_counter(), 0))
        line = proc.stdout.readline() if ready else ""
        setup_s = perf_counter() - start
        if line.strip() != "ready":
            raise BenchError("worker did not become ready")
        proc.communicate(timeout=max(deadline - perf_counter(), 0))
        if proc.returncode != 0:
            raise BenchError(f"worker exited with code {proc.returncode}")
        return setup_s
    except subprocess.TimeoutExpired as exc:
        raise BenchError("worker overran the time limit") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def report_phase(tag: str, labels: list[str], phase: dict) -> None:
    q = quartiles(phase["pass_s"])
    print(f"{tag}: {len(phase['pass_s'])} passes, pass_s quartiles "
          f"{q[0]:.6f} {q[1]:.6f} {q[2]:.6f}")
    ops = {label: round(statistics.median(t), 6)
           for label, t in zip(labels, phase["op_s"])}
    print(f"{tag} op median s: {json.dumps(ops)}")
    for label, why in phase["failures"].items():
        print(f"{tag} FAILED {label}: {why}")


def run(args: argparse.Namespace, work: Path) -> dict:
    deadline = perf_counter() + DEADLINE_S
    plan = make_plan(args.workload, args.seed)
    paths = {}
    for stem, cfg in plan["configs"].items():
        paths[stem] = str(work / f"{stem}.json")
        with open(paths[stem], "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
    plan_path = work / "plan.json"
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({"plan": plan, "paths": paths}, fh)

    result_path = work / "result.json"
    worker_args = ["--workload", args.workload, "--plan", str(plan_path),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--out", str(result_path)]
    if args.trace:
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        worker_args += ["--spans-out", str(spans_path)]
    # set-up probes on both sides of the workload, so that the samples
    # span the run rather than one moment of the host's load
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = [run_worker(["--setup-only"], deadline)
              for _ in range(probes // 2)]
    setups.append(run_worker(worker_args, deadline))
    setups += [run_worker(["--setup-only"], deadline)
               for _ in range(probes - probes // 2)]
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    print("host " + json.dumps(result["host"], sort_keys=True))
    untraced = result["untraced"]
    report_phase("untraced", result["labels"], untraced)
    phases = [untraced]
    if args.trace:
        traced = result["traced"]
        report_phase("traced", result["labels"], traced)
        phases.append(traced)
        overhead = (statistics.median(traced["pass_s"])
                    - statistics.median(untraced["pass_s"]))
        print(f"tracing: {result['wrapped']} functions wrapped, "
              f"{traced['layers']['trace.spans']} spans per pass, "
              f"overhead {overhead:.6f} s per pass; spans in {spans_path}")
        metrics = {name: metric(traced["layers"][name], unit)
                   for name, (unit, _, _) in LAYER_METRICS.items()}
        metrics["trace.overhead_s"] = metric(overhead, "s")
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    print(f"fail_frac {failed / attempted} ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"setup_s samples {json.dumps(setups)}")
        metrics = {
            "setup_s": metric(statistics.median(setups), "s"),
            "solve_s": metric(statistics.median(untraced["pass_s"]), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
            "verified_frac": metric((attempted - failed) / attempted, "ratio"),
        }
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "semionlab" / "__init__.py").is_file():
        print(f"error: no semionlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        outcome = run(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
