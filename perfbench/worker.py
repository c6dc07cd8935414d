"""One workload in one fresh process: set up, signal ready, run passes.

Run by ``run.py``; not meant to be started by hand.  BLAS and OpenMP
are pinned to one thread before numpy is imported.  The process prints
``ready`` on stdout once numpy, scipy and the package are imported and
one tiny ``eigvalsh`` has loaded LAPACK; ``run.py`` times set-up up to
that line.  With ``--setup-only`` it stops there.  Otherwise it runs
passes of the workload's operation list for about ``--seconds`` (see
``run_phase``) and writes a JSON result to ``--out``.

With ``--trace 1`` the time is split in two: untraced passes first, then
passes with every call into the package wrapped (see ``spans.py``).
The difference of the two median pass times is the tracing overhead.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def setup():
    """Import the stack and load LAPACK; the work ``setup_s`` measures."""
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy.linalg

    import semionlab
    import semionlab.cli  # noqa: F401

    if SRC not in Path(semionlab.__file__).resolve().parents:
        raise SystemExit(f"semionlab imported from {semionlab.__file__}, "
                         f"not from {SRC}")
    scipy.linalg.eigvalsh(np.eye(2))


def host_info() -> dict:
    """Library versions, BLAS threads in effect, CPU count and cache sizes."""
    import numpy as np
    import scipy

    blas = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                       and ln.split()[-1].endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {}
        for suffix in ("", "64_"):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                entry = {"config": config().decode(), "threads": threads()}
        blas[Path(path).name] = entry
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        level = (index / "level").read_text().strip()
        kind = (index / "type").read_text().strip()
        caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": blas,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches_cpu0": caches,
    }


def run_pass(ops, failures: dict) -> tuple[float, list[float], int]:
    """Run every operation once; return pass time, op times, failures."""
    ctx = {}
    op_times = []
    failed = 0
    start = perf_counter()
    for label, fn in ops:
        t0 = perf_counter()
        try:
            ok = fn(ctx)
        except Exception as exc:  # a raising operation is a failed one
            ok = False
            failures.setdefault(label, f"{type(exc).__name__}: {exc}")
        else:
            if not ok:
                failures.setdefault(label, "check failed")
        op_times.append(perf_counter() - t0)
        failed += not ok
    return perf_counter() - start, op_times, failed


def run_phase(ops, seconds: float, tracer=None) -> tuple[dict, tuple | None]:
    """At least one pass, then more while the next is expected to end in time.

    The next pass is expected to take the median pass time so far, so a
    run overshoots ``seconds`` only when a pass runs slower than that.
    Returns the phase record and, when traced, the first pass's spans
    with their per-name table.
    """
    from spans import fold_passes, pass_metrics

    phase = {"pass_s": [], "op_s": [[] for _ in ops], "attempted": 0,
             "failed": 0, "failures": {}, "layers": []}
    first = None
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset(len(phase["pass_s"]))
        pass_s, op_s, failed = run_pass(ops, phase["failures"])
        phase["pass_s"].append(pass_s)
        for times, t in zip(phase["op_s"], op_s):
            times.append(t)
        phase["attempted"] += len(ops)
        phase["failed"] += failed
        if tracer is not None:
            metrics, table = pass_metrics(tracer.spans)
            phase["layers"].append(metrics)
            first = first or (tracer.spans, table)
        if perf_counter() - start + statistics.median(phase["pass_s"]) \
                > seconds:
            break
    if tracer is not None:
        phase["layers"] = fold_passes(phase["layers"])
    return phase, first


def write_spans(path: Path, spans: list, table: dict) -> None:
    """Spans of the first traced pass as JSON lines, then the span table."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for name, start, end, parent, pass_id, _ in spans:
            fh.write(json.dumps({"name": name, "start": start - origin,
                                 "end": end - origin, "parent": parent,
                                 "pass": pass_id}) + "\n")
        for name, (calls, self_s, total_s) in sorted(table.items()):
            fh.write(json.dumps({"span": name, "calls": calls,
                                 "self_s": self_s, "total_s": total_s}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--plan", type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args()

    setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import ops as workload_ops
    import spans

    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    ops = workload_ops.build_ops(args.workload, plan["plan"], plan["paths"])
    result = {"host": host_info(), "labels": [label for label, _ in ops]}
    if args.trace:
        result["untraced"], _ = run_phase(ops, args.seconds / 2)
        tracer = spans.Tracer()
        result["wrapped"] = spans.install(tracer)
        traced_ops = [(label, tracer.wrap(f"op.{label}", fn))
                      for label, fn in ops]
        result["traced"], first = run_phase(traced_ops, args.seconds / 2,
                                            tracer)
        write_spans(args.spans_out, *first)
    else:
        result["untraced"], _ = run_phase(ops, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
