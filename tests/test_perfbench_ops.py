"""One pass of each benchmark workload runs against this tree and verifies.

``perfbench/ops.py`` calls the public API directly, so a change to a
public signature that the benchmark relies on fails here, at seeds 1-5,
rather than only when the benchmark runs.  The same holds for the
traced pass of ``--trace 1``, which wraps the package through
``perfbench/spans.py`` first.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


plans = _load("plans")
ops = _load("ops")


def _config_paths(plan: dict, tmp_path) -> dict:
    """Write the plan's CLI configs; return their paths by stem."""
    paths = {}
    for stem, cfg in plan["configs"].items():
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths[stem] = str(path)
    return paths


# seeds 1-5, so a verdict window that one benchmark seed's draws break
# fails here; the seed-1 cases keep the plain workload name
@pytest.mark.parametrize("workload,seed", [
    pytest.param(workload, seed,
                 id=workload if seed == 1 else f"{workload}-seed{seed}")
    for seed in range(1, 6) for workload in plans.WORKLOADS])
def test_one_pass_verifies(workload, seed, tmp_path):
    plan = plans.make_plan(workload, seed)
    paths = _config_paths(plan, tmp_path)
    ctx = {}
    failed = [label for label, fn in ops.build_ops(workload, plan, paths)
              if not fn(ctx)]
    assert failed == []


# ``spans.install`` rewraps module attributes for the whole process, so
# the traced pass runs in a child process of its own
_TRACED_PASS = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ops, plans, spans
workload, paths = sys.argv[2], json.loads(sys.argv[3])
tracer = spans.Tracer()
spans.install(tracer)
ctx = {}
failed = [label for label, fn in ops.build_ops(
    workload, plans.make_plan(workload, 1), paths) if not fn(ctx)]
metrics, _ = spans.pass_metrics(tracer.spans)
print(json.dumps({"failed": failed, "spans": len(tracer.spans),
                  "metrics": sorted(metrics),
                  "layer_metrics": sorted(spans.LAYER_METRICS)}))
"""


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_one_traced_pass_verifies(workload, tmp_path):
    paths = _config_paths(plans.make_plan(workload, 1), tmp_path)
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_PASS, str(_BENCH), workload,
         json.dumps(paths)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["failed"] == [] and result["spans"] > 0
    assert result["metrics"] == result["layer_metrics"]
