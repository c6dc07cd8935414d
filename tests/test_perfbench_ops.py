"""One pass of each benchmark workload runs against this tree and verifies.

``perfbench/ops.py`` calls the public API directly, so a change to a
public signature that the benchmark relies on fails here, at seed 1,
rather than only when the benchmark runs.
"""

import importlib.util
import json
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


@pytest.mark.parametrize("workload", plans.WORKLOADS)
def test_one_pass_verifies(workload, tmp_path):
    plan = plans.make_plan(workload, 1)
    paths = {}
    for stem, cfg in plan["configs"].items():
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        paths[stem] = str(path)
    ctx = {}
    failed = [label for label, fn in ops.build_ops(workload, plan, paths)
              if not fn(ctx)]
    assert failed == []
