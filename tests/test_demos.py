"""Every script under ``demos/`` runs to completion against ``src``."""

import subprocess
import sys
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos")
                .glob("*.py"))


def test_demos_found():
    assert _DEMOS


@pytest.mark.parametrize("script", _DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(script):
    # conftest puts src on PYTHONPATH for subprocesses
    proc = subprocess.run([sys.executable, str(script)], cwd=script.parent,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
