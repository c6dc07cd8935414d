"""Put ``src`` on ``PYTHONPATH`` for the subprocesses some tests start.

``pythonpath`` in ``pyproject.toml`` makes the package importable in the
test process only; the CLI tests that run ``python -m semionlab.cli``
need it in their environment as well, so a bare ``pytest`` works from a
checkout without an install.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
