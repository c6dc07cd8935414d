"""The repository tools under ``tools/`` that tests can run in-process."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""

# a comment
import os


class Thing:
    """Class docstring."""

    size = (1,
            2)  # trailing comment

    def method(self):
        """Method docstring."""
        text = """a string
that is not a docstring"""
        return text


def f(x): return x
'''


def test_code_lines_leaves_out_docstrings_comments_and_blanks():
    # import, class, size (2 lines), def, text (2 lines), return, def f
    assert _load("code_lines").code_lines(FIXTURE) == 9


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert _load("code_lines").main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "2 b.py\n9 pkg/a.py\n11 total\n"
