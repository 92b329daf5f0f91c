"""scripts/code_lines.py: code lines leave out blanks, comments and docstrings."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment-only line
import math  # a trailing comment keeps its line


class Box:
    """Class docstring."""

    size = 2


def area(r):
    """Function docstring.

    Its blank line is part of it.
    """
    text = """a string that is not a docstring
spans two lines"""
    return math.pi * r * r, text


def bare():
    "Single-quoted docstring."
'''


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code():
    # import, class, size, def area, the two lines of text, return, def bare
    assert _script().code_lines(FIXTURE) == 8


def test_code_lines_prints_each_module_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(FIXTURE)
    second.write_text("x = 1\n\n# done\n")
    assert _script().main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     8  a.py", "     1  b.py", "     9  total", ""]
