"""Count the code lines of each module in src/iharalab and their total.

A code line holds at least one token that is not a comment and not part
of a docstring (the first statement of a module, class or function when
it is a string).  Blank lines, comment-only lines and docstrings are left
out; a string spread over several lines that is not a docstring counts on
every line it spans.  Run from the repository root:

    python3 scripts/code_lines.py
    python3 scripts/code_lines.py path/to/module.py ...
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of every docstring in tree."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    spans = _docstring_spans(ast.parse(source))
    rows: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIPPED or any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", type=Path, help="modules to count (default: src/iharalab/*.py)")
    args = ap.parse_args(argv)
    paths = args.paths or sorted((Path(__file__).resolve().parents[1] / "src" / "iharalab").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
