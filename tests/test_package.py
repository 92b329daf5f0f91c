"""The package surface: what import loads, and who calls what.

`import iharalab` loads every layer module, so code that patches the
layers by walking sys.modules (the benchmark's tracer and capture
wrappers) finds them all.  It does not load scipy: no computation uses
it, and it costs about half a second and 50 MiB in every process.

A top-level function or a method (dunders aside) in src/iharalab counts
as referenced when its name appears in src/, scripts/ or perfbench/
outside its own definition: as a name, an attribute, an imported name,
or a word of a string constant other than a docstring (perfbench looks
some names up with getattr).  A method is only ever reached through an
attribute or by getattr, so for a method a bare name (a local variable
that happens to share its name) does not count.  Routes that only tests
call belong in tests/.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import iharalab

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src/iharalab/*.py", "scripts/*.py", "perfbench/*.py", "perfbench/tests/*.py")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def test_import_loads_every_layer_module():
    # cli is the front end, not a layer
    layers = sorted(p.stem for p in ROOT.glob("src/iharalab/*.py") if p.stem not in ("__init__", "cli"))
    code = (
        "import sys, iharalab\n"
        f"missing = [m for m in {layers!r} if 'iharalab.' + m not in sys.modules]\n"
        "assert not missing, missing"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iharalab.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_import_loads_no_scipy_module():
    code = (
        "import sys, iharalab, iharalab.cli\n"
        "loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "assert not loaded, loaded"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iharalab.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_limits_quad_is_a_module_global_that_forwards_to_scipy():
    # the benchmark tracer reads vars(limits)["quad"] and compares module
    # globals before and after it runs, so the name must exist from import on
    pytest.importorskip("scipy.integrate")
    from iharalab import limits

    assert "quad" in vars(limits)
    assert limits.quad.__module__ == "iharalab.limits"
    assert abs(limits.quad(lambda x: x * x, 0.0, 1.0)[0] - 1 / 3) < 1e-12


def _definitions(tree: ast.Module):
    """(node, is_method) for each top-level function and non-dunder method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item, True


def _references(tree: ast.Module):
    """(name, line, kind) for each use; kind is "name", "attribute" or "word"."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, "name"
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, "attribute"
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, "name"
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in docstrings:
                continue
            for word in WORD.findall(node.value):
                yield word, node.lineno, "word"


def _unused(trees: dict[Path, ast.Module], defining: list[Path]) -> list[str]:
    """Definitions in the defining files that nothing in trees references."""
    refs: dict[str, list[tuple[Path, int, str]]] = {}
    for path, tree in trees.items():
        for name, line, kind in _references(tree):
            refs.setdefault(name, []).append((path, line, kind))
    unused = []
    for path in defining:
        for node, is_method in _definitions(trees[path]):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(
                (p != path or line not in inside) and not (is_method and kind == "name")
                for p, line, kind in refs.get(node.name, [])
            ):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    return unused


def test_every_src_function_has_a_caller_outside_tests():
    trees = {}
    for pattern in SEARCHED:
        for path in sorted(ROOT.glob(pattern)):
            trees[path] = ast.parse(path.read_text(encoding="utf-8"))
    unused = _unused(trees, sorted(ROOT.glob("src/iharalab/*.py")))
    assert not unused, "no caller outside tests/: " + ", ".join(unused)


def test_a_local_name_does_not_hide_a_dead_method():
    defining = Path("layer.py")
    layer = """
class Seq:
    def advance(self):
        return 1

    def rewind(self):
        return 0


def run(seq):
    rewind = seq.advance()
    return rewind


run(Seq())
"""
    trees = {defining: ast.parse(layer)}
    assert _unused(trees, [defining]) == ["layer.py:6 rewind"]
    # an attribute or a string word elsewhere does reach it
    for use in ("seq.rewind()", "getattr(seq, 'rewind')()"):
        trees[Path("caller.py")] = ast.parse(f"def call(seq):\n    return {use}\n")
        assert _unused(trees, [defining]) == [], use


def _calling_scopes(tree: ast.Module, name: str) -> list[str]:
    """The dotted class and function scope of every call to name, as a bare name or an attribute."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == name:
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, [])
    return found


def test_only_the_suite_context_and_nbt_build_a_trace_sweep():
    # a report function that built a sweep of its own would pick a route the
    # suite context's certificate did not; only these two places may
    callers = set()
    for path in sorted(ROOT.glob("src/iharalab/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers.update(f"{path.stem}.{scope}" for scope in _calling_scopes(tree, "TraceSweep"))
    assert callers == {"suite.SuiteContext.sweep", "nbt._sweep_for"}
