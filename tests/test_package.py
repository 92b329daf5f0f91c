"""The package surface: what import loads, and who calls what.

`import iharalab` loads every layer module, so code that patches the
layers by walking sys.modules (the benchmark's tracer and capture
wrappers) finds them all.  It does not load scipy: no computation uses
it, and it costs about half a second and 50 MiB in every process.

A top-level function or a method (dunders aside) in src/iharalab counts
as referenced when its name appears in src/, scripts/ or perfbench/
outside its own definition: as a name, an attribute, an imported name,
or a string constant other than a docstring that is the name or ends in
"." and the name (perfbench looks some names up with getattr or by a
dotted "module.name").  A method is only ever reached through an
attribute or by getattr, so for a method a bare name (a local variable
that happens to share its name) does not count.  Routes that only tests
call belong in tests/.
"""

import ast
import importlib
import os
import subprocess
import sys
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

import pytest

import iharalab

ROOT = Path(__file__).resolve().parents[1]
SEARCHED = ("src/iharalab/*.py", "scripts/*.py", "perfbench/*.py", "perfbench/tests/*.py")


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


def _assigned_literal(path: Path, *names: str):
    """The literal assigned to names[-1] at the top of path, inside the classes names[:-1]; frozenset(...) unwrapped."""
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for scope in names[:-1]:
        body = next(n for n in body if isinstance(n, ast.ClassDef) and n.name == scope).body
    value = next(n.value for n in body if isinstance(n, ast.Assign) and getattr(n.targets[0], "id", None) == names[-1])
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "frozenset":
        value = value.args[0]
    return ast.literal_eval(value)


def test_the_names_perfbench_binds_by_string_resolve():
    # perfbench looks these up by name and fails only in its own tests, which
    # are not tier-1, when one of them leaves the package
    def layer(module: str):
        return importlib.import_module(f"iharalab.{module}")

    per_element = _assigned_literal(ROOT / "perfbench/spans.py", "PER_ELEMENT")
    methods = _assigned_literal(ROOT / "perfbench/spans.py", "METHODS")
    targets = _assigned_literal(ROOT / "perfbench/worker.py", "Captures", "TARGETS")
    assert per_element and methods and targets
    missing = [name for name in sorted(per_element) if not hasattr(layer(name.split(".")[0]), name.split(".")[1])]
    missing += [
        f"{module}.{cls}.{meth}"
        for module, classes in methods.items()
        for cls, names in classes.items()
        for meth in names
        if not hasattr(getattr(layer(module), cls, None), meth)
    ]
    missing += [f"{module}.{name}" for module, name in targets if not hasattr(layer(module), name)]
    assert missing == []
    # the capture and trace wrappers rebind every alias of n_reduced_range
    nbt = layer("nbt")
    assert layer("zeta").n_reduced_range is nbt.n_reduced_range
    assert layer("limits").n_reduced_range is nbt.n_reduced_range


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
            for word in {node.value, node.value.rsplit(".", 1)[-1]}:
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
    for use in ("seq.rewind()", "getattr(seq, 'rewind')()", "'layer.Seq.rewind'"):
        trees[Path("caller.py")] = ast.parse(f"def call(seq):\n    return {use}\n")
        assert _unused(trees, [defining]) == [], use
    # a string that only contains the name, as a file name, does not
    trees[Path("caller.py")] = ast.parse("def call(seq):\n    return open('rewind.csv')\n")
    assert _unused(trees, [defining]) == ["layer.py:6 rewind"]


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


def test_only_the_spectrum_constructor_calls_eigh_and_builds_spectral_data():
    # both spectral routes go through spectral._spectrum, so its size guard,
    # eigensolver error and clustering have one place to change
    callers = {"eigh": set(), "SpectralData": set()}
    for path in sorted(ROOT.glob("src/iharalab/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for name, found in callers.items():
            found.update(f"{path.stem}.{scope}" for scope in _calling_scopes(tree, name))
    assert callers == {"eigh": {"spectral._spectrum"}, "SpectralData": {"spectral._spectrum"}}


def test_only_rooted_quotient_and_the_isomorphism_search_refine():
    # every rooted quotient comes from graphs.rooted_quotient, so a caller
    # reads its cells, sizes and root cell rather than refining again
    callers = set()
    for pattern in ("src/iharalab/*.py", "scripts/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            callers.update(f"{path.stem}.{scope}" for scope in _calling_scopes(tree, "refine"))
    assert callers == {"graphs.rooted_quotient", "lps._isomorphism"}


def _imported_modules(node: ast.Import | ast.ImportFrom, modules: set[str]) -> list[str]:
    """The iharalab modules (by file stem, "__init__" for the package) that one import statement loads."""
    if isinstance(node, ast.Import):
        dotted = [alias.name.split(".") for alias in node.names]
        return [(parts[1:] or ["__init__"])[0] for parts in dotted if parts[0] == "iharalab"]
    if node.level == 0 and (node.module or "").split(".")[0] != "iharalab":
        return []
    parts = ([] if node.module is None else node.module.split("."))[1 - node.level :]
    if parts:
        return [parts[0]]
    return [alias.name if alias.name in modules else "__init__" for alias in node.names]


def _is_type_checking(node: ast.AST) -> bool:
    test = getattr(node, "test", None)
    return isinstance(node, ast.If) and (
        getattr(test, "id", None) == "TYPE_CHECKING" or getattr(test, "attr", None) == "TYPE_CHECKING"
    )


def _import_statements(tree: ast.Module):
    """(node, in_function) for each import; blocks under `if TYPE_CHECKING:` are skipped."""

    def visit(nodes, in_function: bool):
        for node in nodes:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node, in_function
            elif _is_type_checking(node):
                yield from visit(node.orelse, in_function)
            else:
                inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                yield from visit(ast.iter_child_nodes(node), inner)

    return visit(tree.body, False)


def _package_imports() -> tuple[dict[str, set[str]], list[str]]:
    """(module -> iharalab modules it imports at module level, the function bodies that import one)."""
    paths = sorted(ROOT.glob("src/iharalab/*.py"))
    modules = {p.stem for p in paths}
    graph: dict[str, set[str]] = {}
    nested = []
    for path in paths:
        graph[path.stem] = set()
        for node, in_function in _import_statements(ast.parse(path.read_text(encoding="utf-8"))):
            targets = _imported_modules(node, modules)
            if in_function and targets:
                nested.append(f"{path.name}:{node.lineno}")
            elif not in_function:
                graph[path.stem].update(targets)
    return graph, nested


def _cycle(graph: dict[str, set[str]]) -> list[str]:
    """One cycle of the directed graph, as a path that ends where it starts, or []."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def test_no_function_body_imports_a_package_module():
    # an import deferred into a function hides a cycle between modules
    assert _package_imports()[1] == []


def test_the_module_level_imports_have_no_cycle():
    graph = _package_imports()[0]
    assert graph["__init__"] >= {"graphs", "nbt", "lps", "spectral", "suite"}
    assert "graphs" in graph["lps"] and "nbt" not in graph["lps"]
    assert _cycle(graph) == []


def test_the_import_checks_see_deferred_imports_and_cycles():
    source = (
        "from typing import TYPE_CHECKING\n"
        "from . import graphs\n"
        "if TYPE_CHECKING:\n"
        "    from .suite import SuiteContext\n"
        "else:\n"
        "    import iharalab.suite\n"
        "def late():\n"
        "    from .nbt import f\n"
        "    import iharalab.lps\n"
    )
    found = [
        (_imported_modules(node, {"graphs", "nbt", "lps", "suite"}), inside)
        for node, inside in _import_statements(ast.parse(source))
    ]
    assert found == [([], False), (["graphs"], False), (["suite"], False), (["nbt"], True), (["lps"], True)]
    cycle = _cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}, "d": {"a"}})
    assert sorted(cycle[1:]) == ["a", "b", "c"] and cycle[0] == cycle[-1]
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) == []
