"""lps.cayley_root: the identity map, then a verified isomorphism search for relabeled X^{p,q} files.

A relabeled `lps --emit` file is the same graph in other labels, so it
must get a root and take the rooted-quotient routes with the `--lps`
source's answers.  A 2-switched file keeps every degree but is not
X^{p,q}, so it must be refused, near the root or far from it.  The
search's result is trusted only after its arc-by-arc check, and a
search that runs out of nodes gives None.
"""

import json
import sys

import numpy as np
import pytest
from test_nbt_traces import relabeled, two_switched

from iharalab import graphs, lps
from iharalab.graphs import Graph, _edges_canonical
from iharalab.suite import SuiteContext, VerificationSuiteConfig, resolve_source, run_suite


def _write(tmp_path, g: Graph, params: lps.LpsParams, name: str) -> str:
    """g as a graph file with params' lps record, as `lps --emit` writes it."""
    path = tmp_path / name
    record = {"p": params.p, "q": params.q, "kind": params.group_kind}
    edges = [[i, j] for i, j, c in _edges_canonical(g) for _ in range(c)]
    path.write_text(json.dumps({"n": g.n, "edges": edges, "lps": record}))
    return str(path)


def _summary(config: VerificationSuiteConfig) -> list[dict]:
    """run_suite's results as the summary holds them, less each check's seconds."""
    _, results = run_suite(config)
    return [{k: v for k, v in r.as_json_dict().items() if k != "seconds"} for r in results]


def _nodes(monkeypatch) -> list:
    """The node counts of every _isomorphism search from now on."""
    seen, real = [], lps._isomorphism

    def counted(*args):
        phi, nodes = real(*args)
        seen.append(nodes)
        return phi, nodes

    monkeypatch.setattr(lps, "_isomorphism", counted)
    return seen


def test_build_lps_graphs_take_the_identity_map_without_a_search(monkeypatch):
    seen = _nodes(monkeypatch)
    for p, q in ((13, 5), (17, 13)):
        g, params = lps.build_lps(p, q)
        e = lps.cayley_root(g, params)
        assert lps.group_elements(q, params.group_kind)[e].tolist() == [1, 0, 0, 1]
    assert seen == []


def test_cayley_root_reads_the_build_lps_construction(monkeypatch):
    # build_lps keeps its construction, so certifying its own graph builds no
    # neighbour table, and every other graph is still compared against it
    tables, real = [], lps._neighbour_table

    def counted(*args):
        tables.append(args)
        return real(*args)

    monkeypatch.setattr(lps, "_neighbour_table", counted)
    for p, q in ((13, 5), (17, 13)):
        g, params = lps.build_lps(p, q)
        tables.clear()
        e = lps.cayley_root(g, params)
        assert lps.group_elements(q, params.group_kind)[e].tolist() == [1, 0, 0, 1]
        assert lps.cayley_root(relabeled(g, p * q), params) == 0
        assert lps.cayley_root(two_switched(g, e), params) is None
        assert tables == []


@pytest.mark.parametrize("p, q", [(13, 5), (17, 5), (17, 13)])
def test_relabeled_files_get_a_root_and_the_lps_summary(tmp_path, monkeypatch, p, q):
    seen = _nodes(monkeypatch)
    g, params = lps.build_lps(p, q)
    path = _write(tmp_path, relabeled(g, p * q), params, "relabeled.json")
    ctx = resolve_source(VerificationSuiteConfig(source_kind="file", source=path))
    assert ctx.g.neighbors != g.neighbors
    assert ctx.row_vertex == 0 and seen == [5]
    from_file = _summary(VerificationSuiteConfig(source_kind="file", source=path))
    assert from_file == _summary(VerificationSuiteConfig(source_kind="lps", p=p, q=q))
    assert {r["status"] for r in from_file} == {"pass"}


@pytest.mark.parametrize("source", ["lps", "relabeled file"])
def test_a_certified_pass_refines_from_the_root_once(tmp_path, monkeypatch, source):
    # the spectrum, the trace sweep and ihara-bass's Tr A^k read one rooted
    # quotient; the individualized refinements of lps._isomorphism are not rooted
    refinements, real = [], graphs.refine

    def counted(table, start, rounds=None):
        refinements.append(rounds)
        return real(table, start, rounds)

    for name, module in list(sys.modules.items()):
        if name.startswith("iharalab.") and name != "iharalab.lps" and getattr(module, "refine", None) is real:
            monkeypatch.setattr(module, "refine", counted)
    if source == "lps":
        config = VerificationSuiteConfig(source_kind="lps", p=13, q=5)
    else:
        g, params = lps.build_lps(13, 5)
        config = VerificationSuiteConfig(source_kind="file", source=_write(tmp_path, relabeled(g, 65), params, "x.json"))
    code, results = run_suite(config)
    assert code == 0 and len(results) == 10
    assert refinements == [None]


@pytest.mark.parametrize("p, q", [(13, 5), (17, 13)])
@pytest.mark.parametrize("where", ["root", "far"])
def test_two_switched_files_are_refused(tmp_path, monkeypatch, p, q, where):
    seen = _nodes(monkeypatch)
    g, params = lps.build_lps(p, q)
    e = lps.cayley_root(g, params)
    # switch at e, the file's vertex 0 after relabeling, or at a vertex farthest from e
    far = int(np.argmax(_distances(g, e)))
    switched = two_switched(g, e if where == "root" else far)
    perm = list(range(g.n))
    perm[0], perm[e] = perm[e], perm[0]  # e becomes vertex 0, which the search maps to e
    # row perm[v] of h lists the images of v's neighbours; the swap is its own inverse
    h = Graph(g.n, tuple(tuple(sorted(perm[w] for w in switched.neighbors[v])) for v in perm))
    assert {len(nb) for nb in h.neighbors} == {p + 1}
    ctx = SuiteContext(h, params)
    assert ctx.row_vertex is None
    assert seen and seen[-1] <= 10
    assert all(cl.identity_row is None for cl in ctx.sd.clusters)  # the dense spectrum


def _distances(g: Graph, v: int) -> list[int]:
    dist, frontier = [-1] * g.n, [v]
    dist[v] = 0
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_a_spent_node_budget_gives_none(monkeypatch):
    g, params = lps.build_lps(13, 5)
    h = relabeled(g, 3)
    seen = _nodes(monkeypatch)
    assert lps.cayley_root(h, params) == 0 and seen == [5]
    monkeypatch.setattr(lps, "SEARCH_NODES", 1)
    assert lps.cayley_root(h, params) is None and seen == [5, 1]
    ctx = SuiteContext(h, params)
    assert ctx.row_vertex is None and ctx.sweep._scale == 1


def test_a_leaf_map_that_fails_the_arc_check_is_never_used(monkeypatch):
    g, params = lps.build_lps(13, 5)
    h = relabeled(g, 4)
    leaf_map, maps_arcs, checked = lps._leaf_map, lps._maps_arcs, []

    def swapped(cell_g, cell_h):
        phi = leaf_map(cell_g, cell_h)
        phi[[1, 2]] = phi[[2, 1]]  # still a bijection, no longer an isomorphism
        return phi

    def arcs(table_g, table_h, phi):
        checked.append(maps_arcs(table_g, table_h, phi))
        return checked[-1]

    monkeypatch.setattr(lps, "_leaf_map", swapped)
    monkeypatch.setattr(lps, "_maps_arcs", arcs)
    ctx = SuiteContext(h, params)
    assert ctx.row_vertex is None and checked == [False]
    assert all(cl.identity_row is None for cl in ctx.sd.clusters)
    assert ctx.sweep._scale == 1


def test_maps_arcs_accepts_isomorphisms_only():
    g, params = lps.build_lps(13, 5)
    table = np.array(g.neighbors)
    identity = np.arange(g.n)
    assert lps._maps_arcs(table, table, identity)
    swap = identity.copy()
    swap[[0, 1]] = [1, 0]  # 0 and 1 have different neighbours
    assert not lps._maps_arcs(table, table, swap)
    assert not lps._maps_arcs(table, table, np.zeros(g.n, dtype=np.intp))  # not a bijection
