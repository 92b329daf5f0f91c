"""Graph construction, named corpus, serialization, certificates."""

import io
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharalab.errors import (
    DisconnectedGraph,
    EmptyGraph,
    NotRegular,
    ParseError,
    UnknownName,
)
from iharalab.graphs import (
    _edges_canonical,
    build_graph,
    certify_regular,
    load_graph,
    named_graph,
    save_graph,
)
from iharalab.lps import build_lps


def test_build_simple_triangle():
    g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.edge_count == 3
    assert g.neighbors == ((1, 2), (0, 2), (0, 1))


def test_build_rejects_empty():
    with pytest.raises(EmptyGraph):
        build_graph(0, [])


def test_build_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        build_graph(4, [(0, 1), (2, 3)])


def test_build_rejects_bad_vertex():
    with pytest.raises(ParseError):
        build_graph(3, [(0, 5)])


def test_multiedge_and_loop_counting():
    # double edge plus a loop; the loop lists its vertex twice, adding 2 to the diagonal
    g = build_graph(2, [(0, 1, 2), (0, 0, 1)])
    assert g.neighbors == ((0, 0, 1, 1), (0, 0))
    assert g.as_numpy().tolist() == [[2.0, 2.0], [2.0, 0.0]]
    assert g.edge_count == 3  # two parallel edges and one loop
    assert g.degree(0) == 4 and g.degree(1) == 2


def test_named_graphs_basic(corpus):
    sizes = {"K3": 3, "K4": 4, "K33": 6, "PETERSEN": 10, "CUBE": 8}
    degrees = {"K3": 2, "K4": 3, "K33": 3, "PETERSEN": 3, "CUBE": 3}
    for name, (g, cert) in corpus.items():
        assert g.n == sizes[name]
        assert cert.degree == degrees[name]
        assert cert.q == degrees[name] - 1


def test_named_bipartite_flags(corpus):
    assert corpus["K33"][1].bipartite
    assert corpus["CUBE"][1].bipartite
    assert not corpus["K4"][1].bipartite
    assert not corpus["PETERSEN"][1].bipartite
    assert not corpus["K3"][1].bipartite


def test_k3_is_cycle_alias():
    assert named_graph("K3") == named_graph("CYCLE(3)")


def test_named_case_insensitive():
    assert named_graph("petersen") == named_graph("PETERSEN")


def test_named_cycle_sizes():
    g = named_graph("CYCLE(7)")
    assert g.n == 7
    cert = certify_regular(g)
    assert cert.degree == 2 and not cert.bipartite
    assert certify_regular(named_graph("CYCLE(8)")).bipartite


def test_unknown_name():
    with pytest.raises(UnknownName):
        named_graph("DODECAHEDRON")


def test_certify_rejects_irregular():
    g = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(NotRegular) as err:
        certify_regular(g)
    assert err.value.degrees is not None


def test_bipartite_parts_cover(corpus):
    g, cert = corpus["K33"]
    assert cert.parts is not None
    a, b = cert.parts
    assert sorted(a + b) == list(range(g.n))
    for i in a:
        assert not set(a).intersection(g.neighbors[i])


def test_loop_graph_not_bipartite():
    g = build_graph(2, [(0, 1, 1), (0, 0, 1), (1, 1, 1)])
    cert = certify_regular(g)
    assert cert.degree == 3
    assert not cert.bipartite


@pytest.mark.parametrize("fmt", ["json", "edgelist"])
def test_save_load_roundtrip(corpus, fmt, tmp_path):
    for name, (g, _) in corpus.items():
        path = str(tmp_path / f"{name}.{fmt}")
        save_graph(g, path, fmt=fmt)
        g2 = load_graph(path)
        assert g2.neighbors == g.neighbors, name


def test_save_load_roundtrip_multigraph(tmp_path):
    g = build_graph(2, [(0, 1, 3), (0, 0, 1)])
    for fmt in ("json", "edgelist"):
        path = str(tmp_path / f"m.{fmt}")
        save_graph(g, path, fmt=fmt)
        assert load_graph(path) == g


def test_only_json_carries_an_lps_record(tmp_path):
    g = named_graph("K4")
    with pytest.raises(ValueError, match="lps record"):
        save_graph(g, str(tmp_path / "k4.txt"), lps={"p": 13, "q": 5, "kind": "PGL2"})
    assert not (tmp_path / "k4.txt").exists()
    with pytest.raises(ValueError, match="unknown format"):
        save_graph(g, io.StringIO(), fmt="yaml")


def test_load_edgelist_with_comments():
    text = "# comment line\nn 3\n0 1\n1 2\n# trailing\n0 2\n"
    g = load_graph(io.StringIO(text))
    assert g.n == 3 and g.edge_count == 3


def test_load_edgelist_bad_line_number():
    text = "n 3\n0 1\nnot numbers\n"
    with pytest.raises(ParseError) as err:
        load_graph(io.StringIO(text))
    assert err.value.line == 3


def test_load_json_content_sniffing(tmp_path):
    path = str(tmp_path / "g.txt")  # extension does not matter
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}')
    assert load_graph(path).edge_count == 3


def test_load_json_extra_keys_ignored(tmp_path):
    path = str(tmp_path / "g.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('{"n": 3, "edges": [[0, 1], [1, 2], [0, 2]], "lps": {"p": 1}}')
    assert load_graph(path).n == 3


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 4.7, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}',  # once loaded as 4 vertices
        '{"n": true, "edges": []}',  # once loaded as 1 vertex, q = -1
        '{"n": "4", "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}',
        '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, true]]}',  # once an edge to vertex 1
        '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0.0]]}',
        '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0, false]]}',
        '{"n": 2, "edges": [0, 1]}',
        '{"n": 2, "edges": {"0": 1}}',
    ],
)
def test_load_json_refuses_a_field_that_is_not_an_integer(text):
    with pytest.raises(ParseError):
        load_graph(io.StringIO(text))


def test_as_numpy_symmetric(corpus):
    for _, (g, _) in corpus.items():
        a = g.as_numpy()
        assert (a == a.T).all()
        assert a.sum() == 2 * g.edge_count


# ---------------------------------------------------------------------------
# the neighbour lists against a dense matrix built here from the edge list


def _dense(n: int, edges) -> list[list[int]]:
    a = [[0] * n for _ in range(n)]
    for i, j, c in edges:
        if i == j:
            a[i][i] += 2 * c
        else:
            a[i][j] += c
            a[j][i] += c
    return a


def _bipartition(a: list[list[int]]):
    """Both colour classes of the 2-colouring with vertex 0 in the first, or None."""
    n = len(a)
    for mask in range(0, 1 << n, 2):
        colour = [(mask >> v) & 1 for v in range(n)]
        if all(colour[i] != colour[j] for i in range(n) for j in range(n) if a[i][j]):
            return tuple(tuple(v for v in range(n) if colour[v] == c) for c in (0, 1))
    return None


@st.composite
def multigraphs(draw):
    """(n, edges): loops, parallel and zero-multiplicity edges, connected by a path.

    Half the draws add a union of permutations (i, s(i)) to the path's closing
    cycle, which makes the graph regular, loops and double edges included.
    """
    n = draw(st.integers(min_value=1, max_value=7))
    vertex = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        edges = [(i, (i + 1) % n, 1) for i in range(n)]
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            perm = draw(st.permutations(range(n)))
            edges += [(i, perm[i], 1) for i in range(n)]
    else:
        edges = [(i, i + 1, draw(st.integers(min_value=1, max_value=2))) for i in range(n - 1)]
        mult = st.integers(min_value=1, max_value=3)
        edges += draw(st.lists(st.tuples(vertex, vertex, mult), max_size=8))
    edges += draw(st.lists(st.tuples(vertex, vertex, st.just(0)), max_size=3))
    return n, draw(st.permutations(edges))


@given(multigraphs())
@settings(max_examples=150, deadline=None)
def test_neighbour_lists_match_the_dense_reference(graph):
    n, edges = graph
    g = build_graph(n, edges)
    a = _dense(n, edges)
    canonical = [[i, j, a[i][i] // 2 if i == j else a[i][j]] for i in range(n) for j in range(i, n)]
    canonical = [e for e in canonical if e[2]]
    assert g.edge_count == sum(c for _, _, c in canonical)
    assert [g.degree(v) for v in range(n)] == [sum(row) for row in a]
    assert g.as_numpy().tolist() == [[float(x) for x in row] for row in a]
    assert _edges_canonical(g) == canonical
    if len({sum(row) for row in a}) > 1:
        with pytest.raises(NotRegular):
            certify_regular(g)
    else:
        cert = certify_regular(g)
        parts = _bipartition(a)
        assert cert.degree == sum(a[0])
        assert (cert.bipartite, cert.parts) == (parts is not None, parts)
    edges = [[i, j] if c == 1 else [i, j, c] for i, j, c in canonical]
    want = {
        "json": json.dumps({"n": n, "edges": edges}, separators=(",", ":")) + "\n",
        "edgelist": f"n {n}\n"
        + "".join(f"{i} {j}\n" if c == 1 else f"{i} {j} {c}\n" for i, j, c in canonical),
    }
    for fmt, text in want.items():
        out = io.StringIO()
        save_graph(g, out, fmt=fmt)
        assert out.getvalue() == text, fmt
        assert load_graph(io.StringIO(text)) == g, fmt
    # the JSON layout save_graph wrote before graph_document still loads
    assert load_graph(io.StringIO(json.dumps({"n": n, "edges": canonical}, indent=1))) == g


def test_lps_graph_memory_is_linear_in_the_edges():
    # X^{5,13}: n = 2184, degree 6; the pointers of a dense n x n matrix alone take 36 MiB
    tracemalloc.start()
    try:
        g, _ = build_lps(5, 13)
        certify_regular(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak
