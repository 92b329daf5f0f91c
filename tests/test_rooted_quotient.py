"""The row stream on the rooted equitable quotient against the length-n row stream.

nbt._b_trace_stream with a vertex v runs on the cells of a colour
refinement from {v} and the rest, one round per row step, which ends
at the coarsest equitable partition that has {v} as a cell
(nbt._rooted_refinement, nbt._rooted_quotient).
b_matrices.row_b_diagonals runs the same identities on whole rows; the
two must agree at every vertex, for the graph's q and for q = 0, on
regular, irregular, looped and asymmetric graphs, before and after the
refinement ends.
"""

import math

import pytest
from b_matrices import row_b_diagonals

from iharalab import nbt
from iharalab.graphs import Graph, build_graph, named_graph
from iharalab.lps import build_lps, cayley_root

M_MAX = 40

# the Frucht graph: 3-regular, no automorphism but the identity
FRUCHT_LCF = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]


def frucht() -> Graph:
    ring = [(i, (i + 1) % 12) for i in range(12)]
    chords = [(i, (i + s) % 12) for i, s in enumerate(FRUCHT_LCF) if i < (i + s) % 12]
    return build_graph(12, ring + chords)


def distances(g: Graph, v: int) -> dict[int, int]:
    """Breadth-first distances from v."""
    dist, frontier = {v: 0}, [v]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.neighbors[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


@pytest.fixture(scope="module")
def graphs() -> dict[str, Graph]:
    return {
        "K4": named_graph("K4"),
        "PETERSEN": named_graph("PETERSEN"),
        "CYCLE(9)": named_graph("CYCLE(9)"),
        # degrees 2, 3, 4, 6, 1: a double edge, a loop and a double loop
        "irregular multigraph": build_graph(
            5, [(0, 1, 2), (1, 2), (2, 2), (2, 3), (3, 3, 2), (3, 4)]
        ),
        "one vertex, two loops": build_graph(1, [(0, 0, 2)]),
        "Frucht": frucht(),
    }


def test_quotient_stream_equals_the_length_n_row_stream(graphs):
    for name, g in graphs.items():
        top = max(map(len, g.neighbors)) - 1
        for q in (top, 0):
            for v in range(g.n):
                got = nbt._b_traces(g, q, M_MAX, v)
                assert got == row_b_diagonals(g, q, M_MAX, v), (name, q, v)
                assert all(type(x) is int for x in got)


def test_rooted_partition_is_equitable_with_v_alone(graphs):
    for name, g in graphs.items():
        for v in range(g.n):
            cell_of, cells = nbt._rooted_quotient(g, v)
            assert sorted(set(cell_of.tolist())) == list(range(len(cells))), (name, v)
            assert [w for w in range(g.n) if cell_of[w] == cell_of[v]] == [v], (name, v)
            for w, nb in enumerate(g.neighbors):
                assert sorted(cell_of[list(nb)].tolist()) == sorted(cells[cell_of[w]]), (name, v, w)


def test_distance_classes_on_distance_regular_graphs(graphs):
    # there the distance classes from v are equitable, and no coarser
    # partition with {v} as a cell is: the cells are exactly these
    for name, classes in (("K4", 2), ("PETERSEN", 3), ("CYCLE(9)", 5)):
        g = graphs[name]
        for v in range(g.n):
            dist = distances(g, v)
            cell_of, cells = nbt._rooted_quotient(g, v)
            assert len(cells) == classes, (name, v)
            for a in range(g.n):
                for b in range(g.n):
                    assert (cell_of[a] == cell_of[b]) == (dist[a] == dist[b]), (name, v, a, b)


def test_an_asymmetric_graph_has_the_discrete_partition(graphs):
    g = graphs["Frucht"]
    for v in range(g.n):
        assert len(nbt._rooted_quotient(g, v)[1]) == g.n, v


@pytest.mark.parametrize("p, q, cells", [(13, 5, 12), (17, 13, 54)])
def test_cell_counts_on_lps_graphs(p, q, cells):
    g, params = build_lps(p, q)
    assert len(nbt._rooted_quotient(g, cayley_root(g, params))[1]) == cells


def test_the_row_sweep_takes_one_refining_round_per_step(monkeypatch):
    # CYCLE(401) needs 200 rounds to reach its 201 distance classes from
    # vertex 0; a short sweep must not wait for them
    g = named_graph("CYCLE(401)")
    assert len(nbt._rooted_quotient(g, 0)[1]) == 201
    refinement, drawn = nbt._rooted_refinement, [0]

    def counted(g, v):
        for item in refinement(g, v):
            drawn[0] += 1
            yield item

    monkeypatch.setattr(nbt, "_rooted_refinement", counted)
    sweep = nbt.TraceSweep(g, 1, "row", 0)
    for m_max in (10, 41):
        assert sweep.prefix(m_max) == [g.n * b for b in row_b_diagonals(g, 1, m_max, 0)]
        # the start, then one round before u_1 and before each of the
        # ceil(m_max/2) - 1 row steps
        assert drawn[0] == 1 + math.ceil(m_max / 2)
