"""The row stream on the rooted equitable quotient against the length-n row stream.

nbt._row_b_stream, the stream of a vertex v, runs on the cells of
graphs.rooted_quotient(g, v): ceil(m/2) rounds deep for the first
m + 1 diagonal entries (f_values), or at the fixpoint, the coarsest
equitable partition that has {v} as a cell (a TraceSweep's row route).
b_matrices.row_b_diagonals runs the same identities on whole rows; the
two must agree at every vertex, for the graph's q and for q = 0, on
regular, irregular, looped and asymmetric graphs, at either depth.
"""

import math

import numpy as np
import pytest
from b_matrices import row_b_diagonals

from iharalab import graphs as graphs_module
from iharalab import nbt
from iharalab.graphs import Graph, build_graph, certify_regular, named_graph, neighbour_table, rooted_quotient
from iharalab.lps import build_lps, cayley_root

M_MAX = 40

# the Frucht graph: 3-regular, no automorphism but the identity
FRUCHT_LCF = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]


def frucht() -> Graph:
    ring = [(i, (i + 1) % 12) for i in range(12)]
    chords = [(i, (i + s) % 12) for i, s in enumerate(FRUCHT_LCF) if i < (i + s) % 12]
    return build_graph(12, ring + chords)


def relabeled(g: Graph, perm: np.ndarray) -> Graph:
    """The graph with vertex w of g renamed perm[w]."""
    return Graph(g.n, tuple(tuple(sorted(int(perm[x]) for x in g.neighbors[w])) for w in np.argsort(perm)))


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
                want = row_b_diagonals(g, q, M_MAX, v)
                got = nbt._b_traces(g, q, M_MAX, rooted_quotient(g, v, math.ceil(M_MAX / 2)))
                assert got == want, (name, q, v)
                assert all(type(x) is int for x in got)
                # the row route of a sweep reads the fixpoint instead
                sweep = nbt.TraceSweep(g, q, rooted_quotient(g, v))
                assert sweep.prefix(M_MAX) == [g.n * b for b in want], (name, q, v)


def test_rooted_partition_is_equitable_with_v_alone(graphs):
    for name, g in graphs.items():
        for v in range(g.n):
            rq = rooted_quotient(g, v)
            cell_of = rq.cell_of
            assert len(rq.neighbours) == len(rq.sizes) == cell_of.max() + 1, (name, v)
            assert list(rq.sizes) == np.bincount(cell_of).tolist(), (name, v)
            assert [w for w in range(g.n) if cell_of[w] == cell_of[v]] == [v] and rq.root == cell_of[v], (name, v)
            for w, nb in enumerate(g.neighbors):
                assert list(rq.neighbours[cell_of[w]]) == sorted(cell_of[list(nb)].tolist()), (name, v, w)


def test_distance_classes_on_distance_regular_graphs(graphs):
    # there the distance classes from v are equitable, and no coarser
    # partition with {v} as a cell is: the cells are exactly these
    for name, classes in (("K4", 2), ("PETERSEN", 3), ("CYCLE(9)", 5)):
        g = graphs[name]
        for v in range(g.n):
            dist = distances(g, v)
            rq = rooted_quotient(g, v)
            cell_of = rq.cell_of
            assert len(rq.sizes) == classes, (name, v)
            for a in range(g.n):
                for b in range(g.n):
                    assert (cell_of[a] == cell_of[b]) == (dist[a] == dist[b]), (name, v, a, b)


def test_an_asymmetric_graph_has_the_discrete_partition(graphs):
    g = graphs["Frucht"]
    for v in range(g.n):
        assert len(rooted_quotient(g, v).sizes) == g.n, v


@pytest.mark.parametrize("p, q, cells", [(13, 5, 12), (17, 13, 54)])
def test_cell_counts_on_lps_graphs(p, q, cells):
    g, params = build_lps(p, q)
    assert len(rooted_quotient(g, cayley_root(g, params)).sizes) == cells


def test_the_rooted_refinement_runs_only_as_deep_as_asked(monkeypatch):
    # from vertex 0 of CYCLE(401), round R < 200 splits off distance
    # class R, and the 201 distance classes take 200 rounds
    g = named_graph("CYCLE(401)")
    dist = distances(g, 0)
    for rounds in (0, 1, 5, 20, 199):
        cell_of = rooted_quotient(g, 0, rounds).cell_of
        assert cell_of.max() + 1 == rounds + 2, rounds
        classes = [min(dist[w], rounds + 1) for w in range(g.n)]
        assert len({(c, int(cell_of[w])) for w, c in enumerate(classes)}) == rounds + 2, rounds
    assert len(rooted_quotient(g, 0).sizes) == len(rooted_quotient(g, 0, 1000).sizes) == 201

    # f_values refines ceil(m/2) rounds, which carry r_0..r_ceil(m/2)
    drawn = []
    refine = graphs_module.refine

    def counted(table, start, rounds=None):
        out = refine(table, start, rounds)
        drawn.append((rounds, len(out[1])))
        return out

    monkeypatch.setattr(graphs_module, "refine", counted)
    for m_max in (10, 41):
        half = math.ceil(m_max / 2)
        nbt.f_values(g, certify_regular(g), m_max)
        assert drawn.pop() == (half, half + 2), m_max
        assert nbt._b_traces(g, 1, m_max, rooted_quotient(g, 0, half)) == row_b_diagonals(g, 1, m_max, 0), m_max
        drawn.pop()
    sweep = nbt.TraceSweep(g, 1, rooted_quotient(g, 0))
    assert sweep.prefix(41) == [g.n * b for b in row_b_diagonals(g, 1, 41, 0)]
    assert drawn == [(None, 201)]


def test_cell_numbers_past_one_byte_still_name_the_quotient_rows():
    # unique orders the keys by their bytes, so past 256 cells the round
    # that adds no cell numbers them apart from the last one that did
    g = named_graph("CYCLE(601)")
    table = neighbour_table(g)
    for rounds in (299, 300, 400, None):
        rq = rooted_quotient(g, 0, rounds)
        assert len(rq.sizes) == 301, rounds
        assert np.array_equal(np.sort(rq.cell_of[table], axis=1), np.array(rq.neighbours)[rq.cell_of]), rounds
    sweep = nbt.TraceSweep(g, 1, rooted_quotient(g, 0))
    assert sweep.prefix(41) == [g.n * b for b in row_b_diagonals(g, 1, 41, 0)]


@pytest.mark.parametrize("name", ["X^{13,5}", "irregular multigraph"])
def test_refinement_numbers_cells_not_vertices(graphs, name):
    # lps._isomorphism compares the colours of two graphs directly
    g = build_lps(13, 5)[0] if name == "X^{13,5}" else graphs[name]
    perm = np.random.default_rng(5).permutation(g.n)
    h = relabeled(g, perm)
    for v in range(min(g.n, 12)):
        for rounds in (1, 2, None):
            rq_g = rooted_quotient(g, v, rounds)
            rq_h = rooted_quotient(h, int(perm[v]), rounds)
            assert np.array_equal(rq_h.cell_of[perm], rq_g.cell_of), (v, rounds)
        # at the fixpoint every vertex of a cell has the first one's neighbour cells
        assert rq_h.neighbours == rq_g.neighbours, v
