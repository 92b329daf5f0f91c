"""Brute-force enumeration oracle: hand anchors and internal consistency.

count_nbt_closed_bf and count_tailed_closed_bf below split the closed
non-backtracking walks at a vertex into tailless and tailed ones; they
are reference searches for the decomposition tests here, and their
difference is the reduced cycles that start at the vertex.
count_reduced_paths_all is the all-pairs path search that the walker
reduced_walks runs one source at a time.
"""

import tracemalloc

import pytest
from lattice_points import lattice_count
from reduced_walks_bf import (
    ArcList,
    count_reduced_cycles_bf,
    count_reduced_paths_bf,
    reduced_cycle_counts,
    reduced_walk_matrices,
)
from test_nbt_traces import relabeled

from iharalab import oracle
from iharalab.errors import DepthExceeded
from iharalab.graphs import Graph, build_graph, certify_regular
from iharalab.nbt import n_reduced_range
from iharalab.oracle import (
    DEFAULT_BUDGET,
    DEFAULT_DEPTH_GUARD,
    _arc_tables,
    _check_cost,
    reduced_walks,
    walk_estimate,
)
from iharalab.suite import SuiteContext, check_oracle

# ---------------------------------------------------------------------------
# reference routes


def count_nbt_closed_bf(
    g: Graph,
    v: int,
    m: int,
    *,
    depth_guard: int = DEFAULT_DEPTH_GUARD,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Count non-backtracking closed arc sequences at v, tails allowed.

    Only consecutive backtracking is forbidden; e_1 = inverse(e_m) is
    permitted, so this equals the vv entry of the m-th adjacency
    recurrence matrix rather than the reduced-cycle count.
    """
    if m < 0:
        raise ValueError("walk length must be nonnegative")
    if m == 0:
        return 1
    return count_reduced_paths_bf(g, v, v, m, depth_guard=depth_guard, budget=budget)


def count_tailed_closed_bf(
    g: Graph,
    v: int,
    m: int,
    *,
    depth_guard: int = DEFAULT_DEPTH_GUARD,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Count non-backtracking closed sequences at v whose closure has a tail.

    These are the walks counted by count_nbt_closed_bf but excluded from
    the reduced-cycle count: closed, non-backtracking, and
    e_1 = inverse(e_m).
    """
    if m < 1:
        raise ValueError("walk length must be at least 1")
    _check_cost(g, m, depth_guard, budget)
    al = ArcList.from_graph(g)

    def walk(first: int, cur: int, depth: int) -> int:
        here = al.arcs[cur][1]
        if depth == m:
            return 1 if (here == al.arcs[first][0] and cur == al.inverse[first]) else 0
        banned = al.inverse[cur]
        return sum(walk(first, nxt, depth + 1) for nxt in al.out[here] if nxt != banned)

    return sum(walk(first, first, 1) for first in al.out[v])


def count_reduced_paths_all(g: Graph, m_max: int) -> list[list[list[int]]]:
    """All-pairs reduced path counts for m in 0..m_max, one search per first arc."""
    _check_cost(g, m_max, DEFAULT_DEPTH_GUARD, DEFAULT_BUDGET)
    al = ArcList.from_graph(g)
    mats = [[[0] * g.n for _ in range(g.n)] for _ in range(m_max + 1)]
    for v in range(g.n):
        mats[0][v][v] = 1

    def walk(src: int, cur: int, depth: int) -> None:
        here = al.arcs[cur][1]
        mats[depth][src][here] += 1
        if depth == m_max:
            return
        banned = al.inverse[cur]
        for nxt in al.out[here]:
            if nxt != banned:
                walk(src, nxt, depth + 1)

    for src in range(g.n):
        for first in al.out[src]:
            walk(src, first, 1)
    return mats


def test_triangle_hand_counts(corpus):
    g, _ = corpus["K3"]
    # the only reduced closed paths go all the way around: 3 starts x 2 directions
    assert count_reduced_cycles_bf(g, 3) == 6
    assert count_reduced_cycles_bf(g, 1) == 0
    assert count_reduced_cycles_bf(g, 2) == 0
    assert count_reduced_cycles_bf(g, 4) == 0
    assert count_reduced_cycles_bf(g, 6) == 6  # twice around


def test_k4_anchor(corpus):
    g, _ = corpus["K4"]
    # 4 choose 3 triangles, 3 starts, 2 orientations
    assert count_reduced_cycles_bf(g, 3) == 24


def test_petersen_anchors(corpus):
    g, _ = corpus["PETERSEN"]
    assert count_reduced_cycles_bf(g, 5) == 120
    assert count_reduced_cycles_bf(g, 6) == 120
    assert count_reduced_cycles_bf(g, 3) == 0
    assert count_reduced_cycles_bf(g, 4) == 0


def test_all_sweep_matches_single_calls(corpus):
    for name in ("K3", "K4", "K33"):
        g, _ = corpus[name]
        sweep = reduced_cycle_counts(g, 7)
        singles = [count_reduced_cycles_bf(g, m) for m in range(1, 8)]
        assert sweep == singles, name


def test_paths_all_matches_single_calls(corpus):
    g, _ = corpus["K4"]
    mats = reduced_walk_matrices(g, 5)
    for m in (0, 1, 2, 5):
        for i in range(g.n):
            for j in range(g.n):
                assert mats[m][i][j] == count_reduced_paths_bf(g, i, j, m)


def test_walks_all_matches_the_two_sweeps(corpus, x135):
    graphs = {name: (g, 7) for name, (g, _) in corpus.items()}
    # a 5-regular multigraph with double edges and one loop at every vertex
    looped = [(0, 1, 2), (1, 2), (2, 3, 2), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)]
    graphs["looped 5-regular"] = (build_graph(4, looped), 6)
    graphs["X^{13,5}"] = (x135[0], 3)
    for name, (g, m_max) in graphs.items():
        assert reduced_cycle_counts(g, m_max) == [count_reduced_cycles_bf(g, m) for m in range(1, m_max + 1)], name
        assert reduced_walk_matrices(g, m_max) == count_reduced_paths_all(g, m_max), name


@pytest.fixture(scope="module")
def single_length_counts(corpus, x135):
    """name -> (graph, [N_1..N_4], [A_0..A_4]) from the single-length searches.

    The path matrices of the relabeled X^{13,5} come from
    count_reduced_paths_all, which searches from every first arc at once;
    one count_reduced_paths_bf per vertex pair would take minutes there.
    """
    graphs = {name: g for name, (g, _) in corpus.items()}
    # a 5-regular multigraph with double edges and one loop at every vertex
    looped = [(0, 1, 2), (1, 2), (2, 3, 2), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)]
    graphs["looped 5-regular"] = build_graph(4, looped)
    graphs["relabeled X^{13,5}"] = relabeled(x135[0], 13)
    out = {}
    for name, g in graphs.items():
        cycles = [count_reduced_cycles_bf(g, m) for m in range(1, 5)]
        if g.n > 12:
            paths = count_reduced_paths_all(g, 4)
        else:
            paths = [
                [[count_reduced_paths_bf(g, i, j, m) for j in range(g.n)] for i in range(g.n)]
                for m in range(5)
            ]
        out[name] = (g, cycles, paths)
    return out


@pytest.mark.parametrize("m_max", [1, 2, 3, 4])
def test_walks_all_matches_the_single_length_searches(single_length_counts, m_max):
    # m_max = 1 takes the first arcs alone, m_max = 2 one level of
    # followers: the two shallowest frontiers
    for name, (g, cycles, paths) in single_length_counts.items():
        assert reduced_cycle_counts(g, m_max) == cycles[:m_max], name
        assert reduced_walk_matrices(g, m_max) == paths[: m_max + 1], name


@pytest.mark.parametrize("m_max", [1, 2, 3, 4])
def test_walks_from_chosen_sources_are_rows_of_the_full_sweep(single_length_counts, m_max):
    for name, (g, cycles, paths) in single_length_counts.items():
        per_vertex = [0] * m_max
        for v in range(g.n):
            [(counts, rows)] = reduced_walks(g, m_max, [v])
            assert rows == [paths[m][v] for m in range(m_max + 1)], (name, v)
            per_vertex = [a + b for a, b in zip(per_vertex, counts)]
        assert per_vertex == cycles[:m_max], name  # each cycle counted at its start
        picked = [g.n - 1, 0, g.n - 1]
        walks = list(reduced_walks(g, m_max, picked))
        assert [rows for _, rows in walks] == [[paths[m][v] for m in range(m_max + 1)] for v in picked], name
        assert walks[0] == walks[2] and walks[0][1] is not walks[2][1], name  # fresh rows per source


@pytest.mark.parametrize("m_max", [1, 2, 3, 5])
def test_closed_walks_at_each_source_are_the_tailless_ones(corpus, m_max):
    # the reduced cycles that start at v are the non-backtracking closed
    # walks at v that have no tail, so the per-length searches give them too
    graphs = {name: g for name, (g, _) in corpus.items()}
    graphs["looped 5-regular"] = build_graph(4, [(0, 1, 2), (1, 2), (2, 3, 2), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)])
    graphs["double edge"] = build_graph(2, [(0, 1, 2)])
    graphs["two loops"] = build_graph(1, [(0, 0, 2)])
    for name, g in graphs.items():
        for v, (closed, _) in enumerate(reduced_walks(g, m_max, range(g.n))):
            want = [count_nbt_closed_bf(g, v, m) - count_tailed_closed_bf(g, v, m) for m in range(1, m_max + 1)]
            assert closed == want, (name, v)


def test_walk_tables_hold_the_arcs_near_the_sources(x135):
    g = x135[0]
    first, terminus, inverse = _arc_tables(g, [0], 1)
    assert len(first) == 1 + 14 and len(terminus) == 15 * 14  # 0 and its 14 neighbours
    assert all((inv >= 0) == (t in first) for t, inv in zip(terminus, inverse))
    looped = build_graph(4, [(0, 1, 2), (1, 2), (2, 3, 2), (3, 0), (0, 0), (1, 1), (2, 2), (3, 3)])
    for graph in (g, looped):
        first, terminus, inverse = _arc_tables(graph, range(graph.n), 0)
        assert len(terminus) == 2 * graph.edge_count
        origin = [v for v in first for _ in graph.neighbors[v]]
        # every arc has a reversed arc, the pairing is an involution, and a
        # loop's two ends pair with each other, as in ArcList
        assert all(inverse[inverse[a]] == a != inverse[a] for a in range(len(terminus)))
        assert all(terminus[inverse[a]] == origin[a] for a in range(len(terminus)))
        assert sorted(zip(origin, terminus)) == sorted(ArcList.from_graph(graph).arcs)


def test_walks_all_guards():
    g = build_graph(2, [(0, 1, 2)])

    def unread():  # sources the walker must not reach: a guard raises at the call
        raise AssertionError("a search started")
        yield

    with pytest.raises(ValueError):
        reduced_walks(g, 0, unread())
    with pytest.raises(DepthExceeded):
        reduced_walks(g, 15, unread())
    with pytest.raises(DepthExceeded):  # the guard prices a search from every vertex
        reduced_walks(g, 3, [0], budget=walk_estimate(g, 3) - 1)
    with pytest.raises(AssertionError, match="a search started"):
        next(reduced_walks(g, 3, unread()))  # past the guards the search starts on iteration


def test_a_full_oracle_check_holds_one_source_at_a_time(x135):
    """From every vertex the check holds what it holds from one: a source's rows at a time.

    The relabeled X^{13,5} without its parameters has no certificate, so
    its oracle searches from all n = 120 vertices; X^{13,5} itself
    searches from e alone.  Both walk to depth 4 over the same arc
    tables.  Holding A_0..A_4 whole would take (depth + 1) n^2 list
    slots more.
    """
    g, params = x135[0], x135[1]
    peaks = []
    for ctx in (SuiteContext(relabeled(g, 13)), SuiteContext(g, params)):
        check_oracle(ctx)  # a first run forms the trace sweep and warms the interpreter
        tracemalloc.start()
        try:
            result = check_oracle(ctx)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert (result["metric"], result["detail"]["depth"]) == (0.0, 4)
    slot = 8
    assert peaks[1] > 0 and peaks[0] - peaks[1] < g.n * g.n * slot  # less than one n x n table


def _source_walks_bf(g: Graph, v: int, m_max: int) -> tuple[list[int], list[list[int]]]:
    """(closed, rows) of reduced_walks for source v, from the single-length searches."""
    closed = [count_nbt_closed_bf(g, v, m) - count_tailed_closed_bf(g, v, m) for m in range(1, m_max + 1)]
    rows = [[count_reduced_paths_bf(g, v, j, m) for j in range(g.n)] for m in range(m_max + 1)]
    return closed, rows


@pytest.mark.parametrize("cap", [None, 5])
def test_walks_from_some_sources_of_an_irregular_multigraph(monkeypatch, cap):
    # a path 0..9 with a double edge, a loop, two loops at one vertex and a
    # chord; from sources 0 and 2 the tables stop at radius m_max - 1 = 3,
    # so the arcs from 5 to 6 end outside them and have no followers
    g = build_graph(10, [(0, 1, 2), (1, 1), (1, 2), (2, 3), (3, 3, 2), (3, 4), (1, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)])
    if cap is not None:  # 1 and 3 have 5 followers per arc: one walk's followers per chunk
        monkeypatch.setattr(oracle, "FRONTIER_CAP", cap)
    m_max, picked = 4, [2, 0, 2]
    _, terminus, inverse = _arc_tables(g, picked, m_max - 1)
    assert 6 in terminus and 6 not in {terminus[a] for a, inv in enumerate(inverse) if inv >= 0}
    want = {v: _source_walks_bf(g, v, m_max) for v in set(picked)}
    assert list(reduced_walks(g, m_max, picked)) == [want[v] for v in picked]


def test_a_source_holds_one_frontier_chunk_per_depth():
    """A last level far past the cap, under the default budget, costs chunks, not the level."""
    n, m_max = 20, 12
    g = build_graph(n, [(i, (i + s) % n) for i in range(n) for s in (1, 3)])  # 4-regular circulant
    assert walk_estimate(g, m_max) <= DEFAULT_BUDGET
    assert 4 * 3 ** (m_max - 1) > 10 * oracle.FRONTIER_CAP
    tracemalloc.start()
    try:
        [(closed, rows)] = reduced_walks(g, m_max, [0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m_max * 2 * 8 * oracle.FRONTIER_CAP  # one chunk per depth, two int64 arrays each
    assert [sum(row) for row in rows] == [1] + [4 * 3 ** (m - 1) for m in range(1, m_max + 1)]  # every walk once
    closed_bf, rows_bf = _source_walks_bf(g, 0, 7)
    assert (closed[:7], rows[:8]) == (closed_bf, rows_bf)
    cert = certify_regular(g)  # a circulant is vertex-transitive: N_m = n closed_m
    assert [n * c for c in closed] == n_reduced_range(g, cert, m_max)


def test_paths_m0_is_identity(corpus):
    g, _ = corpus["PETERSEN"]
    assert count_reduced_paths_bf(g, 3, 3, 0) == 1
    assert count_reduced_paths_bf(g, 3, 4, 0) == 0


def test_paths_m1_is_adjacency(corpus):
    g, _ = corpus["K33"]
    for i in range(g.n):
        for j in range(g.n):
            assert count_reduced_paths_bf(g, i, j, 1) == g.neighbors[i].count(j)


def test_closed_decomposition(corpus):
    """Non-backtracking closed walks split into tailless and tailed ones."""
    for name in ("K4", "PETERSEN", "CUBE"):
        g, _ = corpus[name]
        mats = reduced_walk_matrices(g, 8)
        for m in range(2, 9):
            for v in range(g.n):
                closed = count_nbt_closed_bf(g, v, m)
                tailed = count_tailed_closed_bf(g, v, m)
                assert closed == mats[m][v][v]
                assert tailed <= closed


def test_tailed_counts_on_triangle(corpus):
    g, _ = corpus["K3"]
    # length 2: out and back is backtracking, not allowed; no tailed walks either
    assert count_nbt_closed_bf(g, 0, 2) == 0
    assert count_tailed_closed_bf(g, 0, 2) == 0


def test_multigraph_cycles():
    # two vertices with a double edge: go over one strand, back the other
    g = build_graph(2, [(0, 1, 2)])
    assert count_reduced_cycles_bf(g, 2) == 4  # 2 arc choices x 2 starts
    assert count_reduced_cycles_bf(g, 1) == 0


def test_loop_cycles():
    # one vertex with two loops is 4-regular; each loop arc is a 1-cycle
    g = build_graph(1, [(0, 0, 2)])
    assert count_reduced_cycles_bf(g, 1) == 4


def test_depth_guard():
    g = build_graph(2, [(0, 1, 2)])
    with pytest.raises(DepthExceeded):
        count_reduced_cycles_bf(g, 15)


def test_budget_guard(corpus):
    g, _ = corpus["PETERSEN"]
    with pytest.raises(DepthExceeded):
        count_reduced_cycles_bf(g, 10, budget=100)


def test_lattice_count_small_targets():
    # x^2 + 4*25*(y^2 + z^2 + w^2) = target with qprime = 5
    assert lattice_count(5, 1) == 2  # x = +-1
    assert lattice_count(5, 13) == 0
    assert lattice_count(5, 169) == 2  # x = +-13


def test_lattice_count_x_zero_counted_once():
    # target = 100: solutions x=+-10 (2) plus x=0, one of y,z,w = +-1 (6): total 8
    assert lattice_count(5, 100) == 8
