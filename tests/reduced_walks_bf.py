"""Single-length brute-force searches, the reference for the oracle walker.

count_reduced_cycles_bf and count_reduced_paths_bf search one length at
a time by explicit depth-first search over an ArcList, straight from the
definitions; tests compare iharalab.oracle.reduced_walks against them.
reduced_cycle_counts and reduced_walk_matrices gather that walker's
per-source output into N_1..N_m and whole A_m matrices, for the tests
that check the recurrences against the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from iharalab.graphs import Graph, _edges_canonical
from iharalab.oracle import DEFAULT_BUDGET, DEFAULT_DEPTH_GUARD, _check_cost, reduced_walks


@dataclass(frozen=True)
class ArcList:
    """Oriented arcs of an undirected multigraph.

    arcs[a] = (origin, terminus); inverse[a] is the reversed arc.
    Parallel edges yield distinct arc pairs and a loop yields two
    mutually inverse arcs, so len(arcs) = 2 * edge_count always.
    """

    arcs: tuple[tuple[int, int], ...]
    inverse: tuple[int, ...]
    out: tuple[tuple[int, ...], ...]

    @classmethod
    def from_graph(cls, g: Graph) -> "ArcList":
        arcs: list[tuple[int, int]] = []
        inverse: list[int] = []
        for i, j, count in _edges_canonical(g):
            for _ in range(count):
                a = len(arcs)
                arcs.append((i, j))
                arcs.append((j, i))
                inverse.extend([a + 1, a])
        out: list[list[int]] = [[] for _ in range(g.n)]
        for a, (o, _) in enumerate(arcs):
            out[o].append(a)
        return cls(tuple(arcs), tuple(inverse), tuple(tuple(o) for o in out))


def reduced_cycle_counts(g: Graph, m_max: int) -> list[int]:
    """[N_1, ..., N_m_max] from the oracle walker, summed over every source."""
    walks = reduced_walks(g, m_max, range(g.n))
    return [sum(col) for col in zip(*(closed for closed, _ in walks))]


def reduced_walk_matrices(g: Graph, m_max: int) -> list[list[list[int]]]:
    """[A_0, ..., A_m_max] stacked from the oracle walker's per-source rows."""
    by_source = [rows for _, rows in reduced_walks(g, m_max, range(g.n))]
    return [[rows[m] for rows in by_source] for m in range(m_max + 1)]


def count_reduced_cycles_bf(
    g: Graph, m: int, *, depth_guard: int = DEFAULT_DEPTH_GUARD, budget: int = DEFAULT_BUDGET
) -> int:
    """Count reduced (backtrackless and tailless) closed paths of length m.

    A path is an arc sequence (e_1..e_m) with t(e_i) = o(e_{i+1}),
    closed means o(e_1) = t(e_m), non-backtracking means
    e_{i+1} != inverse(e_i), and tailless additionally requires
    e_1 != inverse(e_m).  Every starting point and orientation is
    counted separately.
    """
    if m < 1:
        raise ValueError("cycle length must be at least 1")
    _check_cost(g, m, depth_guard, budget)
    al = ArcList.from_graph(g)
    total = 0

    def walk(first: int, cur: int, banned: int, depth: int) -> int:
        here = al.arcs[cur][1]
        if depth == m:
            if here == al.arcs[first][0] and cur != al.inverse[first]:
                return 1
            return 0
        count = 0
        for nxt in al.out[here]:
            if nxt != banned:
                count += walk(first, nxt, al.inverse[nxt], depth + 1)
        return count

    for first in range(len(al.arcs)):
        total += walk(first, first, al.inverse[first], 1)
    return total


def count_reduced_paths_bf(
    g: Graph,
    i: int,
    j: int,
    m: int,
    *,
    depth_guard: int = DEFAULT_DEPTH_GUARD,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Count non-backtracking arc sequences of length m from vertex i to j.

    No tail condition applies; tails are a closed-walk concept.  m = 0
    counts the empty path, so the result is the identity matrix entry.
    """
    if m < 0:
        raise ValueError("path length must be nonnegative")
    if m == 0:
        return 1 if i == j else 0
    _check_cost(g, m, depth_guard, budget)
    al = ArcList.from_graph(g)

    def walk(cur: int, depth: int) -> int:
        here = al.arcs[cur][1]
        if depth == m:
            return 1 if here == j else 0
        banned = al.inverse[cur]
        count = 0
        for nxt in al.out[here]:
            if nxt != banned:
                count += walk(nxt, depth + 1)
        return count

    return sum(walk(first, 1) for first in al.out[i])
