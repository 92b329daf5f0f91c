"""Single-length brute-force searches, the reference for the oracle sweeps.

count_reduced_cycles_bf and count_reduced_paths_bf search one length at
a time by explicit depth-first search over arcs, straight from the
definitions; tests compare the one-sweep routes in iharalab.oracle
against them.
"""

from iharalab.graphs import Graph
from iharalab.oracle import DEFAULT_BUDGET, DEFAULT_DEPTH_GUARD, ArcList, _check_cost


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
