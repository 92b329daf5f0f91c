"""Brute-force enumeration oracles.

These routines define ground truth for small instances by explicit
depth-first search over arcs.  They deliberately share no code with the
matrix recurrences they are used to validate: correctness here rests on
the search being a direct transcription of the definitions.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

from .errors import DepthExceeded
from .graphs import Graph, _edges_canonical

DEFAULT_DEPTH_GUARD = 14
DEFAULT_BUDGET = 10**9


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


def walk_estimate(g: Graph, m: int) -> int:
    """Search steps of a depth-m sweep, n d (d-1)^(m-1) with d the top degree."""
    deg = max(g.degree(v) for v in range(g.n))
    return g.n * deg * max(deg - 1, 1) ** max(m - 1, 0)


def _check_cost(g: Graph, m: int, depth_guard: int, budget: int) -> None:
    if m > depth_guard:
        raise DepthExceeded(f"depth {m} exceeds guard {depth_guard}")
    est = walk_estimate(g, m)
    if est > budget:
        raise DepthExceeded(f"estimated {est} steps exceeds budget {budget}")


def count_reduced_cycles_all(
    g: Graph, m_max: int, *, depth_guard: int = DEFAULT_DEPTH_GUARD, budget: int = DEFAULT_BUDGET
) -> list[int]:
    """Reduced (backtrackless and tailless) closed paths of each length 1..m_max, one sweep.

    A path is an arc sequence (e_1..e_m) with t(e_i) = o(e_{i+1}),
    closed means o(e_1) = t(e_m), non-backtracking means
    e_{i+1} != inverse(e_i), and tailless additionally requires
    e_1 != inverse(e_m).  Every starting point and orientation is
    counted separately.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    _check_cost(g, m_max, depth_guard, budget)
    al = ArcList.from_graph(g)
    totals = [0] * (m_max + 1)

    def walk(first: int, cur: int, depth: int) -> None:
        here = al.arcs[cur][1]
        if here == al.arcs[first][0] and cur != al.inverse[first]:
            totals[depth] += 1
        if depth == m_max:
            return
        banned = al.inverse[cur]
        for nxt in al.out[here]:
            if nxt != banned:
                walk(first, nxt, depth + 1)

    for first in range(len(al.arcs)):
        walk(first, first, 1)
    del walk  # break the closure's self-reference so its tables free now, not at a later gc
    return totals[1:]


def _arc_tables(
    g: Graph, sources: Sequence[int], radius: int
) -> tuple[dict[int, int], list[int], list[int]]:
    """(first, terminus, inverse) for the arcs out of the vertices within radius of sources.

    The arcs out of a tabled vertex v are numbered first[v], first[v] + 1,
    ... in the order of g.neighbors[v], and terminus[a] is where arc a
    ends.  inverse[a] is the reversed arc, or -1 when a ends at a vertex
    outside the table.  As in ArcList, the r-th edge end at w among v's
    neighbours pairs with the r-th end at v among w's, and the two ends
    of a loop pair with each other.
    """
    first: dict[int, int] = {}
    count = 0
    layer = sources
    for _ in range(radius + 1):
        grown = []
        for v in layer:
            if v not in first:
                first[v] = count
                count += len(g.neighbors[v])
                grown.append(v)
        layer = [w for v in grown for w in g.neighbors[v]]
    terminus: list[int] = []
    inverse: list[int] = []
    for v, base in first.items():
        nb = g.neighbors[v]
        for k, w in enumerate(nb):
            terminus.append(w)
            back = first.get(w)
            r = k - bisect_left(nb, w)  # this is the r-th end at w in v's list
            if back is None:
                inverse.append(-1)
            elif w == v:
                inverse.append(base + k - r + (r ^ 1))
            else:
                inverse.append(back + bisect_left(g.neighbors[w], v) + r)
    return first, terminus, inverse


def count_reduced_walks_all(
    g: Graph,
    m_max: int,
    *,
    sources: Sequence[int] | None = None,
    depth_guard: int = DEFAULT_DEPTH_GUARD,
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[int], list[list[list[int]]]]:
    """Cycle counts and path-count rows for every length up to m_max, one sweep.

    The walks start at the vertices of sources (every vertex when it is
    None).  Returns (counts, mats): mats[m][k][j] counts the
    non-backtracking arc sequences of length m from sources[k] to j for
    m in 0..m_max (no tail condition; m = 0 gives the identity rows),
    and counts[m - 1] the reduced cycles of length m that start at a
    source.  With every vertex as a source, counts equals
    count_reduced_cycles_all(g, m_max) and mats[m] is the full matrix.
    The cost guard counts the walks from every vertex, whatever sources is.

    Each non-backtracking walk is enumerated once, from its origin
    through its first arc; it is a reduced cycle when it ends at its
    origin and its last arc is not the inverse of its first.  The walks
    of length m_max are counted one by one in the loop of their length
    m_max - 1 prefix rather than in a call each.  A walk of length m_max
    takes only arcs out of vertices within m_max - 1 of its origin, so
    the arc and follower tables hold those arcs only (_arc_tables).
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    _check_cost(g, m_max, depth_guard, budget)
    sources = range(g.n) if sources is None else sources
    totals = [0] * (m_max + 1)
    mats = [[[0] * g.n for _ in sources] for _ in range(m_max + 1)]
    for k, src in enumerate(sources):
        mats[0][k][src] = 1

    first, terminus, inverse = _arc_tables(g, sources, m_max - 1)
    # the arcs that may follow arc a: out of its terminus t, except its
    # inverse; None when t's arcs are not tabled, which no walk needs
    follow = [
        None if inv < 0 else [b for b in range(first[t], first[t] + len(g.neighbors[t])) if b != inv]
        for t, inv in zip(terminus, inverse)
    ]
    follow_ends = [None if arcs is None else [terminus[b] for b in arcs] for arcs in follow]

    def walk(rows: list[list[int]], src: int, first_inv: int, cur: int, depth: int) -> None:
        here = terminus[cur]
        rows[depth][here] += 1
        if here == src and cur != first_inv:
            totals[depth] += 1
        if depth < m_max - 1:
            for nxt in follow[cur]:
                walk(rows, src, first_inv, nxt, depth + 1)
        elif depth < m_max:
            last = rows[m_max]
            closed = 0
            for nxt, there in zip(follow[cur], follow_ends[cur]):
                last[there] += 1
                if there == src and nxt != first_inv:
                    closed += 1
            totals[m_max] += closed

    for k, src in enumerate(sources):
        rows = [mat[k] for mat in mats]  # src's row of every mats[depth]
        for arc in range(first[src], first[src] + len(g.neighbors[src])):
            walk(rows, src, inverse[arc], arc, 1)
    del walk  # as in count_reduced_cycles_all
    return totals[1:], mats
