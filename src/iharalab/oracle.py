"""Brute-force enumeration oracle.

reduced_walks counts non-backtracking walks by explicit depth-first
search over arcs, one source vertex at a time.  It deliberately shares
no code with the matrix recurrences it is used to validate: correctness
here rests on the search being a direct transcription of the
definitions.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, Sequence

from .errors import DepthExceeded
from .graphs import Graph

DEFAULT_DEPTH_GUARD = 14
DEFAULT_BUDGET = 10**9


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


def _arc_tables(
    g: Graph, sources: Sequence[int], radius: int
) -> tuple[dict[int, int], list[int], list[int]]:
    """(first, terminus, inverse) for the arcs out of the vertices within radius of sources.

    The arcs out of a tabled vertex v are numbered first[v], first[v] + 1,
    ... in the order of g.neighbors[v], and terminus[a] is where arc a
    ends.  inverse[a] is the reversed arc, or -1 when a ends at a vertex
    outside the table.  The r-th edge end at w among v's neighbours
    pairs with the r-th end at v among w's, so parallel edges give
    distinct arc pairs, and the two ends of a loop pair with each other.
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


def reduced_walks(
    g: Graph,
    m_max: int,
    sources: Sequence[int],
    *,
    depth_guard: int = DEFAULT_DEPTH_GUARD,
    budget: int = DEFAULT_BUDGET,
) -> Iterator[tuple[list[int], list[list[int]]]]:
    """Per source, in order: (closed, rows) for every walk length up to m_max.

    rows[m][j] counts the non-backtracking arc sequences of length m
    from the source to j, for m in 0..m_max (no tail condition; m = 0
    gives the identity row), so rows[m] is the source's row of A_m.
    closed[m - 1] counts the reduced (backtrackless and tailless) closed
    walks of length m that start at the source: those that end there
    and whose last arc is not the inverse of their first.  Summed over
    every vertex, closed gives N_1..N_{m_max}, every starting point and
    orientation counted separately.

    The guards raise here, at the call, before any walk: m_max < 1, the
    depth guard, and the step budget, which prices a search from every
    vertex whatever sources is.  The search itself runs as the result is
    iterated, and it holds one source's rows at a time; each source's
    rows are fresh lists that the caller may keep or drop.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    _check_cost(g, m_max, depth_guard, budget)
    return _walks(g, m_max, sources)


def _walks(g: Graph, m_max: int, sources: Sequence[int]) -> Iterator[tuple[list[int], list[list[int]]]]:
    """The search of reduced_walks, past its guards.

    Each non-backtracking walk is enumerated once, from its source
    through its first arc.  The walks of length m_max are counted one by
    one in the loop of their length m_max - 1 prefix rather than in a
    call each.  A walk of length m_max takes only arcs out of vertices
    within m_max - 1 of its source, so the arc and follower tables hold
    those arcs only (_arc_tables).
    """
    first, terminus, inverse = _arc_tables(g, sources, m_max - 1)
    pairs = list(zip(range(len(terminus)), terminus))  # (arc, its terminus), one tuple per arc
    # the arcs that may follow arc a, as pairs: out of its terminus t,
    # except its inverse; None when t's arcs are not tabled, which no
    # walk needs
    follow = [
        None if inv < 0 else [pairs[b] for b in range(first[t], first[t] + len(g.neighbors[t])) if b != inv]
        for t, inv in zip(terminus, inverse)
    ]
    top = m_max - 1  # the depth whose followers end a walk

    # src, first_inv, rows, last and closed belong to the current source
    # and its first arc, set in the loop below
    def walk(cur: int, here: int, depth: int) -> None:
        rows[depth][here] += 1
        if here == src and cur != first_inv:
            closed[depth] += 1
        if depth == top:
            count = 0
            for nxt, there in follow[cur]:
                last[there] += 1
                if there == src and nxt != first_inv:
                    count += 1
            closed[m_max] += count
        elif depth < top:
            deeper = depth + 1
            for nxt, there in follow[cur]:
                walk(nxt, there, deeper)

    try:
        for src in sources:
            rows = [[0] * g.n for _ in range(m_max + 1)]
            rows[0][src] = 1
            last = rows[m_max]
            closed = [0] * (m_max + 1)
            for arc in range(first[src], first[src] + len(g.neighbors[src])):
                first_inv = inverse[arc]
                walk(arc, terminus[arc], 1)
            yield closed[1:], rows
    finally:
        del walk  # break the closure's self-reference so the tables free now, not at a later gc
