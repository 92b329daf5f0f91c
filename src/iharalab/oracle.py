"""Brute-force enumeration oracle.

reduced_walks counts non-backtracking walks by enumerating them, one
source vertex at a time: a numpy frontier holds one element per walk and
extends every walk by every arc that may follow its last one.  It
deliberately shares no code with the matrix recurrences it is used to
validate: correctness here rests on the search being a direct
transcription of the definitions.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Iterator, Sequence

import numpy as np

from .errors import DepthExceeded
from .graphs import Graph

DEFAULT_DEPTH_GUARD = 14
DEFAULT_BUDGET = 10**9
# Walks held at once per frontier chunk: a source's search holds at most
# one chunk per depth (two int64 arrays each), whatever the budget.
FRONTIER_CAP = 1 << 16


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

    The guards raise here, at the call, before any walk: m_max < 1,
    m_max past DEFAULT_DEPTH_GUARD, and the step budget, which prices a
    search from every vertex whatever sources is.  The search itself
    runs as the result is iterated, and it holds one source's rows at a
    time; each source's rows are fresh lists that the caller may keep or
    drop.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    _check_cost(g, m_max, DEFAULT_DEPTH_GUARD, budget)
    return _walks(g, m_max, sources)


def _walks(g: Graph, m_max: int, sources: Sequence[int]) -> Iterator[tuple[list[int], list[list[int]]]]:
    """The search of reduced_walks, past its guards.

    Each non-backtracking walk from a source is one element of a numpy
    frontier: its current arc and the inverse of its first arc.  A level
    of the frontier is every walk of one length; its termini give the
    source's row of A_depth by one bincount, and the next level is every
    walk's followers, gathered by one flat index.  Walks are never merged
    by their current arc, which would turn the search into a power of
    the Hashimoto matrix.  A level of more than FRONTIER_CAP walks is
    taken chunk by chunk, depth first, so a source holds at most one
    chunk per depth whatever the budget.  A walk of length m_max takes
    only arcs out of vertices within m_max - 1 of its source, so the arc
    and follower tables hold those arcs only (_arc_tables).
    """
    first, terminus, inverse = _arc_tables(g, sources, m_max - 1)
    end = np.array(terminus, dtype=np.int64)
    # the arcs that may follow arc a, follow[start[a] : start[a] + length[a]]:
    # out of its terminus t, except its inverse; none when t's arcs are
    # not tabled, which no walk needs
    follow_lists = [
        [b for b in range(first[t], first[t] + len(g.neighbors[t])) if b != inv] if inv >= 0 else []
        for t, inv in zip(terminus, inverse)
    ]
    length = np.array([len(f) for f in follow_lists], dtype=np.int64)
    start = np.cumsum(length) - length
    follow = np.fromiter(chain.from_iterable(follow_lists), dtype=np.int64, count=int(length.sum()))
    inverse_arr = np.array(inverse, dtype=np.int64)
    del follow_lists  # the arrays replace it while the walk runs
    piece = max(FRONTIER_CAP // max(int(length.max(initial=0)), 1), 1)  # walks whose followers fit the cap

    def children(cur: np.ndarray, first_inv: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The followers of the walks (cur, first_inv), piece by piece."""
        for lo in range(0, len(cur), piece):
            arcs = cur[lo : lo + piece]
            counts = length[arcs]
            total = int(counts.sum())
            if total:  # the k-th follower of the i-th walk sits at start[arc_i] + k
                base = start[arcs] - (np.cumsum(counts) - counts)
                yield follow[np.repeat(base, counts) + np.arange(total)], np.repeat(first_inv[lo : lo + piece], counts)

    for src in sources:
        rows = np.zeros((m_max + 1, g.n), dtype=np.int64)
        rows[0, src] = 1
        closed = [0] * (m_max + 1)
        out = np.arange(first[src], first[src] + len(g.neighbors[src]), dtype=np.int64)
        levels = [iter([(out, inverse_arr[out])])]  # levels[depth - 1]: the chunks of depth still to take
        while levels:
            chunk = next(levels[-1], None)
            if chunk is None:
                levels.pop()
                continue
            cur, first_inv = chunk
            depth = len(levels)
            here = end[cur]
            rows[depth] += np.bincount(here, minlength=g.n)
            closed[depth] += int(np.count_nonzero((here == src) & (cur != first_inv)))
            if depth < m_max:
                levels.append(children(cur, first_inv))
        yield closed[1:], rows.tolist()
