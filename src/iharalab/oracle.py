"""Brute-force enumeration oracle: two counts of walks on one arc table.

Both count non-backtracking walks by listing them, straight from the
definitions, and deliberately share no code with the matrix recurrences
they are used to validate: correctness here rests on each search being
a direct transcription of the definitions.  Both run on one table
(_follower_table): the arcs out of the vertices near the sources, each
arc's inverse, and the arcs that may follow it.  _search lists the
walks that start with given arcs as a numpy frontier, one element per
walk, taken depth first in chunks of at most FRONTIER_CAP walks past
the first arcs.

reduced_walks lists every non-backtracking walk of length up to m_max
from each source, one source at a time, and gives the source's rows of
A_m as well as its reduced closed walks; check_oracle compares those
rows with the recurrence at every depth.

closed_walk_counts gives only the reduced closed walks, summed over the
sources, by meet in the middle (Horowitz and Sahni, J. ACM 21, 1974).
A closed walk e_1 ... e_m at s splits after e_h, h = ceil(m/2), into the
half-walk e_1 ... e_h from s and the reverse of the rest, the half-walk
inv(e_m) ... inv(e_{h+1}) from s.  So it lists the half-walks of length
up to ceil(m_max/2) and joins them: two half-walks make a reduced
closed walk when they share their source and their end, but neither
their last arc (e_{h+1} != inv(e_h)) nor their first (e_1 != inv(e_m)).
Half-walks from different sources never pair, so it lists and joins
the sources a group at a time, each group priced at most HALF_WALK_CAP
half-walks.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import DepthExceeded
from .graphs import Graph

DEFAULT_DEPTH_GUARD = 14
DEFAULT_BUDGET = 10**9
# Walks held at once per frontier chunk: a search holds at most one
# chunk per depth (two int64 arrays each), whatever the budget.
FRONTIER_CAP = 1 << 16
# Priced half-walks closed_walk_counts holds at once, of every length:
# it joins its sources in groups priced at most this, and refuses a
# source priced past it, so it holds a bounded number of half-walks
# (and their key tallies) whatever the budget.
HALF_WALK_CAP = 1 << 18


def walk_estimate(g: Graph, m: int, starts: int | None = None, *, degree: int | None = None) -> int:
    """Search steps of a depth-m sweep from starts vertices (default all n): starts d (d-1)^(m-1).

    d is the top degree, computed here unless the caller passes it.
    """
    d = max(map(len, g.neighbors)) if degree is None else degree
    return (g.n if starts is None else starts) * d * max(d - 1, 1) ** max(m - 1, 0)


def _check_cost(g: Graph, m: int, depth_guard: int, budget: int) -> None:
    """DepthExceeded past depth_guard, or when a depth-m sweep from every vertex passes budget."""
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


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[0], ..., starts[0] + lengths[0] - 1, then the same for each i in turn."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


class _Followers(NamedTuple):
    """_arc_tables as int64 arrays, with the arcs that may follow each arc.

    follow[start[a] : start[a] + length[a]] are the arcs out of a's
    terminus end[a] except its inverse; none when the terminus's arcs
    are not tabled (inverse[a] = -1), which no walk needs.
    """

    first: dict[int, int]
    end: np.ndarray
    inverse: np.ndarray
    start: np.ndarray
    length: np.ndarray
    follow: np.ndarray


def _follower_table(g: Graph, sources: Sequence[int], radius: int) -> _Followers:
    """The arcs out of the vertices within radius of sources, and their followers (_Followers)."""
    first, terminus, inverse = _arc_tables(g, sources, radius)
    end = np.array(terminus, dtype=np.int64)
    inv = np.array(inverse, dtype=np.int64)
    tabled = np.fromiter(first, dtype=np.int64, count=len(first))
    base = np.zeros(g.n, dtype=np.int64)
    base[tabled] = np.fromiter(first.values(), dtype=np.int64, count=len(first))
    degree = np.zeros(g.n, dtype=np.int64)
    degree[tabled] = np.diff(base[tabled], append=len(end))  # a tabled vertex's arcs run to the next one's
    fan = np.where(inv >= 0, degree[end], 0)  # the arcs out of each arc's terminus, when tabled
    candidates = _ranges(base[end], fan)
    follow = candidates[candidates != np.repeat(inv, fan)]  # each fan holds its arc's inverse once
    length = np.maximum(fan - 1, 0)
    return _Followers(first, end, inv, np.cumsum(length) - length, length, follow)


def _search(
    tab: _Followers, firsts: np.ndarray, tags: np.ndarray, depth_max: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every non-backtracking walk of length 1..depth_max whose first arc is in firsts, as chunks (depth, last arcs, tags).

    tags[i] travels with every walk that starts with firsts[i].  A level of
    the frontier is every walk of one length, and the next level is every
    walk's followers, gathered by one flat index.  Walks are never merged
    by their last arc, which would turn the search into a power of the
    Hashimoto matrix.  Each level past the first arcs is taken chunk by
    chunk, at most FRONTIER_CAP walks each, depth first, so the search
    holds at most one chunk per depth whatever the budget.
    """
    piece = max(FRONTIER_CAP // max(int(tab.length.max(initial=0)), 1), 1)  # walks whose followers fit the cap

    def children(cur: np.ndarray, tag: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The followers of the walks (cur, tag), piece by piece."""
        for lo in range(0, len(cur), piece):
            arcs = cur[lo : lo + piece]
            counts = tab.length[arcs]
            if counts.any():
                yield tab.follow[_ranges(tab.start[arcs], counts)], np.repeat(tag[lo : lo + piece], counts)

    levels = [iter([(firsts, tags)])]  # levels[depth - 1]: the chunks of depth still to take
    while levels:
        chunk = next(levels[-1], None)
        if chunk is None:
            levels.pop()
            continue
        depth = len(levels)
        yield depth, *chunk
        if depth < depth_max:
            levels.append(children(*chunk))


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

    Each walk from a source carries the inverse of its first arc as its
    tag.  A chunk's termini add to the source's row of A_depth by one
    bincount, and its closed walks are those that end at the source with
    a last arc other than that tag.  A walk of length m_max takes only
    arcs out of vertices within m_max - 1 of its source, so the table
    holds those arcs only.
    """
    tab = _follower_table(g, sources, m_max - 1)
    for src in sources:
        rows = np.zeros((m_max + 1, g.n), dtype=np.int64)
        rows[0, src] = 1
        closed = [0] * (m_max + 1)
        out = np.arange(tab.first[src], tab.first[src] + len(g.neighbors[src]), dtype=np.int64)
        for depth, cur, first_inv in _search(tab, out, tab.inverse[out], m_max):
            here = tab.end[cur]
            rows[depth] += np.bincount(here, minlength=g.n)
            closed[depth] += int(np.count_nonzero((here == src) & (cur != first_inv)))
        yield closed[1:], rows.tolist()


def _pairs(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> int:
    """The pairs of a walk from a and a walk from b that carry the same key.

    a and b are tallies (keys, counts): the distinct keys, sorted, and
    how many walks carry each.
    """
    (ka, x), (kb, y) = a, b
    if a is not b:  # two lengths: the keys of b that a holds
        if not len(ka):
            return 0
        at = np.minimum(np.searchsorted(ka, kb), len(ka) - 1)
        hit = ka[at] == kb
        x, y = x[at[hit]], y[hit]
    if int(x.sum()) * int(y.sum()) >= 1 << 63:  # a sum that int64 may not hold: Python ints
        x = x.astype(object)
    return int(x @ y)


def closed_walk_counts(
    g: Graph,
    m_max: int,
    sources: Sequence[int],
    *,
    budget: int = DEFAULT_BUDGET,
) -> list[int]:
    """[N_1..N_{m_max}] of sources: the reduced closed walks of each length that start at a source, summed.

    Summed over every vertex, these are N_m; a repeated source counts
    each time it is listed.  m = 1 is read off the loops: each of a
    loop's two arcs is a reduced closed walk.  For m >= 2 the half-walks
    of lengths h = ceil(m/2) and k = floor(m/2) from each source are
    joined as in the module docstring (_join).  The sources are joined
    in groups priced at most HALF_WALK_CAP half-walks, and the search
    holds one group's half-walks at a time, so memory is bounded by the
    cap, not by the budget or the number of sources.

    The guards raise here, at the call: m_max < 1, m_max past
    DEFAULT_DEPTH_GUARD, the budget, which prices the half-walks,
    len(sources) d (d-1)^(ceil(m_max/2) - 1) with d the top degree, and
    HALF_WALK_CAP, which one source's half-walks of every length up to
    ceil(m_max/2), priced the same way, may not pass.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    if m_max > DEFAULT_DEPTH_GUARD:
        raise DepthExceeded(f"depth {m_max} exceeds guard {DEFAULT_DEPTH_GUARD}")
    sources = list(sources)
    half = (m_max + 1) // 2
    top = max(map(len, g.neighbors))
    est = walk_estimate(g, half, len(sources), degree=top)
    if est > budget:
        raise DepthExceeded(f"estimated {est} steps exceeds budget {budget}")
    held = sum(walk_estimate(g, depth, 1, degree=top) for depth in range(1, half + 1))
    if held > HALF_WALK_CAP:
        raise DepthExceeded(f"estimated {held} half-walks from one source exceeds cap {HALF_WALK_CAP}")
    tab = _follower_table(g, sources, half - 1)
    counts = [sum(g.neighbors[s].count(s) for s in sources)] + [0] * (m_max - 1)
    step = HALF_WALK_CAP // max(held, 1)
    for lo in range(0, len(sources), step):
        for m, pairs in enumerate(_join(g, tab, sources[lo : lo + step], m_max), 2):
            counts[m - 1] += pairs
    return counts


def _join(g: Graph, tab: _Followers, sources: list[int], m_max: int) -> list[int]:
    """The reduced closed walks of lengths 2..m_max from sources, by meet in the middle.

    Each half-walk carries its first arc's place in the sources' first
    arcs, so each listing of a source has its own first arcs.  A level
    (the half-walks of one length) is tallied by four keys packed into
    int64, and lengths h = ceil(m/2) and k = floor(m/2) are joined by
    inclusion-exclusion over the pairs that carry the same key: same
    (source, end), less same (source, last arc), less same (first arc,
    end), plus same (first arc, last arc).
    """
    half = (m_max + 1) // 2
    fans = np.array([len(g.neighbors[s]) for s in sources], dtype=np.int64)
    firsts = _ranges(np.array([tab.first[s] for s in sources], dtype=np.int64), fans)
    source_of = np.repeat(np.arange(len(sources)), fans)
    levels: list[list[tuple[np.ndarray, np.ndarray]]] = [[] for _ in range(half + 1)]
    for depth, last, first in _search(tab, firsts, np.arange(len(firsts)), half):
        levels[depth].append((last, first))
    n, arcs = g.n, len(tab.end)
    empty = np.zeros(0, dtype=np.int64)
    tallies = [[]]  # tallies[depth][key]
    for level in levels[1:]:
        last = np.concatenate([empty, *(c[0] for c in level)])
        first = np.concatenate([empty, *(c[1] for c in level)])
        level.clear()
        end, src = tab.end[last], source_of[first]
        tallies.append(
            [
                np.unique(a * width + b, return_counts=True)
                for a, b, width in ((src, end, n), (src, last, arcs), (first, end, n), (first, last, arcs))
            ]
        )
    pairs = []
    for m in range(2, m_max + 1):
        h, k = tallies[(m + 1) // 2], tallies[m // 2]
        pairs.append(_pairs(h[0], k[0]) - _pairs(h[1], k[1]) - _pairs(h[2], k[2]) + _pairs(h[3], k[3]))
    return pairs
