"""Finite undirected multigraphs stored as sorted neighbour lists.

The central object is an immutable :class:`Graph` storing, for each
vertex, the sorted tuple of its neighbours as Python ints, one entry per
edge end, so memory grows with the edges rather than with n^2.  A loop
at v lists v twice in v's tuple, matching the convention under which a
loop adds 2 to the diagonal of the adjacency matrix and list lengths
equal vertex degrees.  The dense matrix is built only on request, by
:meth:`Graph.as_numpy`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import chain, groupby
from operator import index
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import (
    DisconnectedGraph,
    EmptyGraph,
    NotRegular,
    ParseError,
    UnknownName,
)


@dataclass(frozen=True)
class Graph:
    """Undirected multigraph on vertices 0..n-1.

    Attributes:
        n: number of vertices.
        neighbors: neighbors[i] is the sorted tuple of i's neighbours,
            w listed once per edge between i and w; a loop at i lists i
            twice, so len(neighbors[i]) is the degree of i and the
            adjacency entry a_ij is neighbors[i].count(j).

    A graph carries no symmetry claim.  The single-row shortcuts of the
    exact sweeps need one; the suite context grants them only to a
    graph that lps.cayley_root certifies is X^{p,q}.
    """

    n: int
    neighbors: tuple[tuple[int, ...], ...]

    @property
    def edge_count(self) -> int:
        """Number of edges, loops counted once each."""
        return sum(map(len, self.neighbors)) // 2

    @property
    def betti_number(self) -> int:
        """The first Betti number r = |E| - n + 1 of a connected graph."""
        return self.edge_count - self.n + 1

    def degree(self, v: int) -> int:
        return len(self.neighbors[v])

    def as_numpy(self) -> np.ndarray:
        """The dense n x n float adjacency matrix, built on each call."""
        a = np.zeros((self.n, self.n))
        rows = np.repeat(np.arange(self.n), [len(nb) for nb in self.neighbors])
        cols = np.fromiter(chain.from_iterable(self.neighbors), dtype=np.intp, count=len(rows))
        np.add.at(a, (rows, cols), 1.0)
        return a


@dataclass(frozen=True)
class RegularityCertificate:
    """Witness that a graph is (q+1)-regular.

    Attributes:
        degree: the common degree q+1.
        q: degree minus one, the branching number of the universal cover.
        bipartite: whether the graph is bipartite.
        parts: the bipartition as two vertex tuples when bipartite,
            otherwise None.
    """

    degree: int
    q: int
    bipartite: bool
    parts: tuple[tuple[int, ...], tuple[int, ...]] | None


def build_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from an edge list.

    Each edge is (i, j) or (i, j, multiplicity).  A loop (i, i) with
    multiplicity c lists i 2*c times among i's neighbours.  Raises
    EmptyGraph for n <= 0 and DisconnectedGraph when the result is not
    connected.
    """
    if n <= 0:
        raise EmptyGraph("graph must have at least one vertex")
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for e in edges:
        if len(e) == 2:
            i, j = e
            c = 1
        elif len(e) == 3:
            i, j, c = e
        else:
            raise ParseError(f"edge {e!r} must have 2 or 3 components")
        i, j, c = index(i), index(j), index(c)
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"edge {e!r} references a vertex outside 0..{n - 1}")
        if c < 0:
            raise ParseError(f"edge {e!r} has negative multiplicity")
        if i == j:
            nbrs[i] += [i] * (2 * c)
        else:
            nbrs[i] += [j] * c
            nbrs[j] += [i] * c
    g = Graph(n, tuple(tuple(sorted(nb)) for nb in nbrs))
    _require_connected(g)
    return g


def _require_connected(g: Graph) -> None:
    seen = [False] * g.n
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        v = stack.pop()
        for w in g.neighbors[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    if count != g.n:
        raise DisconnectedGraph(f"graph has {g.n} vertices but only {count} reachable from vertex 0")


_CYCLE_RE = re.compile(r"^CYCLE\((\d+)\)$")


def named_graph(name: str) -> Graph:
    """Return one of the built-in graphs by name.

    Recognized: K4, K33, PETERSEN, CUBE, CYCLE(n) for n >= 3, and K3 as
    an alias for CYCLE(3).  Names are case-insensitive.
    """
    key = name.strip().upper().replace(" ", "")
    if key == "K3":
        key = "CYCLE(3)"
    m = _CYCLE_RE.match(key)
    if m:
        n = int(m.group(1))
        if n < 3:
            raise UnknownName(f"cycle length must be at least 3, got {n}")
        edges = [(i, (i + 1) % n) for i in range(n)]
        return build_graph(n, edges)
    if key == "K4":
        return build_graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    if key == "K33":
        return build_graph(6, [(i, j) for i in range(3) for j in range(3, 6)])
    if key == "PETERSEN":
        edges = []
        # outer 5-cycle, inner 5-cycle with step 2, and the five spokes
        for i in range(5):
            edges.append((i, (i + 1) % 5))
            edges.append((5 + i, 5 + (i + 2) % 5))
            edges.append((i, 5 + i))
        return build_graph(10, edges)
    if key == "CUBE":
        edges = []
        for v in range(8):
            for b in range(3):
                w = v ^ (1 << b)
                if v < w:
                    edges.append((v, w))
        return build_graph(8, edges)
    raise UnknownName(f"unknown graph name {name!r}")


def certify_regular(g: Graph) -> RegularityCertificate:
    """Check regularity and bipartiteness in one pass.

    Raises NotRegular (with the two offending degrees) when the graph is
    irregular.  Bipartiteness is decided by 2-coloring; the certificate
    carries the bipartition when one exists.
    """
    degs = [len(nb) for nb in g.neighbors]
    d0 = degs[0]
    for d in degs[1:]:
        if d != d0:
            raise NotRegular(
                f"graph is not regular: degrees {d0} and {d} both occur",
                degrees=(d0, d),
            )
    color = [-1] * g.n
    color[0] = 0
    queue = [0]
    bipartite = True
    while queue and bipartite:
        v = queue.pop()
        for w in g.neighbors[v]:
            if color[w] == -1:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                bipartite = False  # includes a loop, w == v
                break
    parts = None
    if bipartite:
        parts = (
            tuple(v for v in range(g.n) if color[v] == 0),
            tuple(v for v in range(g.n) if color[v] == 1),
        )
    return RegularityCertificate(degree=d0, q=d0 - 1, bipartite=bipartite, parts=parts)


def neighbour_table(g: Graph) -> np.ndarray:
    """The (n, d) array whose row w lists g.neighbors[w], padded with n up to the largest degree d.

    refine reads a padding entry as the colour -1.
    """
    n = g.n
    degree = np.fromiter(map(len, g.neighbors), dtype=np.intp, count=n)
    width = int(degree.max())
    table = np.full((n, width), n, dtype=np.intp)
    table[np.arange(width) < degree[:, None]] = np.fromiter(chain.from_iterable(g.neighbors), dtype=np.intp)
    return table


def refine(table: np.ndarray, start: np.ndarray, rounds: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(cell_of, quotient): colour refinement of a neighbour_table's graph from start, `rounds` rounds deep or to its fixpoint.

    start gives each vertex a colour numbered 0..C-1 with every colour
    used (rooted_quotient starts from {v} and the rest).
    Each round keys a vertex by its cell and the sorted cells of its
    neighbours, one entry per edge end (-1 for padding), and splits the
    cells by the distinct keys; the key holds the old cell, so each
    round refines the last.  Vertices that share a cell after k rounds
    have the same multiset of neighbour cells of round k - 1.  The
    refinement stops after `rounds` rounds, or sooner at the first
    round that adds no cell: then every vertex of a cell has the same
    multiset of neighbour cells, so the partition is the coarsest
    equitable one that refines start (McKay and Piperno, J. Symbolic
    Comput. 60, 2014).  cell_of[w] is w's cell, numbered 0..C-1, and row
    c of quotient lists the sorted cells of the neighbours of c's first
    vertex, padded in front with -1 up to the largest degree.

    A round numbers the new cells in the order np.unique sorts their
    keys (by their bytes), and a round that adds no cell keeps the last
    numbering.  Both name cells, not vertices: an isomorphism that maps
    one start colouring onto another maps the first graph's cell_of
    onto the second's, cell numbers included, and at the fixpoint the
    two quotients are equal, so lps._isomorphism compares them directly.
    """
    n, width = table.shape
    colour = np.append(start, -1).astype(np.int64)
    first = np.unique(colour[:n], return_index=True)[1]
    keys = np.empty((n, width + 1), dtype=np.int64)
    packed = keys.view(np.dtype((np.void, keys.itemsize * (width + 1)))).ravel()
    done = 0
    while rounds is None or done < rounds:
        keys[:, 0] = colour[:n]
        keys[:, 1:] = np.sort(colour[table], axis=1)
        _, split, inverse = np.unique(packed, return_index=True, return_inverse=True)
        if len(split) == len(first):
            break
        first, colour[:n] = split, inverse
        done += 1
    return colour[:n], np.sort(colour[table[first]], axis=1)


@dataclass(frozen=True)
class RootedQuotient:
    """The cells of rooted_quotient(g, v): root is the cell {v}, and w is in cell cell_of[w], numbered 0..C-1."""

    root: int
    cell_of: np.ndarray
    neighbours: tuple[tuple[int, ...], ...]  # the cells of the neighbours of each cell's first vertex
    sizes: tuple[int, ...]  # the number of vertices in each cell


def rooted_quotient(g: Graph, v: int, rounds: int | None = None) -> RootedQuotient:
    """Colour refinement from {v} and the rest, `rounds` rounds deep or to its fixpoint; ValueError unless v is in g.

    The fixpoint is the coarsest equitable partition with {v} as a cell
    (12 cells on X^{13,5}, 54 on X^{17,13}, in 3 to 8 rounds on a
    certified X^{p,q}; n/2 rounds on a cycle): row v of every polynomial
    in A is constant on its cells, and on a vertex-transitive graph its
    quotient matrix carries the spectrum.  The cells of round k carry
    row v of A^j for j <= k.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} is outside 0..{g.n - 1}")
    cell_of, quotient = refine(neighbour_table(g), np.arange(g.n) != v, rounds)
    cell_of.setflags(write=False)
    neighbours = tuple(tuple(c for c in row if c >= 0) for row in quotient.tolist())
    return RootedQuotient(int(cell_of[v]), cell_of, neighbours, tuple(np.bincount(cell_of).tolist()))


def _edges_canonical(g: Graph) -> list[list[int]]:
    """[i, j, multiplicity] for every i <= j joined by an edge, in (i, j) order."""
    out = []
    for i, nb in enumerate(g.neighbors):
        for j, ends in groupby(nb):
            if j >= i:
                c = sum(1 for _ in ends)
                out.append([i, j, c // 2 if i == j else c])
    return out


def graph_document(g: Graph, lps: dict | None = None) -> dict:
    """The JSON graph-file object: {"n", "edges"}, then the "lps" record when given.

    An edge is [i, j], or [i, j, multiplicity] when that exceeds 1, for
    i <= j in (i, j) order.  An lps record is {"p", "q", "kind"}.
    """
    edges = [[i, j] if c == 1 else [i, j, c] for i, j, c in _edges_canonical(g)]
    doc = {"n": g.n, "edges": edges}
    if lps is not None:
        doc["lps"] = lps
    return doc


def save_graph(g: Graph, dest: str | IO[str], *, fmt: str | None = None, lps: dict | None = None) -> None:
    """Write a graph to a path or file object.

    Formats: "json" (graph_document on one line, which alone can carry
    an lps record) or "edgelist" (a "n <count>" header line then one
    "i j [mult]" line per edge).  When fmt is None it is inferred from
    the path suffix, defaulting to edgelist for non-.json paths and file
    objects.
    """
    if fmt is None:
        fmt = "json" if isinstance(dest, str) and dest.endswith(".json") else "edgelist"
    if fmt == "json":
        text = json.dumps(graph_document(g, lps), separators=(",", ":")) + "\n"
    elif fmt != "edgelist":
        raise ValueError(f"unknown format {fmt!r}")
    elif lps is not None:
        raise ValueError("an edge list cannot carry an lps record")
    else:
        edges = (f"{i} {j}\n" if c == 1 else f"{i} {j} {c}\n" for i, j, c in _edges_canonical(g))
        text = f"n {g.n}\n" + "".join(edges)
    if isinstance(dest, str):
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        dest.write(text)


def load_graph(src: str | IO[str]) -> Graph:
    """Read a graph written by save_graph, from a path or file object.

    The format is sniffed from the content: a leading "{" means JSON,
    anything else is treated as an edge list.  Raises ParseError with a
    line number on malformed input.
    """
    return load_graph_doc(src)[0]


def load_graph_doc(src: str | IO[str]) -> tuple[Graph, dict | None]:
    """load_graph, also returning the parsed JSON object (None for an edge list).

    Callers that need keys beyond 'n' and 'edges', such as the 'lps'
    record of an `lps --emit` file, read them here instead of parsing
    the file a second time.
    """
    if isinstance(src, str):
        with open(src, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = src.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}", line=exc.lineno) from exc
        if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
            raise ParseError("JSON graph must have 'n' and 'edges' keys")
        n, edges = doc["n"], doc["edges"]
        if type(n) is not int:
            raise ParseError(f"JSON graph needs an integer 'n', got {n!r}")
        if not isinstance(edges, list):
            raise ParseError(f"JSON graph needs a list of edges, got {edges!r}")
        for e in edges:
            if not (isinstance(e, list) and all(type(x) is int for x in e)):
                raise ParseError(f"edge {e!r} is not a list of integers")
        return build_graph(n, edges), doc
    lines = text.splitlines()
    header = None
    edges = []
    for idx, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "n" or len(parts) != 2:
                raise ParseError("first line must be 'n <count>'", line=idx)
            try:
                header = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line=idx)
            continue
        if len(parts) not in (2, 3):
            raise ParseError(f"edge line needs 2 or 3 fields, got {len(parts)}", line=idx)
        try:
            edge = [int(p) for p in parts]
        except ValueError:
            raise ParseError(f"non-integer edge field in {line!r}", line=idx)
        edges.append(edge)
    if header is None:
        raise ParseError("empty graph file", line=1)
    return build_graph(header, edges), None
