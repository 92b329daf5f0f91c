"""Cayley-graph construction of the (p+1)-regular LPS graphs X^{p,q}.

For primes p, q congruent to 1 mod 4, the p+1 integer quaternions of
norm p with odd positive first coordinate embed as 2x2 matrices over
F_q.  Their images in PGL2(F_q) (when p is a non-residue mod q) or
PSL2(F_q) (when p is a residue) form an inverse-closed connection set,
and the resulting Cayley graph is Ramanujan.

Group elements are canonicalized by scaling so the first nonzero entry
in row-major order equals 1, which turns projective equality into tuple
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import GroupSizeMismatch, InvalidPrime, NoSquareRoot
from .graphs import Graph, _require_connected, certify_regular, neighbour_table, refine

Mat = tuple[int, int, int, int]  # row-major 2x2 over F_q

DEFAULT_Q_LIMIT = 29


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def legendre_symbol(a: int, q: int) -> int:
    """Legendre symbol (a/q) for odd prime q, via Euler's criterion."""
    if q < 3 or not is_prime(q):
        raise InvalidPrime(f"{q} is not an odd prime")
    r = pow(a % q, (q - 1) // 2, q)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def sqrt_mod(a: int, q: int) -> int:
    """Square root of a mod prime q by Tonelli-Shanks; returns the smaller root.

    Raises NoSquareRoot when a is a quadratic non-residue.
    """
    if not is_prime(q) or q == 2:
        raise InvalidPrime(f"{q} is not an odd prime")
    a %= q
    if a == 0:
        return 0
    if legendre_symbol(a, q) == -1:
        raise NoSquareRoot(f"{a} is not a square mod {q}")
    if q % 4 == 3:
        x = pow(a, (q + 1) // 4, q)
        return min(x, q - x)
    # write q - 1 = s * 2^e with s odd
    s, e = q - 1, 0
    while s % 2 == 0:
        s //= 2
        e += 1
    # deterministic non-residue search starting at 2
    z = 2
    while legendre_symbol(z, q) != -1:
        z += 1
    c = pow(z, s, q)
    x = pow(a, (s + 1) // 2, q)
    t = pow(a, s, q)
    m = e
    while t != 1:
        # find least i with t^(2^i) = 1
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % q
            i += 1
        b = pow(c, 1 << (m - i - 1), q)
        x = x * b % q
        c = b * b % q
        t = t * c % q
        m = i
    return min(x, q - x)


@dataclass(frozen=True, order=True)
class QuaternionGenerator:
    """Integer quaternion a0 + a1 i + a2 j + a3 k of norm p."""

    a0: int
    a1: int
    a2: int
    a3: int


def quaternion_generators(p: int) -> list[QuaternionGenerator]:
    """All norm-p integer quaternions with a0 odd positive and a1, a2, a3 even.

    For p prime with p = 1 mod 4 there are exactly p+1 of them; returned
    in lexicographic order.
    """
    if not is_prime(p) or p % 4 != 1:
        raise InvalidPrime(f"p must be a prime congruent to 1 mod 4, got {p}")
    out = []
    r = isqrt(p)
    for a0 in range(1, r + 1, 2):
        rest0 = p - a0 * a0
        b1 = isqrt(rest0)
        for a1 in range(-b1 - (b1 % 2), b1 + 1, 2):
            rest1 = rest0 - a1 * a1
            if rest1 < 0:
                continue
            b2 = isqrt(rest1)
            for a2 in range(-b2 - (b2 % 2), b2 + 1, 2):
                rest2 = rest1 - a2 * a2
                if rest2 < 0:
                    continue
                a3 = isqrt(rest2)
                if a3 * a3 == rest2 and a3 % 2 == 0:
                    out.append(QuaternionGenerator(a0, a1, a2, a3))
                    if a3 != 0:
                        out.append(QuaternionGenerator(a0, a1, a2, -a3))
    out.sort()
    if len(out) != p + 1:
        raise GroupSizeMismatch(f"expected {p + 1} generators for p={p}, found {len(out)}")
    return out


@dataclass(frozen=True)
class LpsParams:
    """Parameters of a constructed X^{p,q}."""

    p: int
    q: int
    legendre_pq: int
    group_kind: str  # "PGL2" or "PSL2"
    expected_n: int
    i_mod_q: int


def mat_mul(x: Mat, y: Mat, q: int) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (
        (a * e + b * g) % q,
        (a * f + b * h) % q,
        (c * e + d * g) % q,
        (c * f + d * h) % q,
    )


def mat_det(x: Mat, q: int) -> int:
    return (x[0] * x[3] - x[1] * x[2]) % q


def canonical_form(x: Mat, q: int) -> Mat:
    """Scale a nonzero matrix so its first nonzero row-major entry is 1."""
    for entry in x:
        if entry:
            inv = pow(entry, q - 2, q)
            return (x[0] * inv % q, x[1] * inv % q, x[2] * inv % q, x[3] * inv % q)
    raise ValueError("zero matrix has no canonical form")


def embed_generator(gen: QuaternionGenerator, q: int, i_mod_q: int) -> Mat:
    """Image of a quaternion in M_2(F_q) using a fixed square root of -1."""
    i = i_mod_q
    return (
        (gen.a0 + gen.a1 * i) % q,
        (gen.a2 + gen.a3 * i) % q,
        (-gen.a2 + gen.a3 * i) % q,
        (gen.a0 - gen.a1 * i) % q,
    )


def group_elements(q: int, kind: str) -> np.ndarray:
    """Canonical forms of PGL2(F_q) or PSL2(F_q), sorted, as the rows of an (n, 4) int64 array.

    The canonical forms are (0, 1, c, d) with c != 0, which sort first,
    and (1, b, c, d) with d != bc, so none needs canonicalizing.  PSL2
    keeps those whose determinant is a nonzero square.
    """
    r = np.arange(q)
    c, d = np.meshgrid(r[1:], r, indexing="ij")
    low = np.stack([np.zeros_like(c), np.ones_like(c), c, d], axis=-1).reshape(-1, 4)
    b, c, d = np.meshgrid(r, r, r, indexing="ij")
    high = np.stack([np.ones_like(b), b, c, d], axis=-1).reshape(-1, 4)
    mats = np.concatenate([low, high])
    det = (mats[:, 0] * mats[:, 3] - mats[:, 1] * mats[:, 2]) % q
    keep = det != 0
    if kind == "PSL2":
        square = np.zeros(q, dtype=bool)
        square[r[1:] ** 2 % q] = True
        keep &= square[det]
    return mats[keep]


def lps_params(p: int, q: int) -> LpsParams:
    """Validate (p, q) and derive the construction parameters.

    Usable on its own to recover the parameter record for a graph that
    was built earlier and reloaded from a file.
    """
    if not is_prime(p) or p % 4 != 1:
        raise InvalidPrime(f"p must be a prime congruent to 1 mod 4, got {p}")
    if not is_prime(q) or q % 4 != 1:
        raise InvalidPrime(f"q must be a prime congruent to 1 mod 4, got {q}")
    if p == q:
        raise InvalidPrime("p and q must be distinct")
    leg = legendre_symbol(p, q)
    kind = "PGL2" if leg == -1 else "PSL2"
    expected_n = q * (q * q - 1) if kind == "PGL2" else q * (q * q - 1) // 2
    return LpsParams(
        p=p,
        q=q,
        legendre_pq=leg,
        group_kind=kind,
        expected_n=expected_n,
        i_mod_q=sqrt_mod(-1, q),
    )


def connection_set(params: LpsParams) -> list[Mat]:
    """Canonical forms of the p+1 embedded generators, in quaternion_generators order."""
    p, q = params.p, params.q
    out = []
    for gen in quaternion_generators(p):
        m = embed_generator(gen, q, params.i_mod_q)
        if mat_det(m, q) != p % q:
            raise GroupSizeMismatch("generator embedding has wrong determinant")
        out.append(canonical_form(m, q))
    return out


def build_lps(p: int, q: int, *, allow_large: bool = False) -> tuple[Graph, LpsParams]:
    """Construct X^{p,q} and its parameter record.

    Refuses q > 29 unless allow_large is set (group order grows like q^3,
    and every check's cost with it).
    """
    params = lps_params(p, q)
    if q > DEFAULT_Q_LIMIT and not allow_large:
        raise InvalidPrime(
            f"q={q} exceeds the desk-scale limit {DEFAULT_Q_LIMIT}; pass allow_large=True (--allow-large) to proceed"
        )
    return _construction(params)[0], params


@lru_cache(maxsize=2)
def _construction(params: LpsParams) -> tuple[Graph, int]:
    """build_lps's X^{p,q} for params and its identity vertex e, checked once and kept.

    The connection set must act without a fixed point, be closed under
    inverses and give a connected (p+1)-regular graph, bipartite exactly
    when (p/q) = -1.  cayley_root reads the kept graph, so on build_lps's
    own graph it compares tuples it already holds.
    """
    p, q, kind = params.p, params.q, params.group_kind
    vert = group_elements(q, kind)
    n = len(vert)
    if n != params.expected_n:
        raise GroupSizeMismatch(
            f"enumerated {n} elements of {kind}(F_{q}), expected {params.expected_n}"
        )
    table = _neighbour_table(params, vert)
    own = np.arange(n)[:, None]
    if (table == own).any():
        raise GroupSizeMismatch("connection set acts with a fixed point")
    # arc counts must be symmetric since the connection set is inverse-closed
    if not np.array_equal(np.sort(own * n + table, axis=None), np.sort(table * n + own, axis=None)):
        raise GroupSizeMismatch("connection set is not closed under inverses")
    g = Graph(n, tuple(map(tuple, table.tolist())))
    _require_connected(g)
    cert = certify_regular(g)
    if cert.degree != p + 1:
        raise GroupSizeMismatch(f"degree {cert.degree} != p+1 = {p + 1}")
    if cert.bipartite != (params.legendre_pq == -1):
        raise GroupSizeMismatch("bipartiteness disagrees with the Legendre symbol")
    return g, int(np.flatnonzero((vert == (1, 0, 0, 1)).all(axis=1))[0])


def _neighbour_table(params: LpsParams, vert: np.ndarray) -> np.ndarray:
    """The (n, p+1) table whose row v lists the indices of s v, s in connection_set(params), sorted.

    vert is group_elements' array for params; each product is
    canonicalized by scaling its first nonzero row-major entry to 1 and
    looked up among vert's rows (-1 if it is not one of them).
    """
    q = params.q
    weights = np.array([q**3, q**2, q, 1])
    index = np.full(q**4, -1)
    index[vert @ weights] = np.arange(len(vert))
    inverse = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)])  # 0 has none
    a, b, c, d = vert.T
    table = np.empty((len(vert), params.p + 1), dtype=np.int64)
    for k, (s0, s1, s2, s3) in enumerate(connection_set(params)):
        w = np.stack([s0 * a + s1 * c, s0 * b + s1 * d, s2 * a + s3 * c, s2 * b + s3 * d], axis=1) % q
        lead = np.where(w[:, 0] != 0, w[:, 0], w[:, 1])
        table[:, k] = index[(w * inverse[lead][:, None] % q) @ weights]
    table.sort(axis=1)
    return table


def cayley_root(g: Graph, params: LpsParams) -> int | None:
    """A vertex of g that a verified isomorphism onto build_lps's X^{p,q} maps to the identity e, else None.

    First the identity map: compare g.neighbors with those of
    build_lps's graph for params (_construction, which keeps it from the
    build), which accepts that graph and byte copies of its files, root e.
    Otherwise search for an isomorphism phi of g onto that graph with
    phi(0) = e (_isomorphism) and return 0.  X^{p,q} is vertex-transitive,
    so phi exists for every relabeling of it.  A rewired graph, a leaf
    map that fails its arc-by-arc check, or a search past SEARCH_NODES
    gets None.
    """
    if g.n != params.expected_n or any(len(nb) != params.p + 1 for nb in g.neighbors):
        return None
    reference, e = _construction(params)
    if reference.neighbors == g.neighbors:
        return e
    return None if _isomorphism(g, reference, 0, e)[0] is None else 0


# Search nodes _isomorphism may refine before it gives up.  Relabeled
# X^{13,5}, X^{17,5}, X^{17,13}, X^{13,17} and X^{5,29} each took 5 nodes,
# and 2-switched X^{13,5}, X^{17,13} and X^{5,29} were refused at the first.
SEARCH_NODES = 32


def _isomorphism(g: Graph, h: Graph, u: int, v: int) -> tuple[np.ndarray | None, int]:
    """(phi, nodes): an isomorphism phi of g onto h with phi[u] = v, or None, and the nodes searched.

    g and h have one degree.  Individualize and refine (McKay and
    Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 60,
    2014): colour u in g and v in h alone, refine both to their coarsest
    equitable partitions (graphs.refine, to its fixpoint) and compare
    the two quotients.  While the partitions are not discrete, give the
    first vertex of g's smallest cell of two or more a colour of its
    own, and try each vertex of h's cell of the same number in turn,
    depth first.  refine numbers cells by their keys, so any isomorphism
    that respects the start colourings keeps the cell numbers, and a
    branch whose quotients differ holds none.  A node is one refinement
    of h; a search that would take more than SEARCH_NODES gives None.  Equal
    discrete quotients name phi, which is checked arc by arc
    (_maps_arcs) before it is returned; if that check fails, the search
    gives None rather than trust anything else it found.
    """
    n, nodes = g.n, 0
    table_g, table_h = neighbour_table(g), neighbour_table(h)
    # per level: g's partition, its quotient and h's start colourings still to try
    stack = [(*refine(table_g, np.arange(n) != u), iter([np.arange(n) != v]))]
    while stack:
        cell_g, quotient, candidates = stack[-1]
        start_h = next(candidates, None)
        if start_h is None:
            stack.pop()
            continue
        if nodes == SEARCH_NODES:
            return None, nodes
        nodes += 1
        cell_h, other = refine(table_h, start_h)
        sizes = np.bincount(cell_g)
        if not (np.array_equal(quotient, other) and np.array_equal(sizes, np.bincount(cell_h))):
            continue
        if len(sizes) == n:
            phi = _leaf_map(cell_g, cell_h)
            return (phi if _maps_arcs(table_g, table_h, phi) else None), nodes
        c = int(np.argmin(np.where(sizes > 1, sizes, n + 1)))
        start_g = next(_individualized(cell_g, c))
        stack.append((*refine(table_g, start_g), _individualized(cell_h, c)))
    return None, nodes


def _individualized(colour: np.ndarray, c: int) -> Iterator[np.ndarray]:
    """colour with one vertex of cell c given a colour of its own, max + 1, for each vertex of c in turn."""
    new = int(colour.max()) + 1
    for x in np.flatnonzero(colour == c):
        out = colour.copy()
        out[x] = new
        yield out


def _leaf_map(cell_g: np.ndarray, cell_h: np.ndarray) -> np.ndarray:
    """The bijection phi with cell_h[phi[w]] = cell_g[w], for two discrete partitions."""
    return np.argsort(cell_h)[cell_g]


def _maps_arcs(table_g: np.ndarray, table_h: np.ndarray, phi: np.ndarray) -> bool:
    """Whether phi is a bijection that maps the neighbours of every vertex w, with multiplicity, onto those of phi[w].

    Row w of each table lists w's neighbours in increasing order (graphs.neighbour_table of a regular graph).
    """
    if not np.array_equal(np.sort(phi), np.arange(len(table_g))):
        return False
    return np.array_equal(np.sort(phi[table_g], axis=1), table_h[phi])
