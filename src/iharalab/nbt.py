"""Non-backtracking walk matrices for regular graphs.

Exact integer routes compute the recurrence family A_m (reduced path
counts), the reduced-cycle matrices M_m, their traces N_m, and the
theta-series matrices T~_m.  The spectral float route computes M_m
from an eigendecomposition (m_matrix_chebyshev); it is kept
deliberately independent of the exact routes so each can test the
other.

Conventions for a (q+1)-regular graph:
    A_0 = I, A_1 = A, A_2 = A^2 - (q+1)I, A_m = A_{m-1}A - qA_{m-2}.
    M_m = A_m - (q-1) * sum_{k=1}^{floor((m-1)/2)} A_{m-2k}.
    N_m = Tr(M_m).
    T~_m = sum_{0 <= r <= m/2} A_{m-2r}.
    B_m = 2q^{m/2} T_m(A/(2 sqrt q)) obeys the integer recurrence
    B_0 = 2I, B_1 = A, B_m = B_{m-1}A - qB_{m-2}, and M_m = B_m +
    e_m(q-1)I for m >= 1.

Every matrix swept here is a polynomial in A, so it commutes with A and
row i of X A is the sum of the rows of X at i's neighbors (Graph.neighbors).
The trace sweeps use the product identity B_a B_b = B_{a+b} + q^b B_{a-b}
(a >= b) and the symmetry of B_k: Tr B_m for all m <= M comes from inner
products of B_0..B_{ceil(M/2)}, which costs ceil(M/2) - 1 matrix steps and
O(n^2) memory.  Then N_m = Tr B_m + e_m(q-1)n and Tr T~_m = Tr B_m +
q Tr T~_{m-2}.  The sweep is a generator that takes each step only when
it is resumed for the next odd index; TraceSweep keeps one such stream
and the traces it has yielded, so callers that share it (the checks of
one suite context, through the sweep= argument of n_reduced_range and
t_tilde_traces) pay for the longest prefix once.

Without a sweep the traces take the full matrix route.  The "row" route
runs the same identities on row v of B_k and multiplies by n, which is
exact only when every diagonal entry equals the one at v, as on a
Cayley graph; nothing here checks that.  suite.SuiteContext grants the
row route to a graph that lps.cayley_cosets confirms is X^{p,q}, and
the test suite pins the two routes against each other.  Row v of A_m
comes from the same row recurrence (a_rows).  A_m, M_m and T~_m as
matrices come from the A_m recurrence of ExactMatrixSeq.  Both families are
integer polynomials in A whose coefficients depend only on q, so
M_m = B_m + e_m(q-1)I holds for every graph iff it holds in Z[x];
m_and_b_polynomials runs the recurrences there, and check_chebyshev
compares them once instead of on n x n matrices.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .graphs import Graph, RegularityCertificate

IntMatrix = list[list[int]]


# ---------------------------------------------------------------------------
# exact integer kernels


def _adjacency_row(n: int, nb: Sequence[int]) -> list[int]:
    row = [0] * n
    for w in nb:
        row[w] += 1
    return row


def _adjacency_rows(g: Graph) -> IntMatrix:
    """The dense integer adjacency rows, for the full-matrix sweeps only."""
    return [_adjacency_row(g.n, nb) for nb in g.neighbors]


def _identity_rows(n: int, scale: int = 1) -> IntMatrix:
    return [[scale if i == j else 0 for j in range(n)] for i in range(n)]


def _mul_adj(rows: IntMatrix, prev: IntMatrix, q: int, nbrs) -> IntMatrix:
    """X A - q P for a matrix X that is a polynomial in A.

    Such an X commutes with A, so row i of X A is row i of A X: the sum
    of the rows of X at i's neighbors, each listed with its multiplicity.
    """
    return [
        list(map(sum, zip(*[rows[w] for w in nb], [-q * p for p in prow])))
        for nb, prow in zip(nbrs, prev)
    ]


def _row_mul_adj(row: list[int], prev: list[int], q: int, nbrs) -> list[int]:
    """x A - q p for a row vector x; entry j sums x over j's neighbors."""
    get = row.__getitem__
    return [sum(map(get, nb)) - q * p for nb, p in zip(nbrs, prev)]


def _dot(x: list[int], y: list[int]) -> int:
    return sum(map(mul, x, y))


def _frobenius(x: IntMatrix, y: IntMatrix) -> int:
    """<X, Y> = Tr(X Y^T), the entrywise inner product."""
    return sum(map(_dot, x, y))


def _mat_axpy(target: IntMatrix, source: IntMatrix, scale: int) -> None:
    for trow, srow in zip(target, source):
        for j, s in enumerate(srow):
            trow[j] += scale * s


def _mat_combine(a: IntMatrix, b: IntMatrix, sb: int) -> IntMatrix:
    return [[x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


class ExactMatrixSeq:
    """Forward sweep of the A_m recurrence with O(n^2) memory.

    Holds (A_{m-1}, A_m) plus running parity-split sums of all earlier
    A_j, which is exactly what M_m and T~_m extraction needs.  advance()
    moves from index m to m+1.
    """

    def __init__(self, g: Graph, cert: RegularityCertificate):
        self.g = g
        self.q = cert.q
        self.n = g.n
        self.m = 0
        self.curr: IntMatrix = _identity_rows(g.n)
        self.prev: IntMatrix | None = None
        # parity sums of A_j for j < m, including j = 0
        self._even_sum: IntMatrix = [[0] * g.n for _ in range(g.n)]
        self._odd_sum: IntMatrix = [[0] * g.n for _ in range(g.n)]

    def advance(self) -> None:
        target = self._even_sum if self.m % 2 == 0 else self._odd_sum
        _mat_axpy(target, self.curr, 1)
        if self.m == 0:
            nxt = _adjacency_rows(self.g)  # A_1 = A
        else:
            # A_2 = A_1 A - (q+1) A_0, then A_m = A_{m-1} A - q A_{m-2}
            scale = self.q + 1 if self.m == 1 else self.q
            nxt = _mul_adj(self.curr, self.prev, scale, self.g.neighbors)
        self.prev = self.curr
        self.curr = nxt
        self.m += 1

    def run_to(self, m: int) -> None:
        while self.m < m:
            self.advance()

    def a_current(self) -> IntMatrix:
        return self.curr

    def m_current(self) -> IntMatrix:
        """M_m for the current index; exact."""
        if self.m == 0:
            return _identity_rows(self.n)
        corr = self._even_sum if self.m % 2 == 0 else self._odd_sum
        out = _mat_combine(self.curr, corr, -(self.q - 1))
        if self.m % 2 == 0:
            # the correction sum stops at index 2, but _even_sum holds A_0
            for i in range(self.n):
                out[i][i] += self.q - 1
        return out

    def t_tilde_current(self) -> IntMatrix:
        """T~_m for the current index; exact."""
        corr = self._even_sum if self.m % 2 == 0 else self._odd_sum
        return _mat_combine(self.curr, corr, 1)

    def trace(self) -> int:
        return sum(self.curr[i][i] for i in range(self.n))


def a_rows(g: Graph, cert: RegularityCertificate, m_max: int, v: int) -> list[list[int]]:
    """Exact [row v of A_0, ..., row v of A_{m_max}], by the row recurrence.

    Row v of A_m is e_v^T A_m, and e_v^T A_{m-1} A - q e_v^T A_{m-2}
    (q+1 at m = 2) is one _row_mul_adj step, so the sweep holds rows only.
    """
    rows = [[0] * g.n]
    rows[0][v] = 1
    if m_max >= 1:
        rows.append(_adjacency_row(g.n, g.neighbors[v]))
    for m in range(2, m_max + 1):
        rows.append(_row_mul_adj(rows[-1], rows[-2], cert.q + (m == 2), g.neighbors))
    return rows


def m_and_b_polynomials(q: int, m_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """Coefficient lists of M_1..M_{m_max} and B_1..B_{m_max} as polynomials in x = A.

    The A_m recurrence of ExactMatrixSeq, the B_m recurrence
    B_0 = 2, B_1 = x, B_m = x B_{m-1} - q B_{m-2}, and
    M_m = A_m - (q-1) sum_{k=1}^{floor((m-1)/2)} A_{m-2k}, run on
    integer coefficient lists (constant term first) instead of matrices.
    Exact, independent of any graph, and O(m_max^3) integer operations;
    no B_m matrix is ever built in the library.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")

    def times_x_minus(cur: list[int], prev: list[int], s: int) -> list[int]:
        out = [0, *cur]
        for i, c in enumerate(prev):
            out[i] -= s * c
        return out

    a = [[1], [0, 1]]
    b = [[2], [0, 1]]
    for m in range(2, m_max + 1):
        a.append(times_x_minus(a[-1], a[-2], q + 1 if m == 2 else q))
        b.append(times_x_minus(b[-1], b[-2], q))
    ms = []
    for m in range(1, m_max + 1):
        poly = list(a[m])
        for k in range(1, (m - 1) // 2 + 1):
            for i, c in enumerate(a[m - 2 * k]):
                poly[i] -= (q - 1) * c
        ms.append(poly)
    return ms, b[1:]


# ---------------------------------------------------------------------------
# scalar sweeps: N_m, f_m, trace families


def _b_trace_stream(g: Graph, q: int, v: int | None = None) -> Iterator[int]:
    """Tr B_0, Tr B_1, ... without end, or the diagonal entries (B_m)_vv for a vertex v.

    B_a B_b = B_{a+b} + q^b B_{a-b} for a >= b, and every B_k is
    symmetric, so
        Tr B_{2k}   = <B_k, B_k> - 2n q^k,
        Tr B_{2k+1} = <B_{k+1}, B_k> - q^k Tr A.
    The stream holds three matrices at a time and takes the kernel step
    to B_{k+1} only when it is resumed for Tr B_{2k+1}, so a consumer
    that stops after Tr B_m has paid ceil(m/2) - 1 steps.  With a vertex
    v it runs on the rows r_k = e_v^T B_k, where
    (B_{2k})_vv = <r_k, r_k> - 2q^k.  At q = 0 the recurrence gives
    B_m = A^m for m >= 1.
    """
    if v is None:
        step, dot, size = _mul_adj, _frobenius, g.n
        prev, cur = _identity_rows(g.n, 2), _adjacency_rows(g)
        tr_a = sum(nb.count(i) for i, nb in enumerate(g.neighbors))
    else:
        step, dot, size = _row_mul_adj, _dot, 1
        prev, cur = [0] * g.n, _adjacency_row(g.n, g.neighbors[v])
        prev[v] = 2
        tr_a = g.neighbors[v].count(v)
    yield 2 * size
    qk = 1  # q^k while prev = B_k and cur = B_{k+1}
    while True:
        yield dot(cur, prev) - qk * tr_a
        qk *= q
        yield dot(cur, cur) - 2 * size * qk
        prev, cur = cur, step(cur, prev, q, g.neighbors)


def _b_traces(g: Graph, q: int, m_max: int, v: int | None = None) -> list[int]:
    """[Tr B_0..Tr B_{m_max}], or [(B_0)_vv..(B_{m_max})_vv]: the stream's first m_max + 1 items."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    return list(islice(_b_trace_stream(g, q, v), m_max + 1))


class TraceSweep:
    """One resumable sweep of Tr B_0, Tr B_1, ... on a (q+1)-regular graph.

    prefix(m) hands out [Tr B_0..Tr B_m].  It resumes the stream only
    past the longest prefix handed out so far, so any order of requests
    costs the kernel steps of the largest one.  method "full" traces the
    matrix recurrence; "row" sweeps row `vertex` and yields
    n (B_m)_{vertex,vertex}, which is the trace only when every diagonal
    entry is the same, as on a Cayley graph.  The sweep does not check
    that: suite.SuiteContext asks for "row" only on a graph that
    lps.cayley_cosets certifies.  The sweep holds its last two matrices
    (rows) until it is dropped.
    """

    def __init__(self, g: Graph, q: int, method: str = "full", vertex: int = 0):
        if method not in ("row", "full"):
            raise ValueError(f"unknown method {method!r}")
        self.g = g
        self.q = q
        row = method == "row"
        self._scale = g.n if row else 1
        self._stream = _b_trace_stream(g, q, vertex if row else None)
        self._traces: list[int] = []

    def prefix(self, m_max: int) -> list[int]:
        if m_max < 0:
            raise ValueError("m_max must be nonnegative")
        more = m_max + 1 - len(self._traces)
        if more > 0:
            self._traces.extend(self._scale * b for b in islice(self._stream, more))
        return self._traces[: m_max + 1]


def _sweep_for(g: Graph, q: int, method: str | None, sweep: TraceSweep | None) -> TraceSweep:
    """sweep, or a fresh one on method's route (full when None) when it is None."""
    if sweep is None:
        return TraceSweep(g, q, method or "full")
    if method is not None:
        raise ValueError("a given sweep carries its own route; pass method or sweep, not both")
    if sweep.g is not g or sweep.q != q:
        raise ValueError("the sweep belongs to another graph or degree")
    return sweep


def _theta_from_b(bs: Sequence[int], q: int, t0: int) -> list[int]:
    """T~_m = B_m + q T~_{m-2} (m >= 2), T~_0 = I, T~_1 = A, on traces or entries."""
    out = [t0, *bs[1:2]]
    for m in range(2, len(bs)):
        out.append(bs[m] + q * out[m - 2])
    return out


def f_values(g: Graph, cert: RegularityCertificate, m_max: int, v: int = 0) -> list[int]:
    """[f_0..f_{m_max}] with f_m = (A_m)_{vv}, via a single-row sweep.

    A_m = T~_m - T~_{m-2}, and the diagonal of T~_m comes from that of B_m.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} is outside 0..{g.n - 1}")
    theta = _theta_from_b(_b_traces(g, cert.q, m_max, v), cert.q, 1)
    return [t - (theta[m - 2] if m >= 2 else 0) for m, t in enumerate(theta)]


def n_reduced_range(
    g: Graph,
    cert: RegularityCertificate,
    m_max: int,
    *,
    method: str | None = None,
    sweep: TraceSweep | None = None,
) -> list[int]:
    """Exact [N_1..N_{m_max}], from N_m = Tr B_m + e_m (q-1) n.

    The traces come from sweep, or from a fresh TraceSweep on method's
    route ("full" unless method is "row") when sweep is None; the test
    suite pins the two routes against each other.
    """
    q = cert.q
    bs = _sweep_for(g, q, method, sweep).prefix(m_max)
    return [bs[m] + (1 - m % 2) * (q - 1) * g.n for m in range(1, m_max + 1)]


def t_tilde_traces(
    g: Graph,
    cert: RegularityCertificate,
    m_max: int,
    *,
    method: str | None = None,
    sweep: TraceSweep | None = None,
) -> list[int]:
    """Exact [Tr(T~_0)..Tr(T~_{m_max})], from sweep as in n_reduced_range."""
    bs = _sweep_for(g, cert.q, method, sweep).prefix(m_max)
    return _theta_from_b(bs, cert.q, g.n)


def adjacency_power_traces(g: Graph, m_max: int, vertex: int | None = None) -> list[int]:
    """Exact [Tr(A^0)..Tr(A^{m_max})] for the plain adjacency powers.

    Tr A^{2k} = <A^k, A^k> and Tr A^{2k+1} = <A^{k+1}, A^k>: the q = 0
    case of the B_m sweep.  With a vertex the sweep runs on that row and
    returns n (A^k)_{vertex,vertex}, the trace only on a graph whose
    diagonal entries all agree, as on a Cayley graph.
    """
    scale = 1 if vertex is None else g.n
    return [g.n] + [scale * w for w in _b_traces(g, 0, m_max, vertex)[1:]]


# ---------------------------------------------------------------------------
# spectral float routes


def cheb_t_real(m: int, x: float) -> float:
    """T_m(x) for real x, stable on both |x| <= 1 and |x| > 1."""
    if abs(x) <= 1.0:
        return math.cos(m * math.acos(x))
    s = -1.0 if (x < 0 and m % 2) else 1.0
    return s * math.cosh(m * math.acosh(abs(x)))


def cheb_u_real(m: int, x: float) -> float:
    """U_m(x) for real x in (-1, 1), via the sine quotient."""
    th = math.acos(x)
    return math.sin((m + 1) * th) / math.sin(th)


def m_matrix_chebyshev(sd, m: int) -> np.ndarray:
    """Spectral-route M_m = sum_l w_l V_l V_l^T + e_m(q-1)I over the eigenvector blocks.

    w_l = 2q^{m/2} T_m(lambda_l/(2 sqrt q)); no projector V_l V_l^T is formed.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    q = sd.q
    scale = 2.0 * q ** (m / 2.0)
    out = np.zeros((sd.n, sd.n))
    for cl in sd.clusters:
        w = scale * cheb_t_real(m, cl.value / (2.0 * math.sqrt(q)))
        out += (cl.vectors * w) @ cl.vectors.T
    if m % 2 == 0:
        out += (q - 1) * np.eye(sd.n)
    return out
