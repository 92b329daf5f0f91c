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
N_m = Tr B_m + e_m(q-1)n and Tr T~_m = Tr B_m + q Tr T~_{m-2}, so every
trace family is read off one stream Tr B_0, Tr B_1, ...  TraceSweep keeps
one such stream and the traces it has yielded, so callers that share it
(the checks of one suite context, through the sweep= argument of
n_reduced_range and t_tilde_traces) pay for the longest prefix once.
Without a sweep the traces take the full route, which has two streams:

- The characteristic polynomial.  B_m has the eigenvalues alpha^m + beta^m
  with alpha + beta = lambda and alpha beta = q for each eigenvalue lambda
  of A, so Tr B_m is the m-th power sum of the roots of
  x^n chi_A(x + q/x) = prod_lambda (x^2 - lambda x + q), and Newton's
  identities give every m from one exact chi_A (Lubotzky, Phillips and
  Sarnak, Combinatorica 8, 1988, read X^{p,q} off the spectrum of A the
  same way).  integer_charpoly finds chi_A modulo 26-bit primes, all of
  them in one stacked (primes, n, n) int64 Hessenberg pass with a pivot
  of each prime's own (_charpoly_mod), and lifts it by CRT under
  Hadamard's bound on its coefficients, C(n, k) d^{k/2} on a simple
  d-regular graph; zeta.ihara_bass_reciprocal shares that modular layer,
  on the Bass matrix of its graph with the pendant trees pruned.  The
  stack holds primes x (n+1)^2 int64 for the recurrence and as much
  again for the reduction.  It serves while its price, primes x n^3, is
  within COST_CEILING: up to n = 325 at degree 14 (n = 120 takes 11
  primes) and n = 362 at degree 3.
- The matrix recurrence, past that price.  It uses the product identity
  B_a B_b = B_{a+b} + q^b B_{a-b} (a >= b) and the symmetry of B_k:
  Tr B_m for all m <= M comes from inner products of B_0..B_{ceil(M/2)},
  which costs ceil(M/2) - 1 steps and O(n^2) memory.  It is a generator
  that takes each step only when it is resumed for the next odd index,
  and it refuses a request whose n^2 ceil(M/2) passes COST_CEILING
  before its first step.  adjacency_power_traces (the q = 0 case) takes
  it without a quotient, so the ihara-bass check compares N_m from chi_A
  with Tr A^k from integer matrix powers, two independent exact routes.

The row route runs the matrix identities on row v of B_k and
multiplies by n, which is exact only when every diagonal entry equals
the one at v, as on a Cayley graph; nothing here checks that.
suite.SuiteContext grants the row route to a graph that
lps.cayley_root certifies is X^{p,q}, and the test suite pins the
routes against each other.  The row is held with one entry per cell
of a rooted quotient at v (graphs.rooted_quotient, _row_b_stream):
a TraceSweep reads the one that it is given, at its fixpoint, and
f_values builds one ceil(m/2) rounds deep for the entries up to m.
That is exact on any graph and at any vertex, so f_values uses it
without a certificate.
Row v of A_m, which the oracle compares entry by entry, comes from
the same row recurrence on all n entries (a_rows).  A_m, M_m and T~_m as
matrices come from the A_m recurrence of ExactMatrixSeq.  Both families are
integer polynomials in A whose coefficients depend only on q, so
M_m = B_m + e_m(q-1)I holds for every graph iff it holds in Z[x];
m_and_b_polynomials runs the recurrences there, and check_chebyshev
compares them once instead of on n x n matrices.
"""

from __future__ import annotations

import math
from itertools import islice
from math import comb, prod
from operator import mul
from typing import Iterator, Sequence

import numpy as np

from .errors import DepthExceeded, OutOfRange
from .graphs import Graph, RegularityCertificate, RootedQuotient, rooted_quotient
from .lps import is_prime

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
    """x A - q p for a row vector x; entry j sums x over j's neighbors.

    On a quotient the entries are cells and nbrs[c] lists the cells of a
    representative's neighbors, which is the same sum for every vertex of c.
    """
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


# ---------------------------------------------------------------------------
# exact characteristic polynomials, modulo primes and lifted by CRT

# Ceiling on the exact routes' work.  integer_charpoly prices primes x size^3
# (the Bass matrix of X^{13,5}: 18 x 240^3 = 2.5e8); size^3 alone passes it
# for every size > 1000, so no dot product sums more than 1000 terms.  The
# matrix trace stream prices n^2 x ceil(m/2) (n = 1092 to m = 200: 1.2e8).
COST_CEILING = 10**9

_PRIME_BITS = 26
_PRIMES: list[int] = []  # largest primes below 2^26, descending; filled on use


def _prime(i: int) -> int:
    """The (i+1)-th largest prime below 2^26."""
    while len(_PRIMES) <= i:
        c = (_PRIMES[-1] if _PRIMES else 1 << _PRIME_BITS) - 1
        while not is_prime(c):
            c -= 1
        _PRIMES.append(c)
    return _PRIMES[i]


def _charpoly_price(size: int, bound: int) -> int:
    """integer_charpoly's work on a size x size matrix: about bits(2 bound)/26 primes times size^3."""
    return -(-(2 * bound).bit_length() // _PRIME_BITS) * size**3


def require_charpoly_price(size: int, bound: int) -> None:
    """Raise DepthExceeded when _charpoly_price(size, bound) passes COST_CEILING."""
    price = _charpoly_price(size, bound)
    if price > COST_CEILING:
        raise DepthExceeded(f"charpoly cost {price:.2e} exceeds {COST_CEILING:.0e}")


def _charpoly_mod(matrix: np.ndarray, primes: Sequence[int]) -> np.ndarray:
    """det(xI - L) mod each prime for an int64 matrix L: row i of the (P, size+1) result is mod primes[i], constant first.

    Every prime is reduced in one (P, size, size) stack.  Hessenberg form
    by similarity (pivot swaps, row eliminations undone by column
    operations), each prime with its own pivot: the first nonzero entry
    below the diagonal, swapped into place only where it is not there
    already.  A column that vanishes mod one prime gets multiplier 0 there,
    which leaves that prime's layer as it is.  Then the Hessenberg
    recurrence over the leading blocks, stacked the same way.  Residues
    are below p < 2^26, so products stay below 2^52 and any int64 dot
    product over at most 2047 terms stays below 2^63.
    """
    ps = np.array(primes, dtype=np.int64)
    p2, p3 = ps[:, None], ps[:, None, None]
    h = matrix[None] % p3
    size = matrix.shape[0]
    for j in range(size - 2):
        first = (h[:, j + 1 :, j] != 0).argmax(axis=1)  # 0 also where the column vanishes
        swap = np.flatnonzero(first)  # the layers whose pivot is not in place
        if swap.size:
            piv = j + 1 + first[swap]
            h[swap, j + 1], h[swap, piv] = h[swap, piv], h[swap, j + 1]
            h[swap, :, j + 1], h[swap, :, piv] = h[swap, :, piv], h[swap, :, j + 1]
        pivots = h[:, j + 1, j].tolist()
        if not any(pivots):
            continue
        inv = np.array([pow(a, -1, p) if a else 0 for a, p in zip(pivots, primes)], dtype=np.int64)
        t = h[:, j + 2 :, j] * inv[:, None] % p2
        below = h[:, j + 2 :, j:]
        below -= t[:, :, None] * h[:, j + 1, None, j:]
        np.remainder(below, p3, out=below)
        h[:, :, j + 1] = (h[:, :, j + 1] + (h[:, :, j + 2 :] @ t[:, :, None])[:, :, 0]) % p2
    # polys[:, c]: charpoly of the leading c x c block; w[:, r] = prod_{r<k<=c} h[k,k-1]
    polys = np.zeros((len(ps), size + 1, size + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    w = np.zeros((len(ps), 0), dtype=np.int64)
    for c in range(size):
        if c:
            w = np.concatenate([w, np.ones_like(p2)], axis=1) * h[:, c, c - 1, None] % p2
        nxt = np.zeros((len(ps), size + 1), dtype=np.int64)
        nxt[:, 1 : c + 2] = polys[:, c, : c + 1]
        nxt[:, : c + 1] -= h[:, c, c, None] * polys[:, c, : c + 1]
        nxt[:, :c] -= ((h[:, :c, c] * w % p2)[:, None, :] @ polys[:, :c, :c])[:, 0]
        polys[:, c + 1] = nxt % p2
    return polys[:, size]


def integer_charpoly(matrix: np.ndarray, bound: int) -> list[int]:
    """det(xI - matrix) over Z, constant term first, for an int64 matrix whose coefficients are at most bound in size.

    Found mod the largest primes below 2^26 until their product passes
    2 bound, all of them in one stacked pass of _charpoly_mod, then
    lifted by symmetric CRT.  Raises DepthExceeded as
    require_charpoly_price does.  The result is only as right as bound;
    every caller checks it against an identity it must satisfy.
    """
    require_charpoly_price(len(matrix), bound)
    primes = []
    while prod(primes) <= 2 * bound:
        primes.append(_prime(len(primes)))
    modulus = prod(primes)
    weights = [(modulus // p) * pow(modulus // p, -1, p) for p in primes]
    coeffs = []
    for residues in _charpoly_mod(matrix, primes).T.tolist():
        x = sum(r * wt for r, wt in zip(residues, weights)) % modulus
        coeffs.append(x - modulus if 2 * x > modulus else x)
    return coeffs


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


def _b_trace_stream(g: Graph, q: int) -> Iterator[int]:
    """Tr B_0, Tr B_1, ... without end.

    B_a B_b = B_{a+b} + q^b B_{a-b} for a >= b, and every B_k is
    symmetric, so
        Tr B_{2k}   = <B_k, B_k> - 2n q^k,
        Tr B_{2k+1} = <B_{k+1}, B_k> - q^k Tr A.
    The stream holds three matrices at a time and takes the kernel step
    to B_{k+1} only when it is resumed for Tr B_{2k+1}, so a consumer
    that stops after Tr B_m has paid ceil(m/2) - 1 steps.  _row_b_stream
    runs the same identities on the rows of one vertex.
    At q = 0 the recurrence gives B_m = A^m for m >= 1.
    """
    prev, cur = _identity_rows(g.n, 2), _adjacency_rows(g)
    tr_a = sum(nb.count(i) for i, nb in enumerate(g.neighbors))
    yield 2 * g.n
    qk = 1  # q^k while prev = B_k and cur = B_{k+1}
    while True:
        yield _frobenius(cur, prev) - qk * tr_a
        qk *= q
        yield _frobenius(cur, cur) - 2 * g.n * qk
        prev, cur = cur, _mul_adj(cur, prev, q, g.neighbors)


def _row_b_stream(quotient: RootedQuotient, q: int) -> Iterator[int]:
    """(B_0)_vv, (B_1)_vv, ... for the root v of quotient, from the rows r_k = e_v^T B_k held one entry per cell.

    (B_{2k})_vv = <r_k, r_k> - 2q^k and (B_{2k+1})_vv = <r_{k+1}, r_k> - q^k A_vv.
    r_k is constant on the cells of round k of the refinement, by
    induction: a cell of round k + 1 fixes its multiset of round-k
    neighbour cells, so the sum in r_{k+1} = r_k A - q r_{k-1}.  So a
    quotient `rounds` rounds deep carries r_0..r_rounds, one entry
    u_k[c] per cell, and the stream is exact through (B_{2 rounds})_vv,
    or throughout at the fixpoint; past that its items are wrong.  A
    step sums u_k over each cell's neighbour cells;
    <r_a, r_b> = sum_c size_c u_a[c] u_b[c].
    """
    cells, sizes, root = quotient.neighbours, quotient.sizes, quotient.root
    prev = [0] * len(cells)
    prev[root] = 2  # u_0
    yield 2
    cur = [nb.count(root) for nb in cells]  # u_1 counts v among the neighbours of each cell's first vertex
    a_vv = cur[root]
    qk = 1  # q^k while prev = u_k and cur = u_{k+1}
    while True:
        yield sum(map(mul, sizes, map(mul, cur, prev))) - qk * a_vv
        qk *= q
        yield sum(map(mul, sizes, map(mul, cur, cur))) - 2 * qk
        prev, cur = cur, _row_mul_adj(cur, prev, q, cells)


def _require_matrix_price(n: int, m_max: int) -> None:
    """Raise DepthExceeded when the matrix stream to Tr B_{m_max}, priced n^2 ceil(m_max/2), passes COST_CEILING."""
    price = n * n * -(-m_max // 2)
    if price > COST_CEILING:
        raise DepthExceeded(f"matrix trace sweep to m={m_max} costs {price:.2e}, over {COST_CEILING:.0e}")


def _b_traces(g: Graph, q: int, m_max: int, quotient: RootedQuotient | None = None) -> list[int]:
    """[Tr B_0..Tr B_{m_max}], or [(B_0)_vv..(B_{m_max})_vv] on a quotient rooted at v at least ceil(m_max/2) deep."""
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    if quotient is None:
        _require_matrix_price(g.n, m_max)
        stream = _b_trace_stream(g, q)
    else:
        stream = _row_b_stream(quotient, q)
    return list(islice(stream, m_max + 1))


def _pair_polynomial(chi: Sequence[int], q: int) -> list[int]:
    """x^n chi(x + q/x) = prod_lambda (x^2 - lambda x + q) for chi = prod_lambda (y - lambda), constant term first."""
    n = len(chi) - 1
    out = [0] * (2 * n + 1)
    power = [1]  # (x^2 + q)^k, coefficients of x^0, x^2, x^4, ...
    for k, c in enumerate(chi):
        # x^n y^k = x^(n-k) (x^2 + q)^k
        for j, b in enumerate(power):
            out[n - k + 2 * j] += c * b
        power = [q * a + b for a, b in zip(power + [0], [0] + power)]
    return out


def _power_sums(poly: Sequence[int]) -> Iterator[int]:
    """p_0, p_1, ... without end: the power sums of the roots of a monic integer polynomial.

    With r_i the coefficient of x^(deg - i) (r_0 = 1, r_i = 0 past deg),
    Newton's identities p_m = -m r_m - sum_{0<i<m} r_i p_{m-i} need no
    division, so every p_m is an exact integer.
    """
    deg = len(poly) - 1
    r = poly[::-1]
    sums = [deg]
    yield deg
    m = 1
    while True:
        # sums[m-1], sums[m-2], ... paired with r_1, r_2, ... up to r_{min(m-1, deg)}
        s = -sum(map(mul, r[1:m], reversed(sums[max(m - deg, 1) :])))
        if m <= deg:
            s -= m * r[m]
        sums.append(s)
        yield s
        m += 1


def _charpoly_trace_stream(g: Graph, q: int) -> Iterator[int] | None:
    """Tr B_0, Tr B_1, ... from the exact characteristic polynomial of A, or None when that is priced past COST_CEILING.

    B_m has the eigenvalues alpha^m + beta^m with alpha + beta = lambda
    and alpha beta = q for each eigenvalue lambda of A, so Tr B_m is the
    m-th power sum of the roots of x^n chi_A(x + q/x).  c_k is +- the sum
    of the C(n, k) principal k x k minors of A, and Hadamard's inequality
    bounds each by the product of its rows' lengths, at most r^k with
    r^2 = max_i sum_j a_ij^2 (r = sqrt(d) on a simple d-regular graph),
    so |c_k| <= C(n, k) r^k; chi_A must come out monic with chi_A(d) = 0
    for the largest degree d, since the degree is an eigenvalue of every
    regular graph, or the sweep raises ArithmeticError.
    """
    n, d = g.n, max(map(len, g.neighbors))
    if n**3 > COST_CEILING:  # one prime's work alone passes it
        return None
    a = g.as_numpy().astype(np.int64)
    r2 = int((a * a).sum(axis=1).max())
    bound = math.isqrt(max(comb(n, k) ** 2 * r2**k for k in range(n + 1))) + 1
    if _charpoly_price(n, bound) > COST_CEILING:
        return None
    chi = integer_charpoly(a, bound)
    if chi[-1] != 1 or sum(c * d**k for k, c in enumerate(chi)) != 0:
        raise ArithmeticError("charpoly of A fails monic or chi_A(degree) = 0")
    return _power_sums(_pair_polynomial(chi, q))


class TraceSweep:
    """One resumable sweep of Tr B_0, Tr B_1, ... on a (q+1)-regular graph.

    prefix(m) hands out [Tr B_0..Tr B_m].  It starts its stream at the
    first request and resumes it only past the longest prefix handed
    out so far, so any order of requests pays for the largest one once.
    Without a quotient it takes the full route: it reads the traces off
    chi_A, found exactly once at the first request
    (_charpoly_trace_stream), when its price is within COST_CEILING;
    past that it traces the matrix recurrence and refuses, with
    DepthExceeded and before any step, a request whose n^2 ceil(m/2)
    passes the same ceiling.  With a quotient rooted at v at its
    fixpoint (graphs.rooted_quotient) it sweeps row v, one entry per
    cell (_row_b_stream), and yields n (B_m)_vv, which is the trace only
    when every diagonal entry is the same, as on a Cayley graph.  The
    sweep does not check that: suite.SuiteContext hands it a quotient
    only on a graph that lps.cayley_root certifies.  The sweep holds its
    last two matrices (or two rows of one entry per cell), or the
    coefficients of x^n chi_A(x + q/x), until it is dropped.
    """

    def __init__(self, g: Graph, q: int, quotient: RootedQuotient | None = None):
        self.g = g
        self.q = q
        self.quotient = quotient
        self._scale = 1 if quotient is None else g.n
        self._stream: Iterator[int] | None = None
        self._matrices = False  # the full route streams matrices
        self._traces: list[int] = []

    def _start(self) -> Iterator[int]:
        if self.quotient is not None:
            return _row_b_stream(self.quotient, self.q)
        stream = _charpoly_trace_stream(self.g, self.q)
        if stream is None:
            self._matrices = True
            stream = _b_trace_stream(self.g, self.q)
        return stream

    def prefix(self, m_max: int) -> list[int]:
        if m_max < 0:
            raise ValueError("m_max must be nonnegative")
        more = m_max + 1 - len(self._traces)
        if more > 0:
            if self._stream is None:
                self._stream = self._start()
            if self._matrices:
                _require_matrix_price(self.g.n, m_max)
            self._traces.extend(self._scale * b for b in islice(self._stream, more))
        return self._traces[: m_max + 1]


def _sweep_for(g: Graph, q: int, method: str | None, sweep: TraceSweep | None) -> TraceSweep:
    """sweep, or a fresh one when it is None: the full route, or the row route at vertex 0 for method "row"."""
    if sweep is None:
        if method not in (None, "full", "row"):
            raise ValueError(f"unknown method {method!r}")
        return TraceSweep(g, q, rooted_quotient(g, 0) if method == "row" else None)
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
    """[f_0..f_{m_max}] with f_m = (A_m)_{vv}, via a single-row sweep on v's rooted quotient, ceil(m_max/2) rounds deep.

    A_m = T~_m - T~_{m-2}, and the diagonal of T~_m comes from that of B_m.
    Raises ValueError when v is not a vertex of g.
    """
    quotient = rooted_quotient(g, v, -(-m_max // 2))
    theta = _theta_from_b(_b_traces(g, cert.q, m_max, quotient), cert.q, 1)
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

    The traces come from sweep, or from a fresh one (_sweep_for) when
    sweep is None: the full route, or row 0's for method "row"; the
    test suite pins the two routes against each other.
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
    """Exact [Tr(T~_0)..Tr(T~_{m_max})], from sweep as in n_reduced_range; cert may be None then.

    With neither a cert nor a sweep, q is unknown: ValueError.
    """
    if cert is None and sweep is None:
        raise ValueError("t_tilde_traces needs a cert or a sweep to know q, got neither")
    q = sweep.q if cert is None else cert.q
    bs = _sweep_for(g, q, method, sweep).prefix(m_max)
    return _theta_from_b(bs, q, g.n)


def adjacency_power_traces(g: Graph, m_max: int, quotient: RootedQuotient | None = None) -> list[int]:
    """Exact [Tr(A^0)..Tr(A^{m_max})] for the plain adjacency powers.

    Tr A^{2k} = <A^k, A^k> and Tr A^{2k+1} = <A^{k+1}, A^k>: the q = 0
    case of the B_m sweep.  With a quotient rooted at v the sweep runs
    on row v, one entry per cell, and returns n (A^k)_vv, the trace only
    on a graph whose diagonal entries all agree, as on a Cayley graph.
    """
    scale = 1 if quotient is None else g.n
    return [g.n] + [scale * w for w in _b_traces(g, 0, m_max, quotient)[1:]]


# ---------------------------------------------------------------------------
# spectral float routes


def cheb_t_real(m: int, x: float) -> float:
    """T_m(x) for real x, stable on both |x| <= 1 and |x| > 1; OutOfRange past the float range."""
    if abs(x) <= 1.0:
        return math.cos(m * math.acos(x))
    s = -1.0 if (x < 0 and m % 2) else 1.0
    try:
        return s * math.cosh(m * math.acosh(abs(x)))
    except OverflowError:
        raise OutOfRange(f"T_{m}({x}) = cosh({m} acosh({abs(x)})) does not fit a float") from None


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
