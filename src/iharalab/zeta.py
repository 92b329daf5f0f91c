"""Ihara zeta functions and the cusp-coefficient generating function.

The zeta function of a finite connected graph is determined by its
reduced-cycle counts, Z(u) = exp(sum_m N_m u^m / m), and equals the
reciprocal of (1-u^2)^{r-1} det(I - uA + u^2(D-I)) with r the first
Betti number.  Taking logarithms, N_m = p_m + 2(r-1)[m even], where
log det(I - uA + u^2(D-I)) = -sum_m p_m u^m / m.  determinant_power_sums
gives the integers p_m, from adjacency power traces on a regular graph
and from the charpoly of the 2n x 2n Bass matrix otherwise
(ihara_bass_reciprocal, by nbt.integer_charpoly, the modular layer it
shares with the trace sweep, which reduces every prime in one stacked
Hessenberg pass).  Pendant trees carry no reduced cycle, so that route
first prunes leaves down to the 2-core, a Schur complement that leaves
the determinant unchanged, and n, the Hadamard bound and the price are
the pruned graph's.  verify_ihara_bass compares the p_m with the
counts N_m, from the trace sweep on a regular graph and otherwise from
the oracle's meet-in-the-middle count of closed walks, which shares no
code with either determinant route; reciprocal_series exponentiates the
p_m into Z(u)^{-1}.
For LPS graphs it adds the Eisenstein/cusp split, the normalized cusp
terms a(p^m)/(2 p^{m/2}), and the generating function phi(t) of those
terms.  The split a(p^m) = 2 Tr T~_m / n - C(p^m) is formed in integers
over one denominator, (2Q Tr T~_m - 4 eps_m n S_m) / (nQ) with
Q = q(q^2-1), S_m = (p^{m+1}-1)/(p-1) and eps_m = 0 exactly when
(p/q) = -1 and m is odd.

The t^m coefficient of phi, and every number that forms it, lies in Q
at even m and in Q sqrt(p) at odd m, so it is held as one Fraction t_m,
its parity slot: the value is t_m sqrt(p)^{m mod 2}.  The normalized cusp term is
t_m = a(p^m)/(2 p^ceil(m/2)) (normalize_cusp), on every graph and at
every order, and graded_float rounds a slot's value to a float once.
phi comes two ways: as the sum of those terms, from the Tr T~_m sweep,
and as a closed form in the zeta log-derivative Z'/Z = sum N_m u^{m-1},
whose N_m come from the N_m sweep; past t^0 its braces are R_m p^{-m/2},
the slot R_m / p^ceil(m/2), with R_m from suite.SuiteContext.remainders.
Both are exact, and phi compares them slot by slot.  The closed form
does not re-derive N_m from the determinant: that the two agree is
what the ihara-bass check tests.  phi_closed_point evaluates the closed
form at a float point from the nontrivial eigenvalues alone, the
trivial ones' terms cancelling exactly.

The report functions (determinant_power_sums, reciprocal_series,
verify_ihara_bass, phi_series, phi_closed_point) take a
suite.SuiteContext and read the graph, certificate, spectrum (its
nontrivial clusters, for phi_closed_point), parameters and trace sweep
from it; the graph-level cusp coefficient functions take an optional
sweep, which the reports pass from the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import comb, isqrt, prod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidPrime, NotRegular
from .graphs import Graph, certify_regular
from .lps import LpsParams, is_prime, legendre_symbol
from .nbt import (
    TraceSweep,
    _power_sums,
    adjacency_power_traces,
    integer_charpoly,
    n_reduced_range,
    require_charpoly_price,
    t_tilde_traces,
)
from .oracle import closed_walk_counts
from .qext import nearest_float
from .series import TruncatedSeries, binomial_one_minus_u2

if TYPE_CHECKING:
    from .suite import SuiteContext


# ---------------------------------------------------------------------------
# Ihara-Bass determinant side

@dataclass(frozen=True)
class ZetaReciprocal:
    """Z(u)^{-1} in factored form: (1-u^2)^{betti_r - 1} * det_poly(u)."""

    betti_r: int
    det_coeffs: tuple[int, ...]


def _prune_leaves(g: Graph) -> list[int]:
    """The vertices left once degree-1 vertices are deleted, repeatedly, down to the 2-core or one vertex.

    A leaf v with neighbour w adds the row (1 at v, -u at w) to
    I - uA + u^2(D-I), and its Schur complement turns w's diagonal into
    that of degree d_w - 1, so pruning keeps the determinant in Z[u]:
    pendant trees carry no reduced cycle.
    """
    degree = [len(nb) for nb in g.neighbors]
    alive = [True] * g.n
    leaves = [v for v, d in enumerate(degree) if d == 1]
    left = g.n
    while leaves and left > 1:
        v = leaves.pop()
        alive[v] = False
        left -= 1
        (w,) = (w for w in g.neighbors[v] if alive[w])
        degree[w] -= 1
        if degree[w] == 1:
            leaves.append(w)
    return [v for v in range(g.n) if alive[v]]


def _adjacency_on(g: Graph, keep: list[int]) -> np.ndarray:
    """The int64 adjacency matrix of the subgraph of g on the vertices keep."""
    index = {v: i for i, v in enumerate(keep)}
    a = np.zeros((len(keep), len(keep)), dtype=np.int64)
    for i, v in enumerate(keep):
        for w in g.neighbors[v]:
            if w in index:
                a[i, index[w]] += 1
    return a


def _coefficient_bound(a: np.ndarray) -> int:
    """H >= |c_k| for det(I - uA + u^2(D-I)) = sum c_k u^k, D the row sums of the int64 adjacency matrix a.

    On |u| = 1 row i has squared norm at most N_i = (1 + a_ii + |d_i - 1|)^2
    + sum_{j != i} a_ij^2, so |det| <= sqrt(prod N_i) there (Hadamard),
    which bounds every c_k (Cauchy).
    """
    diag, degrees = np.diag(a), a.sum(axis=1)
    off = (a * a).sum(axis=1) - diag * diag
    norms = (1 + diag + np.abs(degrees - 1)) ** 2 + off
    return isqrt(prod(norms.tolist())) + 1


def ihara_bass_reciprocal(g: Graph) -> ZetaReciprocal:
    """Exact reciprocal zeta polynomial data for any connected graph.

    Pendant trees are pruned first (_prune_leaves), which leaves
    det(I - uA + u^2(D-I)) unchanged, so below A, D and n are those of
    the pruned graph.  For the Bass matrix L = [[A, I-D], [I, 0]] a
    Schur complement gives det(I - uA + u^2(D-I)) = det(I - uL), so c_k
    is the coefficient of x^{2n-k} in det(xI - L): nbt.integer_charpoly
    under the bound H of _coefficient_bound.  Raises DepthExceeded when
    the price of the 2n x 2n matrix passes nbt.COST_CEILING (on a 2-core
    of more than 500 vertices before any dense array is built), and
    ArithmeticError unless c_0 = 1, sum c_k = det(D - A) = 0 and
    c_{2n} = prod (d_i - 1).  Every pruned degree is at least 2, or 0 on
    a lone vertex, so c_{2n} is the nonzero leading coefficient.
    """
    keep = _prune_leaves(g)
    require_charpoly_price(2 * len(keep), 1)  # one prime's price
    a = _adjacency_on(g, keep)
    degrees = a.sum(axis=1)
    bound = _coefficient_bound(a)
    eye, zero = np.eye(len(keep), dtype=np.int64), np.zeros_like(a)
    bass = np.block([[a, np.diag(1 - degrees)], [eye, zero]])
    coeffs = integer_charpoly(bass, bound)[::-1]
    if coeffs[0] != 1 or sum(coeffs) != 0 or coeffs[-1] != prod((degrees - 1).tolist()):
        raise ArithmeticError("Bass charpoly fails c_0 = 1, P(1) = 0 or c_2n = prod(d_i - 1)")
    return ZetaReciprocal(betti_r=g.betti_number, det_coeffs=tuple(coeffs))


def determinant_power_sums(ctx: SuiteContext, order: int) -> list[int]:
    """[p_1..p_order]: log det(I - uA + u^2(D-I)) = -sum p_m u^m / m, exact integers.

    The one place that picks the determinant route.  On a (q+1)-regular
    graph det = prod_lambda (1 - lambda u + q u^2), so
    p_m = sum_{i <= m/2} (m/(m-i)) C(m-i, i) (-q)^i Tr A^{m-2i}, with
    Tr A^k from nbt.adjacency_power_traces on the context's route.  On
    any other graph p_m are Newton's power sums (nbt._power_sums) of the
    reversed ihara_bass_reciprocal polynomial, whose roots are the
    determinant's inverse roots.
    """
    try:
        q = ctx.cert.q
    except NotRegular:
        det_coeffs = ihara_bass_reciprocal(ctx.g).det_coeffs
        return list(islice(_power_sums(det_coeffs[::-1]), 1, order + 1))
    w = adjacency_power_traces(ctx.g, order, ctx.quotient)
    return [
        sum(m * comb(m - i, i) // (m - i) * (-q) ** i * w[m - 2 * i] for i in range(m // 2 + 1))
        for m in range(1, order + 1)
    ]


def reciprocal_series(ctx: SuiteContext, order: int) -> TruncatedSeries:
    """Z(u)^{-1} = (1 - u^2)^{r-1} exp(-sum p_m u^m / m) as an exact series, p_m from determinant_power_sums."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    log_det = [0] + [Fraction(-p, m) for m, p in enumerate(determinant_power_sums(ctx, order), 1)]
    det = TruncatedSeries.from_coeffs(log_det, order).exp()
    return binomial_one_minus_u2(ctx.g.betti_number - 1, order) * det


def verify_ihara_bass(ctx: SuiteContext, order: int = 10) -> int:
    """max over m <= order of |N_m - p_m - 2(r-1)[m even]|, an integer, 0 exactly when Ihara-Bass holds.

    That is log Z(u) = sum N_m u^m / m against the logarithm of
    (1 - u^2)^{r-1} det(I - uA + u^2(D-I)), p_m from determinant_power_sums.
    N_m comes from the context's B_m sweep (at q, against Tr A^k at 0),
    or, when that raises NotRegular, from oracle.closed_walk_counts over
    every vertex, which joins half-walks of length up to ceil(order/2)
    (against the Bass charpoly).  order < 1 raises ValueError.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    try:
        sweep = ctx.sweep
    except NotRegular:
        counts = closed_walk_counts(ctx.g, order, range(ctx.g.n))
    else:
        counts = n_reduced_range(ctx.g, ctx.cert, order, sweep=sweep)
    shift = 2 * (ctx.g.betti_number - 1)  # what (1 - u^2)^{r-1} adds to N_m at even m
    sums = determinant_power_sums(ctx, order)
    return max(abs(nm - p - (1 - m % 2) * shift) for m, (nm, p) in enumerate(zip(counts, sums), 1))


# ---------------------------------------------------------------------------
# Eisenstein and cusp coefficients for LPS graphs


def _lps_legendre(p: int, q: int) -> int:
    """(p/q) for distinct primes p, q; InvalidPrime otherwise."""
    if not is_prime(p) or not is_prime(q) or p == q:
        raise InvalidPrime(f"C(p^m) needs distinct primes p, q; got p = {p}, q = {q}")
    return legendre_symbol(p, q)


def eisenstein_C(p: int, q: int, m: int) -> Fraction:
    """Eisenstein-series Fourier coefficient C(p^m), exact.

    ((1 + (p/q)^m)/2) * (4/(q(q^2-1))) * ((p^{m+1}-1)/(p-1)), that is
    4 S_m / Q with Q = q(q^2-1) and S_m = (p^{m+1}-1)/(p-1), or 0 when
    (p/q) = -1 and m is odd.  The formula extends consistently to m = 0,
    where it produces 4/(q(q^2-1)), the value forced by the constant
    term of phi.
    """
    leg = _lps_legendre(p, q)
    if m < 0:
        raise ValueError("m must be nonnegative")
    if leg == -1 and m % 2 == 1:
        return Fraction(0)
    return Fraction(4 * ((p ** (m + 1) - 1) // (p - 1)), q * (q * q - 1))


def cusp_coefficients_range(
    g_lps: Graph, params: LpsParams, m_max: int, *, sweep: TraceSweep | None = None
) -> list[Fraction]:
    """[a(p^0), ..., a(p^{m_max})] from sweep, or from a fresh one (the one case that certifies).

    sweep=None takes the full n x n route even on X^{p,q} (minutes at
    n = 1092, 200 terms); SuiteContext(g_lps, params).sweep takes the row
    route when lps.cayley_root certifies the graph.
    a(p^m) = 2 Tr T~_m / n - C(p^m), with C(p^m) = eisenstein_C(p, q, m),
    formed in integers over one denominator:

        a(p^m) = (2Q Tr T~_m - 4 eps_m n S_m) / (nQ)

    with Q = q(q^2-1), S_m = (p^{m+1}-1)/(p-1) (kept as a running sum)
    and eps_m = 0 when (p/q) = -1 and m is odd, 1 otherwise.
    """
    p, q, n = params.p, params.q, g_lps.n
    leg = _lps_legendre(p, q)
    cert = certify_regular(g_lps) if sweep is None else None
    tts = t_tilde_traces(g_lps, cert, m_max, sweep=sweep)
    big_q = q * (q * q - 1)
    out = []
    s = 1  # S_m = 1 + p + ... + p^m
    for m in range(m_max + 1):
        eis = 0 if leg == -1 and m % 2 == 1 else 4 * n * s
        out.append(Fraction(2 * big_q * tts[m] - eis, n * big_q))
        s = s * p + 1
    return out


def normalized_cusp_terms(
    g_lps: Graph, params: LpsParams, m_max: int, *, sweep: TraceSweep | None = None
) -> list[Fraction]:
    """[t_0, ..., t_{m_max}], a(p^m)/(2 p^{m/2}) = t_m sqrt(p)^{m mod 2}, from the traces of sweep.

    normalize_cusp of cusp_coefficients_range: sweep=None takes the full
    route, SuiteContext(g_lps, params).sweep the row route.
    """
    return normalize_cusp(cusp_coefficients_range(g_lps, params, m_max, sweep=sweep), params.p)


def normalize_cusp(amounts: Sequence[Fraction], p: int) -> list[Fraction]:
    """The parity slots t_m of a(p^m)/(2 p^{m/2}), m = 0, 1, ..., from the cusp coefficients amounts = [a(p^m)].

    The one place these terms are formed: t_m = a/(2 p^ceil(m/2)), one
    Fraction, whose value is t_m at even m and t_m sqrt(p) at odd m,
    since a/(2 p^{m/2}) = (a/(2 p^{(m+1)/2})) sqrt(p) there
    (graded_float).  The odd t_m vanish on bipartite LPS graphs.
    """
    terms = []
    scale = 2  # 2 p^ceil(m/2)
    for m, a in enumerate(amounts):
        if m % 2 == 1:
            scale *= p
        terms.append(Fraction(a.numerator, a.denominator * scale))
    return terms


def graded_float(t: Fraction, m: int, p: int) -> float:
    """The float nearest t sqrt(p)^{m mod 2}, the value the parity slot t holds at index m, rounded once (nearest_float)."""
    a, b = (0, t.numerator) if m % 2 else (t.numerator, 0)
    return nearest_float(a, b, p, t.denominator)


def phi_series(ctx: SuiteContext, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The generating function phi(t) = sum a(p^m)/(2 p^{m/2}) t^m, two ways, in parity slots.

    Returns (spectral, closed_form) truncated series whose coefficient
    at t^m is the Fraction t_m of the value t_m sqrt(p)^{m mod 2}
    (graded_float).  The spectral side is normalized_cusp_terms, from
    the Tr T~_m sweep and the Eisenstein coefficients.  The closed form is

        phi(t) = (1/(n(1-t^2))) * { l + (t/sqrt p)(Z'/Z)(t/sqrt p)
                                    - (p-1) n t^2/(p - t^2) + t*F(t) }

    with F(t) = -2pt/(1-pt^2) - 2p^{-1}t/(1-p^{-1}t^2) in the bipartite
    case and F(t) = -sqrt(p)/(1-sqrt(p)t) - p^{-1/2}/(1-p^{-1/2}t)
    otherwise, l the number of tempered eigenvalues of the context's
    spectrum with multiplicity, and Z'/Z = sum N_m u^{m-1}.  At t^m,
    m >= 1, the three other terms give N_m p^{-m/2}, -e_m (p-1) n p^{-m/2}
    (together Tr B_m p^{-m/2}) and -(p^m + 1)(1 + (-1)^m [bipartite]) p^{-m/2},
    the trivial eigenvalues' share, so the braces are
    [l, R_1 p^{-1/2}, R_2 p^{-1}, ...], the slots R_m / p^ceil(m/2), with
    R_m from suite.SuiteContext.remainders.  Its N_m come from the exact
    sweep n_reduced_range (the ihara-bass check tests that these N_m
    give the determinant form).  Both sides read the context's Tr B_m
    sweep, and every coefficient of both is a Fraction.
    """
    p, n = ctx.params.p, ctx.g.n
    spectral = normalized_cusp_terms(ctx.g, ctx.params, order, sweep=ctx.sweep)
    remainders = ctx.remainders(order)
    braces = [Fraction(sum(cl.mult for cl in ctx.sd.principal()))]
    braces += [Fraction(remainders[m], p ** ((m + 1) // 2)) for m in range(1, order + 1)]
    # divide by n(1 - t^2): phi_m = (1/n) sum_j braces[m - 2j], slots of one parity
    closed = [sum(braces[m::-2]) / n for m in range(order + 1)]
    return (
        TruncatedSeries.from_coeffs(spectral, order),
        TruncatedSeries.from_coeffs(closed, order),
    )


def phi_closed_point(ctx: SuiteContext, t: float) -> float:
    """Evaluate the closed form of phi at a real point t, |t| < 1.

    With u = t/sqrt p it is (1/n) times the sum over
    ctx.nontrivial_clusters() of

        mult / (1 - lambda u + p u^2)                          (tempered lambda)
        mult u (lambda - 2pu) / ((1 - t^2)(1 - lambda u + p u^2))     (any other)

    In phi_series' closed form, the Betti term (p-1) n u^2/(1-u^2) of
    u (Z'/Z)(u) and the trivial eigenvalues' terms cancel
    -(p-1) n t^2/(p - t^2) + t F(t) exactly, and a tempered cluster's
    term absorbs its share of l: 1 + u(lambda - 2pu)/(1 - lambda u + p u^2)
    = (1 - t^2)/(1 - lambda u + p u^2).  No two O(n) sums cancel, so the
    value keeps its relative accuracy as t -> 1.
    """
    p = ctx.params.p
    u = t / p**0.5
    total = 0.0
    for cl, mult in ctx.nontrivial_clusters():
        lam = cl.value
        denom = 1.0 - lam * u + p * u * u
        if cl.principal:
            total += mult / denom
        else:
            # 1 - t is exact for t in [1/2, 1], unlike 1 - t * t
            total += mult * u * (lam - 2.0 * p * u) / ((1.0 - t) * (1.0 + t) * denom)
    return total / ctx.g.n
