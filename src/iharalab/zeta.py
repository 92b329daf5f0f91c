"""Ihara zeta functions and the cusp-coefficient generating function.

The zeta function of a finite connected graph is determined by its
reduced-cycle counts, Z(u) = exp(sum_m N_m u^m / m), and equals the
reciprocal of (1-u^2)^{r-1} det(I - uA + u^2(D-I)) with r the first
Betti number.  This module computes both sides exactly (the determinant
as the charpoly of the 2n x 2n Bass matrix by nbt.integer_charpoly, the
modular layer it shares with the trace sweep, or as a power-sum series
on regular graphs); verify_ihara_bass compares them.
For LPS graphs it adds the Eisenstein/cusp split, the normalized cusp
terms a(p^m)/(2 p^{m/2}), and the generating function phi(t) of those
terms two ways: as their sum, from the Tr T~_m sweep, and as a closed
form in the zeta log-derivative Z'/Z = sum N_m u^{m-1}, whose N_m come
from the N_m sweep; past t^0 its braces are R_m p^{-m/2}, with R_m from
suite.SuiteContext.remainders.  Both are exact in Q(sqrt p), and phi
compares them exactly.  The closed form does not re-derive N_m from the
determinant: that the two agree is what the ihara-bass check tests.
phi_closed_point evaluates the closed form at a float point from the
nontrivial eigenvalues alone, the trivial ones' terms cancelling exactly.

The report functions (det_series_regular, reciprocal_series_regular,
verify_ihara_bass, phi_series, phi_closed_point) take a
suite.SuiteContext and read the graph, certificate, spectrum (its
nontrivial clusters, for phi_closed_point), parameters and trace sweep
from it; the graph-level cusp coefficient functions take an optional
sweep, which the reports pass from the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt, prod
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidPrime, NotRegular
from .graphs import Graph, _edges_canonical, certify_regular
from .lps import LpsParams, is_prime, legendre_symbol
from .nbt import (
    TraceSweep,
    adjacency_power_traces,
    integer_charpoly,
    n_reduced_range,
    require_charpoly_price,
    t_tilde_traces,
)
from .oracle import reduced_walks
from .qext import SqrtExt, half_power
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

    def series(self, order: int) -> TruncatedSeries:
        det = TruncatedSeries.from_coeffs(list(self.det_coeffs), order)
        return binomial_one_minus_u2(self.betti_r - 1, order) * det

    def zeta_series(self, order: int) -> TruncatedSeries:
        return self.series(order).inverse()


def _coefficient_bound(g: Graph, degrees: list[int]) -> int:
    """H >= |c_k| for det(I - uA + u^2(D-I)) = sum c_k u^k.

    On |u| = 1 row i has squared norm at most N_i = (1 + a_ii + |d_i - 1|)^2
    + sum_{j != i} a_ij^2, so |det| <= sqrt(prod N_i) there (Hadamard),
    which bounds every c_k (Cauchy).
    """
    diag = [0] * g.n
    off = [0] * g.n  # sum_{j != i} a_ij^2
    for i, j, c in _edges_canonical(g):
        if i == j:
            diag[i] = 2 * c
        else:
            off[i] += c * c
            off[j] += c * c
    return isqrt(prod((1 + a + abs(d - 1)) ** 2 + s for a, s, d in zip(diag, off, degrees))) + 1


def ihara_bass_reciprocal(g: Graph) -> ZetaReciprocal:
    """Exact reciprocal zeta polynomial data for any connected graph.

    For the Bass matrix L = [[A, I-D], [I, 0]] a Schur complement gives
    det(I - uA + u^2(D-I)) = det(I - uL), so c_k is the coefficient of
    x^{2n-k} in det(xI - L): nbt.integer_charpoly under the bound H of
    _coefficient_bound.  Raises DepthExceeded past nbt.COST_CEILING,
    before L is built, and ArithmeticError unless c_0 = 1,
    sum c_k = det(D - A) = 0 and c_{2n} = prod (d_i - 1).
    """
    n = g.n
    degrees = [g.degree(v) for v in range(n)]
    bound = _coefficient_bound(g, degrees)
    require_charpoly_price(2 * n, bound)
    a = g.as_numpy().astype(np.int64)
    eye, zero = np.eye(n, dtype=np.int64), np.zeros_like(a)
    bass = np.block([[a, np.diag([1 - d for d in degrees])], [eye, zero]])
    coeffs = integer_charpoly(bass, bound)[::-1]
    if coeffs[0] != 1 or sum(coeffs) != 0 or coeffs[-1] != prod(d - 1 for d in degrees):
        raise ArithmeticError("Bass charpoly fails c_0 = 1, P(1) = 0 or c_2n = prod(d_i - 1)")
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return ZetaReciprocal(betti_r=g.edge_count - n + 1, det_coeffs=tuple(coeffs))


def det_series_regular(ctx: SuiteContext, order: int) -> TruncatedSeries:
    """det(I - uA + q u^2 I) as an exact series, via power-sum traces.

    log det(I - X) = -sum_j Tr(X^j)/j with X = uA - qu^2 I; Tr(X^j)
    expands over adjacency power traces, which come from row e of the
    context's rooted quotient when it has one
    (nbt.adjacency_power_traces).  This route never builds the
    degree-2n polynomial, so its cost follows the order asked for, not
    n.  Raises NotRegular on an irregular graph.
    """
    q = ctx.cert.q
    w = adjacency_power_traces(ctx.g, order, ctx.quotient)
    log_coeffs = [Fraction(0)] * (order + 1)
    for j in range(1, order + 1):
        for i in range(j + 1):
            k = j + i
            if k > order:
                break
            term = comb(j, i) * (-q) ** i * w[j - i]
            log_coeffs[k] -= Fraction(term, j)
    return TruncatedSeries.from_coeffs(log_coeffs, order).exp()


def reciprocal_series_regular(ctx: SuiteContext, order: int) -> TruncatedSeries:
    """Z(u)^{-1} as an exact series for a regular graph, power-sum route (det_series_regular)."""
    betti_r = ctx.g.edge_count - ctx.g.n + 1
    return binomial_one_minus_u2(betti_r - 1, order) * det_series_regular(ctx, order)


def zeta_series_from_counts(counts: list[int], order: int | None = None) -> TruncatedSeries:
    """Z(u) = exp(sum N_m u^m / m) from exact reduced-cycle counts N_1..N_M."""
    if order is None:
        order = len(counts)
    log_coeffs = [Fraction(0)]
    for m, nm in enumerate(counts[:order], start=1):
        log_coeffs.append(Fraction(nm, m))
    return TruncatedSeries.from_coeffs(log_coeffs, order).exp()


def verify_ihara_bass(ctx: SuiteContext, order: int = 10) -> Fraction:
    """Max |coefficient difference| between the two exact zeta routes.

    On a regular graph the counts come from the context's B_m trace
    sweep and the determinant form from the power-sum series, whose
    Tr A^k come from a sweep at q = 0 of its own on the context's route:
    n times the root row's diagonal entries on a certified X^{p,q},
    the full matrices otherwise.  The two sides stay independent
    recurrences, at q and at 0.  When the context's sweep raises
    NotRegular, the counts come from the brute-force walk oracle and
    the determinant from the Bass-matrix charpoly.  Exact zero expected; order < 1 raises ValueError.
    """
    if order < 1:
        raise ValueError(f"order must be at least 1, got {order}")
    try:
        sweep = ctx.sweep
    except NotRegular:
        walks = reduced_walks(ctx.g, order, range(ctx.g.n))
        counts = [sum(col) for col in zip(*(closed for closed, _ in walks))]
        from_bass = ihara_bass_reciprocal(ctx.g).zeta_series(order)
    else:
        counts = n_reduced_range(ctx.g, ctx.cert, order, sweep=sweep)
        from_bass = reciprocal_series_regular(ctx, order).inverse()
    from_counts = zeta_series_from_counts(counts, order)
    return max(abs(a - b) for a, b in zip(from_counts.coeffs, from_bass.coeffs))


# ---------------------------------------------------------------------------
# Eisenstein and cusp coefficients for LPS graphs


def eisenstein_C(p: int, q: int, m: int) -> Fraction:
    """Eisenstein-series Fourier coefficient C(p^m), exact.

    ((1 + (p/q)^m)/2) * (4/(q(q^2-1))) * ((p^{m+1}-1)/(p-1)).  The
    formula extends consistently to m = 0, where it produces 4/(q(q^2-1)),
    the value forced by the constant term of phi.
    """
    if not is_prime(p) or not is_prime(q) or p == q:
        raise InvalidPrime("eisenstein_C needs distinct primes p, q")
    if m < 0:
        raise ValueError("m must be nonnegative")
    leg = legendre_symbol(p, q)
    first = Fraction(1 + leg**m, 2) if leg != 1 else Fraction(1)
    if leg == -1 and m % 2 == 1:
        return Fraction(0)
    geom = Fraction(p ** (m + 1) - 1, p - 1)
    return first * Fraction(4, q * (q * q - 1)) * geom


def cusp_coefficients_range(
    g_lps: Graph, params: LpsParams, m_max: int, *, sweep: TraceSweep | None = None
) -> list[Fraction]:
    """[a(p^0), ..., a(p^{m_max})] from sweep, or from a fresh one (the one case that certifies)."""
    cert = certify_regular(g_lps) if sweep is None else None
    tts = t_tilde_traces(g_lps, cert, m_max, sweep=sweep)
    return [
        Fraction(2 * tts[m], g_lps.n) - eisenstein_C(params.p, params.q, m)
        for m in range(m_max + 1)
    ]


def normalized_cusp_terms(
    g_lps: Graph, params: LpsParams, m_max: int, *, sweep: TraceSweep | None = None
) -> list:
    """[a(p^m)/(2 p^{m/2}) for m = 0..m_max], exact in Q(sqrt p), from the traces of sweep.

    normalize_cusp of cusp_coefficients_range (a fresh sweep when None).
    """
    return normalize_cusp(cusp_coefficients_range(g_lps, params, m_max, sweep=sweep), params.p)


def normalize_cusp(amounts: Sequence[Fraction], p: int) -> list:
    """[a(p^m)/(2 p^{m/2}) for m = 0, 1, ...] from the cusp coefficients amounts = [a(p^m)].

    The one place these terms are formed, exact in Q(sqrt p).  Fractions
    when every term is rational, as on bipartite LPS graphs, where the
    odd-m terms vanish; SqrtExt values otherwise, because odd-m terms of
    non-bipartite graphs carry sqrt(p).
    """
    return _rational_if_possible(
        [half_power(p, -m) * (Fraction(a) / 2) for m, a in enumerate(amounts)]
    )


def _rational_if_possible(values: list[SqrtExt]) -> list:
    """The rational parts as Fractions when every value is rational, else the values."""
    if all(v.is_rational() for v in values):
        return [v.rational_part() for v in values]
    return values


def phi_series(ctx: SuiteContext, order: int) -> tuple[TruncatedSeries, TruncatedSeries]:
    """The generating function phi(t) = sum a(p^m)/(2 p^{m/2}) t^m, two ways.

    Returns (spectral, closed_form) truncated series.  The spectral side
    is normalized_cusp_terms, from the Tr T~_m sweep and the Eisenstein
    coefficients.  The closed form is

        phi(t) = (1/(n(1-t^2))) * { l + (t/sqrt p)(Z'/Z)(t/sqrt p)
                                    - (p-1) n t^2/(p - t^2) + t*F(t) }

    with F(t) = -2pt/(1-pt^2) - 2p^{-1}t/(1-p^{-1}t^2) in the bipartite
    case and F(t) = -sqrt(p)/(1-sqrt(p)t) - p^{-1/2}/(1-p^{-1/2}t)
    otherwise, l the number of tempered eigenvalues of the context's
    spectrum with multiplicity, and Z'/Z = sum N_m u^{m-1}.  At t^m,
    m >= 1, the three other terms give N_m p^{-m/2}, -e_m (p-1) n p^{-m/2}
    (together Tr B_m p^{-m/2}) and -(p^m + 1)(1 + (-1)^m [bipartite]) p^{-m/2},
    the trivial eigenvalues' share, so the braces are
    [l, R_1 p^{-1/2}, R_2 p^{-1}, ...] with R_m from
    suite.SuiteContext.remainders.  Its N_m come from the exact sweep
    n_reduced_range (the ihara-bass check tests that these N_m give the
    determinant form).  Both sides read the context's Tr B_m sweep, and
    their coefficients are exact in Q(sqrt p): Fractions when every
    irrational part vanishes (always, for bipartite X^{p,q}), SqrtExt
    values otherwise.
    """
    p, n = ctx.params.p, ctx.g.n
    spectral = normalized_cusp_terms(ctx.g, ctx.params, order, sweep=ctx.sweep)
    remainders = ctx.remainders(order)
    zero = SqrtExt.of(p, 0)
    braces = [zero + sum(cl.mult for cl in ctx.sd.principal())]
    braces += [remainders[m] * half_power(p, -m) for m in range(1, order + 1)]
    # divide by n(1 - t^2): phi_m = (1/n) sum_j braces[m - 2j]
    closed = [sum(braces[m::-2], zero) / n for m in range(order + 1)]
    return (
        TruncatedSeries.from_coeffs(spectral, order),
        TruncatedSeries.from_coeffs(_rational_if_possible(closed), order),
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
