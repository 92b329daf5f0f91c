"""Limit theorems, trace formula checks, and positivity sequences.

This module turns the asymptotic statements about regular graphs into
finite, falsifiable computations:

* Cesaro averages of powers of the bounded matrices a_m and s_m against
  their closed-form limits, with an O(1/N) rate band.
* The average of N_m / q^{m/2} against its main terms.
* The average of normalized cusp coefficients a(p^m)/(2 p^{m/2}).
* A Selberg-type trace formula for finite-support test functions, with
  its identity term in closed form (Ahumada, 1987; Terras, 2011).
* Huang's h_m = R_0 - R_m q^{-m/2}, the sum of 2 - 2 T_m(lambda / 2 sqrt q)
  over the nontrivial eigenvalues, nonnegative at even indices exactly
  when the graph is Ramanujan.

Rate bands compare |deviation| * N against 4 times an explicit
reference constant derived from the partial-sum bound
|sum_{m<=N} cos(m phi)| <= 1/|sin(phi/2)| + 1/2.  The reference
constant is what the proofs actually control; the observed max/min
ratio across horizons is reported as a diagnostic but oscillatory
near-zeros make it unusable as a pass/fail gate.

cesaro and the reference constants take spectral data only, as one
(theta, mult) array pair of the principal clusters (principal_angles).
cesaro reads cos(m theta) and sin((m+1) theta)/sin(theta) from the one
table its SpectralData keeps for the longest horizon asked
(principal_trig_table), so every (k, variant) pair of a check shares
it, and forms the k-th powers by repeated multiplication.  The N_m and
cusp constants add their terms in cluster order with the builtin sum,
so the average-nm and cusp metrics are bit for bit what a loop over the
clusters gives.  The reports that read exact counts (average_nm_sweep,
average_cusp_sweep, stf_verify, huang_range) take a suite.SuiteContext
and read the graph, certificate, spectrum, parameters and trace sweep
from it, so they run on the route the context's certificate picks and
have none of their own.  huang_range reads the exact remainders R_m,
Tr B_m less the trivial eigenvalues' share (SuiteContext.remainders).
stf_verify reads the residuals d_m = S_m - R_m q^{-m/2}
(SuiteContext.trace_residuals): the float spectral sum over the
nontrivial clusters less the exact R_m q^{-m/2} rounded once, the one
comparison that chebyshev makes too.

Their exact values in Q(sqrt q) are held as two integers over one
denominator, (a + b sqrt q) / D with D a power of q times a fixed
integer, so a running sum is integer additions with no gcd.
qext.nearest_float rounds each reported float once from the exact
value, and raises OutOfRange on a value past the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .chebyshev import central_binomial_weight, cos_power_as_cosines
from .errors import AngleConditionViolated, DegreeTooSmall, NotRamanujan
from .graphs import RegularityCertificate
from .nbt import cheb_t_real, n_reduced_range
from .qext import nearest_float
from .zeta import graded_float, normalized_cusp_terms

if TYPE_CHECKING:
    from .suite import SuiteContext


def quad(*args, **kwargs):
    """Forward to scipy.integrate.quad, importing scipy on the first call.

    Nothing in iharalab calls this.  Only the benchmark tracer
    (perfbench/spans.py) binds limits.quad, so the name stays a module
    global while scipy stays off the import path.  It goes when ROADMAP
    item 2 rewrites the tracer.
    """
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


# ---------------------------------------------------------------------------
# partial-sum bounds and reference constants


def cos_partial_sum_bound(phi):
    """Bound for |sum_{m=1}^{N} cos(m phi)|, uniform in N, for phi not in 2 pi Z; elementwise on arrays."""
    return 1.0 / np.abs(np.sin(phi / 2.0)) + 0.5


def shifted_cos_partial_sum_bound(phi):
    """Bound for |sum_{m=1}^{N} cos((m+1) phi)|, uniform in N; elementwise on arrays.

    The shift drops the m = 1 term from the full sum starting at 1, so
    the closed-form bound 1/|sin(phi/2)| picks up at most 1.
    """
    return 1.0 / np.abs(np.sin(phi / 2.0)) + 1.0


# the absolute tolerance on h theta mod 2 pi of the resonance test
ANGLE_TOL = 1e-9


def _harmonics(k: int) -> np.ndarray:
    """Rows h and w: the frequencies h > 0 of cos^k (cos_power_as_cosines) and their float weights."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return np.array([(h, w) for h, w in cos_power_as_cosines(k) if h], dtype=float).T


def angle_condition(sd, k: int) -> bool:
    """Check that no harmonic of a principal angle degenerates.

    The averaged quantity (1/N) sum cos^k(m theta) converges at rate 1/N
    only when (k-2j) theta stays off 2 pi Z for every frequency k-2j > 0
    appearing in the power expansion; a single resonant frequency
    contributes a non-vanishing constant and destroys the rate.  Angles
    are tested within ANGLE_TOL.
    """
    frac = np.outer(_harmonics(k)[0], sd.principal_angles()[0]) % (2.0 * math.pi)
    return not (np.minimum(frac, 2.0 * math.pi - frac) < ANGLE_TOL).any()


def require_ramanujan(sd) -> None:
    """Raise NotRamanujan unless all non-trivial eigenvalues are tempered."""
    q = sd.q
    root = 2.0 * math.sqrt(q)
    for cl in sd.singular():
        lam = cl.value
        near_trivial = abs(abs(lam) - (q + 1)) <= sd.cluster_tol
        near_root = abs(abs(lam) - root) <= sd.cluster_tol
        if not (near_trivial or near_root):
            raise NotRamanujan(f"eigenvalue {lam} violates |lambda| <= 2 sqrt(q)")


# ---------------------------------------------------------------------------
# Cesaro averages


@dataclass(frozen=True)
class CesaroReport:
    """Deviation-vs-horizon report for one Cesaro limit."""

    k: int
    variant: str
    N_values: tuple[int, ...]
    deviations: tuple[float, ...]
    rate_estimate: float | None
    limit_constant: Fraction
    reference_constant: float
    scaled_deviations: tuple[float, ...]


def _validate_horizons(horizons: Sequence[int]) -> list[int]:
    hs = list(horizons)
    if not hs or any(h < 1 for h in hs) or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("horizons must be a strictly increasing list of positive ints")
    return hs


def _rate_estimate(ns: list[int], devs: list[float]) -> float | None:
    if any(d <= 0.0 for d in devs) or len(ns) < 2:
        return None
    return float(np.polyfit(np.log(ns), np.log(devs), 1)[0])


def cesaro(sd, k: int, horizons: Sequence[int], variant: str) -> CesaroReport:
    """Cesaro average of a_m^k ("a") or s_m^k ("s") against e_k binom(k,k/2)/2^k sum P_l.

    The limit of s_m^k weights each P_l by sin(theta_l)^{-k}.  As the P_l
    are orthogonal idempotents, each cluster averages a scalar power, and
    the Frobenius deviation is sqrt(sum_l mult_l d_l^2).  The reference
    constant, the proofs' O(1/N) constant, bounds each d_l by sum_h w_h
    times the partial-sum bound at h theta_l over the frequencies h > 0 of
    cos^k.  The scalars cos(m theta_l) and sin((m+1) theta_l)/sin(theta_l)
    come from sd's one trig table (SpectralData.principal_trig_table), and
    their k-th powers are formed by repeated multiplication.  Raises
    AngleConditionViolated unless angle_condition holds.
    """
    if variant not in ("a", "s"):
        raise ValueError(f"unknown variant {variant!r}")
    if not angle_condition(sd, k):
        raise AngleConditionViolated(f"a principal angle resonates at moment order k={k}; the averaged limit fails")
    ns = _validate_horizons(horizons)
    theta, mult = sd.principal_angles()
    harmonics, weights = _harmonics(k)
    weight = central_binomial_weight(k)
    cos_m, u_m = sd.principal_trig_table(ns[-1])
    if variant == "a":
        base = cos_m
        target = float(weight)
        per = cos_partial_sum_bound(np.outer(theta, harmonics)) @ weights
    else:
        base = u_m
        sin_k = np.sin(theta) ** k
        target = float(weight) / sin_k
        per = shifted_cos_partial_sum_bound(np.outer(theta, harmonics)) @ weights / sin_k
    scal = base.copy()
    for _ in range(k - 1):
        scal *= base
    horizon = np.array(ns)
    d = np.cumsum(scal, axis=0, out=scal)[horizon - 1] / horizon[:, None] - target
    devs = np.sqrt((d * d) @ mult).tolist()
    return CesaroReport(
        k=k,
        variant=variant,
        N_values=tuple(ns),
        deviations=tuple(devs),
        rate_estimate=_rate_estimate(ns, devs),
        limit_constant=weight,
        reference_constant=math.sqrt(mult @ (per * per)),
        scaled_deviations=tuple(d * N for d, N in zip(devs, ns)),
    )


# ---------------------------------------------------------------------------
# averaged N_m asymptotics


@dataclass(frozen=True)
class AverageNmReport:
    N: int
    lhs: float
    main_terms: float
    residual: float
    scaled_residual: float
    reference_constant: float


def average_nm_reference(sd, cert: RegularityCertificate) -> float:
    """Bound for |residual| * N from the proofs' partial-sum estimates.

    The exact residual decomposes into principal Dirichlet-kernel sums
    (bounded by the cos partial-sum bound per eigenvalue), a geometric
    branch constant, and O(1) corrections of size n and 2 m(-2 sqrt q).
    Raises DegreeTooSmall at q < 2.
    """
    q = sd.q
    if q < 2:
        raise DegreeTooSmall(f"the main-term formula needs q >= 2, got q = {q}")
    theta, mult = sd.principal_angles()
    total = float(sum(2.0 * mult * cos_partial_sum_bound(theta)))
    rq = math.sqrt(q)
    if cert.bipartite:
        branch = 2.0 * (q + 1) / (q - 1)
    else:
        branch = (rq + 1.0) / (rq - 1.0)
    total += branch + sd.n + 2.0 * sd.multiplicity_at(-2.0 * rq)
    return total


def average_nm_sweep(ctx: SuiteContext, horizons: Sequence[int]) -> list[AverageNmReport]:
    """Average of N_m / q^{m/2} for m <= N against its main terms, at each horizon N.

    lhs and main terms are assembled exactly in Q(sqrt q); the two
    nearly cancel (both grow like q^{N/2}/N), so float subtraction of
    separately rounded sides would lose the O(1/N) residual entirely at
    realistic q and N.  Main terms follow the bipartite branch
    (1/N) 2 q^{floor(N/2)+1}/(q-1) or the non-bipartite branch
    (1/N) q^{(N+1)/2}/(sqrt q - 1), minus twice the multiplicity of
    2 sqrt q.  The N_m come from the context's one sweep.  One running
    sum to the largest horizon holds sum_{m<=N} N_m q^{-m/2} as
    (a + b sqrt q) / q^ceil(N/2) with integers a and b.  At each horizon
    the lhs, the main terms and the residual are integer pairs over
    N (q-1) q^ceil(N/2), and each reported float is rounded once from
    its exact value (nearest_float).
    """
    hs = _validate_horizons(horizons)
    if hs[0] < 2:
        raise ValueError("N must be at least 2")
    sd, cert = ctx.sd, ctx.cert
    require_ramanujan(sd)
    reference = average_nm_reference(sd, cert)
    q = cert.q
    counts = n_reduced_range(ctx.g, cert, hs[-1], sweep=ctx.sweep)
    twice_root = 2 * sd.multiplicity_at(2.0 * math.sqrt(q))
    a = b = m = 0
    reports = []
    for N in hs:
        for m in range(m + 1, N + 1):
            if m % 2:
                a, b = a * q, b * q + counts[m - 1]
            else:
                a += counts[m - 1]
        power = q ** ((N + 1) // 2)
        den = N * (q - 1) * power
        lhs_a, lhs_b = a * (q - 1), b * (q - 1)
        if cert.bipartite:
            main_a, main_b = 2 * q ** (N // 2 + 1) * power, 0
        elif N % 2:
            # q^{(N+1)/2} / (sqrt q - 1) = q^{(N+1)/2} (1 + sqrt q) / (q - 1)
            main_a = main_b = q ** ((N + 1) // 2) * power
        else:
            # q^{(N+1)/2} / (sqrt q - 1) = q^{N/2} (q + sqrt q) / (q - 1)
            main_a, main_b = q ** (N // 2 + 1) * power, q ** (N // 2) * power
        main_a -= twice_root * den
        residual = nearest_float(lhs_a - main_a, lhs_b - main_b, q, den)
        reports.append(
            AverageNmReport(
                N=N,
                lhs=nearest_float(lhs_a, lhs_b, q, den),
                main_terms=nearest_float(main_a, main_b, q, den),
                residual=residual,
                scaled_residual=residual * N,
                reference_constant=reference,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# averaged cusp coefficients


def cusp_term_bound(sd) -> float:
    """Spectral bound for each |a(p^m)|/(2 p^{m/2}): (1/n) sum mult/sin(theta)."""
    theta, mult = sd.principal_angles()
    return float(sum(mult / np.sin(theta))) / sd.n


def average_cusp_reference(sd) -> float:
    """Bound for |average| * N: shifted partial sums weighted by 1/sin(theta)."""
    theta, mult = sd.principal_angles()
    return float(sum(mult * shifted_cos_partial_sum_bound(theta) / np.sin(theta))) / sd.n


def average_cusp_sweep(ctx: SuiteContext, horizons: Sequence[int]) -> list[dict]:
    """Average of a(p^m)/(2 p^{m/2}) over m <= N at each horizon N, with its rate bound.

    One normalized_cusp_terms call, to the largest horizon M and from the
    context's sweep, serves every row.  Each term is an integer over
    2 n Q p^ceil(M/2), Q = q(q^2-1) (zeta.normalize_cusp), in its rational
    slot at even m and its sqrt(p) slot at odd m, so the running sum is
    two integers over that one denominator; each row reads it and one
    running max of the terms' floats (zeta.graded_float) at its horizon.
    A row carries N, the average (the float nearest the exact sum,
    divided by N), |average| * N (scaled_average), the reference constant
    the partial-sum bound gives for it, the spectral term bound and the
    largest |term| up to N.
    """
    hs = _validate_horizons(horizons)
    sd, params = ctx.sd, ctx.params
    normalized = normalized_cusp_terms(ctx.g, params, hs[-1], sweep=ctx.sweep)
    reference, bound = average_cusp_reference(sd), cusp_term_bound(sd)
    p, q = params.p, params.q
    den = 2 * ctx.g.n * q * (q * q - 1) * p ** ((hs[-1] + 1) // 2)
    a = b = m = 0
    max_term = 0.0
    rows = []
    for N in hs:
        for m in range(m + 1, N + 1):
            term = normalized[m]
            if m % 2:
                b += _numerator(term, den)
            else:
                a += _numerator(term, den)
            max_term = max(max_term, abs(graded_float(term, m, p)))
        average = nearest_float(a, b, p, den) / N
        rows.append(dict(N=N, average=average, scaled_average=abs(average) * N,
                         reference_constant=reference, term_bound=bound, max_term=max_term))
    return rows


def _numerator(x: Fraction, den: int) -> int:
    """x * den, for a Fraction x whose denominator divides den."""
    return x.numerator * (den // x.denominator) if x else 0


# ---------------------------------------------------------------------------
# trace formula


@dataclass(frozen=True)
class StfTestFunction:
    """Finite-support even test function h(theta) = hhat0 + sum 2 hhat(m) cos(m theta)."""

    hhat0: float = 0.0
    support: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        if any(m < 1 for m, _ in self.support):
            raise ValueError("support frequencies must be at least 1; hhat0 is the m = 0 coefficient")

    @classmethod
    def single(cls, m: int, value: float = 1.0) -> "StfTestFunction":
        return cls(hhat0=value) if m == 0 else cls(support=((m, value),))

    def max_frequency(self) -> int:
        return max((m for m, _ in self.support), default=0)

    def eval_x(self, x: float) -> float:
        """h at the angle with cos(theta) = x, via Chebyshev values.

        Valid for |x| > 1 too (complex theta), where cos(m theta)
        continues to T_m(x).
        """
        return self.hhat0 + sum(2.0 * v * cheb_t_real(m, x) for m, v in self.support)


def stf_verify(ctx: SuiteContext, h: StfTestFunction) -> tuple[float, float, float]:
    """Check the trace formula: spectral side vs. identity + cycle terms.

    lhs = sum_clusters mult * h(theta).  The geometric side is the
    identity term n (hhat0 + sum 2 hhat(m) I_m) plus
    sum_m N_m q^{-m/2} hhat(m), with N_m from the context's sweep.  I_m,
    the Fourier coefficients of the tree's Plancherel measure, are
    I_0 = 1, I_odd = 0 and I_2k = -(q-1)/(2 q^k) (Ahumada, 1987; Terras,
    Zeta Functions of Graphs, 2011), so the geometric side is
    n hhat0 + sum_m hhat(m) Tr B_m q^{-m/2}, Tr B_m = N_m - e_m (q-1) n.
    It is formed exactly as (a + b sqrt q) / (s q^ceil(m_max/2)), with
    integers a, b and s the common denominator of the hats, and rounded
    once (nearest_float).  Returns (lhs, geometric, |difference|).

    The difference is not lhs - geometric, whose float round-off would grow
    like q^{m/2} hhat(m).  Less the trivial clusters' terms and the identity
    and cycle terms, hhat0 cancels exactly and each frequency leaves
    hhat(m) d_m, with d_m = S_m - R_m q^{-m/2} the residual chebyshev
    compares too (SuiteContext.trace_residuals, on the same N_m).
    """
    g, q, m_max = ctx.g, ctx.cert.q, h.max_frequency()
    root = 2.0 * math.sqrt(q)
    lhs = sum(cl.mult * h.eval_x(cl.value / root) for cl in ctx.sd.clusters)
    counts = n_reduced_range(g, ctx.cert, m_max, sweep=ctx.sweep) if h.support else []
    residuals = ctx.trace_residuals(m_max)
    hats = [Fraction(h.hhat0)] + [Fraction(v) for _, v in h.support]
    scale = math.lcm(*(x.denominator for x in hats))
    top = (m_max + 1) // 2
    a, b = g.n * _numerator(hats[0], scale) * q**top, 0
    for (m, _), hat in zip(h.support, hats[1:]):
        trace = counts[m - 1] - (1 - m % 2) * (q - 1) * g.n
        term = _numerator(hat, scale) * trace * q ** (top - (m + 1) // 2)
        if m % 2:
            b += term
        else:
            a += term
    difference = sum((v * residuals[m] for m, v in h.support), 0.0)
    return lhs, nearest_float(a, b, q, scale * q**top), abs(difference)


# ---------------------------------------------------------------------------
# Huang's positivity sequence


def huang_range(ctx: SuiteContext, m_max: int) -> list[float]:
    """[h_1..h_{m_max}], h_m = R_0 - R_m q^{-m/2}, with R_m from SuiteContext.remainders.

    This is Huang's h_m = sum over the nontrivial eigenvalues of
    2 - 2 T_m(lambda / 2 sqrt q), one formula on bipartite and
    non-bipartite graphs.  It is formed exactly, as (R_0 q^c - R_m) / q^c
    at even m and (R_0 q^c - R_m sqrt q) / q^c at odd m with
    c = ceil(m/2), and rounded to a float once per m (nearest_float).
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    q = ctx.cert.q
    if q < 1:
        raise DegreeTooSmall(f"q^(-m/2) needs q >= 1, got q = {q}")
    r0, *rest = ctx.remainders(m_max)
    values = []
    for m, r in enumerate(rest, 1):
        power = q ** ((m + 1) // 2)
        a, b = (r0 * power, -r) if m % 2 else (r0 * power - r, 0)
        values.append(nearest_float(a, b, q, power))
    return values
