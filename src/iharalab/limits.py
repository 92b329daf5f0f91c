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

The Cesaro functions and the reference constants take spectral data
only.  The reports that read exact counts (average_nm, the two sweeps,
stf_verify, huang_range) take a suite.SuiteContext and read the graph,
certificate, spectrum, parameters and trace sweep from it, so they run
on the route the context's certificate picks and have none of their own.
stf_verify and huang_range take the trivial eigenvalues +-(q+1) out through
it too (SuiteContext.remainders and nontrivial_chebyshev_sums).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .chebyshev import central_binomial_weight, cos_power_as_cosines
from .errors import AngleConditionViolated, NotRamanujan
from .graphs import RegularityCertificate
from .nbt import cheb_t_real, n_reduced_range
from .qext import SqrtExt, half_power
from .zeta import normalized_cusp_terms

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


def cos_partial_sum_bound(phi: float) -> float:
    """Bound for |sum_{m=1}^{N} cos(m phi)|, uniform in N, for phi not in 2 pi Z."""
    return 1.0 / abs(math.sin(phi / 2.0)) + 0.5


def shifted_cos_partial_sum_bound(phi: float) -> float:
    """Bound for |sum_{m=1}^{N} cos((m+1) phi)|, uniform in N.

    The shift drops the m = 1 term from the full sum starting at 1, so
    the closed-form bound 1/|sin(phi/2)| picks up at most 1.
    """
    return 1.0 / abs(math.sin(phi / 2.0)) + 1.0


def angle_condition(sd, k: int, tol: float = 1e-9) -> bool:
    """Check that no harmonic of a principal angle degenerates.

    The averaged quantity (1/N) sum cos^k(m theta) converges at rate 1/N
    only when (k-2j) theta stays off 2 pi Z for every frequency k-2j > 0
    appearing in the power expansion; a single resonant frequency
    contributes a non-vanishing constant and destroys the rate.  Angles
    are tested within the given absolute tolerance.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    harmonics = [h for h, _ in cos_power_as_cosines(k) if h]
    for cl in sd.principal():
        th = cl.theta.real
        for h in harmonics:
            frac = (h * th) % (2.0 * math.pi)
            if min(frac, 2.0 * math.pi - frac) < tol:
                return False
    return True


def cesaro_reference(sd, k: int, variant: str) -> float:
    """Explicit O(1/N) constant for the Cesaro deviation, from the proofs.

    For each principal cluster the deviation of the scalar average is at
    most (1/N) * sum over frequencies of weight * partial-sum bound; the
    Euclidean matrix norm then aggregates with sqrt(multiplicity).
    Infinite when the angle condition fails, which is exactly when no
    finite constant exists.
    """
    if not angle_condition(sd, k):
        return math.inf
    total = 0.0
    for cl in sd.principal():
        th = cl.theta.real
        per = 0.0
        for h, w in cos_power_as_cosines(k):
            if h == 0:
                continue
            if variant == "a":
                per += float(w) * cos_partial_sum_bound(h * th)
            elif variant == "s":
                per += float(w) * shifted_cos_partial_sum_bound(h * th) / math.sin(th) ** k
            else:
                raise ValueError(f"unknown variant {variant!r}")
        total += cl.mult * per * per
    return math.sqrt(total)


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
    scaled_deviations: tuple[float, ...] = field(default=())


def _validate_horizons(horizons: Sequence[int]) -> list[int]:
    hs = list(horizons)
    if not hs or any(h < 1 for h in hs) or any(b <= a for a, b in zip(hs, hs[1:])):
        raise ValueError("horizons must be a strictly increasing list of positive ints")
    return hs


def _rate_estimate(ns: list[int], devs: list[float]) -> float | None:
    if any(d <= 0.0 for d in devs) or len(ns) < 2:
        return None
    xs = np.log(np.array(ns, dtype=float))
    ys = np.log(np.array(devs, dtype=float))
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)


def _cesaro_run(sd, k: int, horizons: Sequence[int], variant: str) -> CesaroReport:
    if not angle_condition(sd, k):
        raise AngleConditionViolated(
            f"a principal angle resonates at moment order k={k}; the averaged limit fails"
        )
    ns = _validate_horizons(horizons)
    n_max = ns[-1]
    weight = central_binomial_weight(k)
    devs = []
    principal = sd.principal()
    # per-cluster scalar averages; the matrix deviation follows because the
    # eigenvector blocks are orthonormal and mutually orthogonal:
    # ||sum_l d_l V_l V_l^T||_F = sqrt(sum_l mult_l * d_l^2)
    cums = []
    targets = []
    for cl in principal:
        th = cl.theta.real
        m = np.arange(1, n_max + 1, dtype=float)
        if variant == "a":
            scal = np.cos(m * th) ** k
            target = float(weight)
        else:
            scal = (np.sin((m + 1) * th) / math.sin(th)) ** k
            target = float(weight) / math.sin(th) ** k
        cums.append(np.cumsum(scal))
        targets.append(target)
    for N in ns:
        acc = 0.0
        for cl, cum, target in zip(principal, cums, targets):
            d = cum[N - 1] / N - target
            acc += cl.mult * d * d
        devs.append(math.sqrt(acc))
    return CesaroReport(
        k=k,
        variant=variant,
        N_values=tuple(ns),
        deviations=tuple(devs),
        rate_estimate=_rate_estimate(ns, devs),
        limit_constant=weight,
        reference_constant=cesaro_reference(sd, k, variant),
        scaled_deviations=tuple(d * N for d, N in zip(devs, ns)),
    )


def cesaro_a(sd, k: int, horizons: Sequence[int]) -> CesaroReport:
    """Cesaro average of a_m^k against (e_k binom(k,k/2)/2^k) sum P_lambda."""
    return _cesaro_run(sd, k, horizons, "a")


def cesaro_s(sd, k: int, horizons: Sequence[int]) -> CesaroReport:
    """Cesaro average of s_m^k against the sin^{-k}-weighted limit."""
    return _cesaro_run(sd, k, horizons, "s")


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
    """
    q = sd.q
    if q < 2:
        raise ValueError("main-term formula needs q >= 2")
    total = 0.0
    for cl in sd.principal():
        total += 2.0 * cl.mult * cos_partial_sum_bound(cl.theta.real)
    rq = math.sqrt(q)
    if cert.bipartite:
        branch = 2.0 * (q + 1) / (q - 1)
    else:
        branch = (rq + 1.0) / (rq - 1.0)
    total += branch + sd.n + 2.0 * sd.multiplicity_at(-2.0 * rq)
    return total


def average_nm(ctx: SuiteContext, N: int) -> AverageNmReport:
    """Average of N_m / q^{m/2} for m <= N against its main terms.

    lhs and main terms are assembled exactly in Q(sqrt q); the two
    nearly cancel (both grow like q^{N/2}/N), so float subtraction of
    separately rounded sides would lose the O(1/N) residual entirely at
    realistic q and N.  Main terms follow the bipartite branch
    (1/N) 2 q^{floor(N/2)+1}/(q-1) or the non-bipartite branch
    (1/N) q^{(N+1)/2}/(sqrt q - 1), minus twice the multiplicity of
    2 sqrt q.
    """
    return average_nm_sweep(ctx, [N])[0]


def average_nm_sweep(ctx: SuiteContext, horizons: Sequence[int]) -> list[AverageNmReport]:
    """average_nm at several horizons, from one running sum of N_m q^{-m/2} to the largest.

    The N_m come from the context's one sweep; each report reads the
    exact sum's prefix at its horizon.
    """
    hs = _validate_horizons(horizons)
    if hs[0] < 2:
        raise ValueError("N must be at least 2")
    sd, cert = ctx.sd, ctx.cert
    require_ramanujan(sd)
    reference = average_nm_reference(sd, cert)  # raises unless q >= 2
    q = cert.q
    counts = n_reduced_range(ctx.g, cert, hs[-1], sweep=ctx.sweep)
    m_pos_root = sd.multiplicity_at(2.0 * math.sqrt(q))
    total = SqrtExt.of(q, 0)
    m = 0
    reports = []
    for N in hs:
        for m in range(m + 1, N + 1):
            nm = counts[m - 1]
            if nm:
                total = total + nm * half_power(q, -m)
        lhs = total / N
        if cert.bipartite:
            main = SqrtExt.of(q, Fraction(2 * q ** (N // 2 + 1), q - 1)) / N
        else:
            main = half_power(q, N + 1) / SqrtExt.of(q, -1, 1) / N
        main = main - 2 * m_pos_root
        residual = lhs - main
        reports.append(
            AverageNmReport(
                N=N,
                lhs=float(lhs),
                main_terms=float(main),
                residual=float(residual),
                scaled_residual=float(residual) * N,
                reference_constant=reference,
            )
        )
    return reports


# ---------------------------------------------------------------------------
# averaged cusp coefficients


def cusp_term_bound(sd) -> float:
    """Spectral bound for each |a(p^m)|/(2 p^{m/2}): (1/n) sum mult/sin(theta)."""
    total = 0.0
    for cl in sd.principal():
        total += cl.mult / math.sin(cl.theta.real)
    return total / sd.n


def average_cusp_reference(sd) -> float:
    """Bound for |average| * N: shifted partial sums weighted by 1/sin(theta)."""
    total = 0.0
    for cl in sd.principal():
        th = cl.theta.real
        total += cl.mult * shifted_cos_partial_sum_bound(th) / math.sin(th)
    return total / sd.n


def average_cusp_sweep(ctx: SuiteContext, horizons: Sequence[int]) -> list[dict]:
    """Average of a(p^m)/(2 p^{m/2}) over m <= N at each horizon N, with its rate bound.

    One normalized_cusp_terms call, to the largest horizon and from the
    context's sweep, serves every row, and each sum is exact.  A row
    carries N, the average,
    |average| * N (scaled_average), the reference constant the
    partial-sum bound gives for it, the spectral term bound and the
    largest |term| up to N.
    """
    sd = ctx.sd
    normalized = normalized_cusp_terms(ctx.g, ctx.params, max(horizons), sweep=ctx.sweep)
    reference, bound = average_cusp_reference(sd), cusp_term_bound(sd)
    rows = []
    for N in horizons:
        terms = normalized[1 : N + 1]
        average = float(sum(terms, Fraction(0))) / N
        max_term = max(abs(float(t)) for t in terms)
        rows.append(dict(N=N, average=average, scaled_average=abs(average) * N,
                         reference_constant=reference, term_bound=bound, max_term=max_term))
    return rows


# ---------------------------------------------------------------------------
# trace formula


@dataclass(frozen=True)
class StfTestFunction:
    """Finite-support even test function h(theta) = hhat0 + sum 2 hhat(m) cos(m theta)."""

    hhat0: float = 0.0
    support: tuple[tuple[int, float], ...] = ()

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


def identity_coefficient(q: int, m: int) -> SqrtExt:
    """I_m = (2q(q+1)/pi) Int_0^pi sin^2 t cos(mt) / ((q+1)^2 - 4q cos^2 t) dt, in closed form.

    The identity term integrates h against the tree's Plancherel measure,
    whose Fourier coefficients are rational (Ahumada, 1987; Terras, Zeta
    Functions of Graphs, 2011): I_0 = 1, I_odd = 0, I_{2k} = -(q-1)/(2 q^k).
    """
    if m % 2:
        return SqrtExt.of(q, 0)
    return SqrtExt.of(q, 1) if m == 0 else -(q - 1) * half_power(q, -m) / 2


def stf_verify(ctx: SuiteContext, h: StfTestFunction) -> tuple[float, float, float]:
    """Check the trace formula: spectral side vs. identity + cycle terms.

    lhs = sum_clusters mult * h(theta); geometric side = the identity term
    n (hhat0 + sum 2 hhat(m) I_m) = n (hhat0 - (q-1) sum_k hhat(2k) q^{-k})
    + sum_m N_m q^{-m/2} hhat(m), with N_m from the context's sweep, formed
    exactly in Q(sqrt q).  Returns (lhs, geometric, |difference|).

    The difference is not lhs - geometric, whose float round-off would grow
    like q^{m/2} hhat(m).  Less the trivial clusters' terms and the identity
    and cycle terms, hhat0 cancels exactly and each frequency leaves
    hhat(m) (S_m - R_m q^{-m/2}), the comparison chebyshev makes: S_m from
    SuiteContext.nontrivial_chebyshev_sums, R_m exact from remainders on
    the same N_m.  Only S_m is a float sum.
    """
    g, q, m_max = ctx.g, ctx.cert.q, h.max_frequency()
    counts = n_reduced_range(g, ctx.cert, m_max, sweep=ctx.sweep) if h.support else []
    remainders = ctx.remainders(m_max, counts)
    sums, _ = ctx.nontrivial_chebyshev_sums(m_max)
    root = 2.0 * math.sqrt(q)
    lhs = sum(cl.mult * h.eval_x(cl.value / root) for cl in ctx.sd.clusters)
    geometric = SqrtExt.of(q, g.n * Fraction(h.hhat0))
    difference = 0.0
    for m, v in h.support:
        q_m = half_power(q, -m)
        geometric += (2 * g.n * identity_coefficient(q, m) + counts[m - 1] * q_m) * Fraction(v)
        difference += v * (sums[m] - float(remainders[m] * q_m))
    return lhs, float(geometric), abs(difference)


# ---------------------------------------------------------------------------
# Huang's positivity sequence


def huang_range(ctx: SuiteContext, m_max: int) -> list[float]:
    """[h_1..h_{m_max}], h_m = R_0 - R_m q^{-m/2}, with R_m from SuiteContext.remainders.

    This is Huang's h_m = sum over the nontrivial eigenvalues of
    2 - 2 T_m(lambda / 2 sqrt q), one formula on bipartite and
    non-bipartite graphs.  It is formed exactly in Q(sqrt q) and
    converted to float once per m.
    """
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    q = ctx.cert.q
    remainders = ctx.remainders(m_max)
    return [float(remainders[0] - remainders[m] * half_power(q, -m)) for m in range(1, m_max + 1)]
