"""Reference routes for the exact sums of iharalab.limits, in SqrtExt arithmetic.

average_nm_sweep, average_cusp_sweep, stf_verify and huang_range below
form the same exact values as their namesakes in limits, one SqrtExt or
Fraction operation at a time, and convert each to a float with float().
limits forms them as integer pairs over one denominator instead; the
tests compare the two routes with ==.  identity_coefficient is I_m of
the trace formula's identity term, which limits folds into Tr B_m.
phi_series forms both sides of zeta.phi_series as values in Q(sqrt p),
where zeta holds each coefficient as one Fraction in its parity slot,
and phi_coefficient_diffs is what suite.check_phi reports from them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from iharalab.limits import (
    AverageNmReport,
    _validate_horizons,
    average_cusp_reference,
    average_nm_reference,
    cusp_term_bound,
    require_ramanujan,
)
from iharalab.nbt import n_reduced_range
from iharalab.zeta import cusp_coefficients_range, normalized_cusp_terms
from sqrt_ext import SqrtExt, graded_values, half_power


def average_nm_sweep(ctx, horizons) -> list[AverageNmReport]:
    hs = _validate_horizons(horizons)
    if hs[0] < 2:
        raise ValueError("N must be at least 2")
    sd, cert = ctx.sd, ctx.cert
    require_ramanujan(sd)
    reference = average_nm_reference(sd, cert)
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


def average_cusp_sweep(ctx, horizons) -> list[dict]:
    hs = _validate_horizons(horizons)
    sd = ctx.sd
    slots = normalized_cusp_terms(ctx.g, ctx.params, hs[-1], sweep=ctx.sweep)
    normalized = graded_values(slots, ctx.params.p)
    reference, bound = average_cusp_reference(sd), cusp_term_bound(sd)
    total, max_term, m = SqrtExt.of(ctx.params.p, 0), 0.0, 0
    rows = []
    for N in hs:
        for m in range(m + 1, N + 1):
            total += normalized[m]
            max_term = max(max_term, abs(float(normalized[m])))
        average = float(total) / N
        rows.append(dict(N=N, average=average, scaled_average=abs(average) * N,
                         reference_constant=reference, term_bound=bound, max_term=max_term))
    return rows


def identity_coefficient(q: int, m: int) -> SqrtExt:
    """I_m = (2q(q+1)/pi) Int_0^pi sin^2 t cos(mt) / ((q+1)^2 - 4q cos^2 t) dt, in closed form.

    The identity term integrates h against the tree's Plancherel measure,
    whose Fourier coefficients are rational (Ahumada, 1987; Terras, Zeta
    Functions of Graphs, 2011): I_0 = 1, I_odd = 0, I_{2k} = -(q-1)/(2 q^k).
    """
    if m % 2:
        return SqrtExt.of(q, 0)
    return SqrtExt.of(q, 1) if m == 0 else -(q - 1) * half_power(q, -m) / 2


def stf_verify(ctx, h) -> tuple[float, float, float]:
    g, q, m_max = ctx.g, ctx.cert.q, h.max_frequency()
    counts = n_reduced_range(g, ctx.cert, m_max, sweep=ctx.sweep) if h.support else []
    remainders = ctx.remainders(m_max)
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


def huang_range(ctx, m_max: int) -> list[float]:
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    q = ctx.cert.q
    remainders = ctx.remainders(m_max)
    return [float(remainders[0] - remainders[m] * half_power(q, -m)) for m in range(1, m_max + 1)]


def phi_series(ctx, order: int) -> tuple[list[SqrtExt], list[SqrtExt]]:
    """(spectral, closed_form) of zeta.phi_series as values: a(p^m) / (2 p^{m/2}) and the braces over n(1 - t^2)."""
    p, n = ctx.params.p, ctx.g.n
    amounts = cusp_coefficients_range(ctx.g, ctx.params, order, sweep=ctx.sweep)
    spectral = [SqrtExt.of(p, a) / (2 * half_power(p, m)) for m, a in enumerate(amounts)]
    remainders = ctx.remainders(order)
    zero = SqrtExt.of(p, 0)
    braces = [zero + sum(cl.mult for cl in ctx.sd.principal())]
    braces += [remainders[m] * half_power(p, -m) for m in range(1, order + 1)]
    closed = [sum(braces[m::-2], zero) / n for m in range(order + 1)]
    return spectral, closed


def phi_coefficient_diffs(ctx, order: int) -> list[float]:
    spectral, closed = phi_series(ctx, order)
    return [abs(float(a - b)) for a, b in zip(spectral, closed)]
