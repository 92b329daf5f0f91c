"""Cosine-power expansions with exact rational weights.

cos^k(t) as a cosine series, and its mean over a period, which is the
Cesaro limit weight of each principal eigenvalue.  The float routes
evaluate T_m with nbt.cheb_t_real; only tests and perfbench name cheb_u_real.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def central_binomial_weight(k: int) -> Fraction:
    """Return binom(k, k/2) / 2^k for even k and 0 for odd k.

    This is the mean of cos^k over a full period, which is the Cesaro
    limit weight attached to each principal eigenvalue.
    """
    if k % 2:
        return Fraction(0)
    return Fraction(comb(k, k // 2), 2**k)


def cos_power_as_cosines(k: int) -> list[tuple[int, Fraction]]:
    """Expand cos^k(t) into a cosine series.

    Returns pairs (h, w) such that cos^k(t) = sum w * cos(h*t), with h
    running over k, k-2, ..., down to 1 (odd k) or 0 (even k).  The h = 0
    pair, when present, carries the constant term.
    """
    if k < 0:
        raise ValueError("power must be nonnegative")
    out = []
    half = Fraction(1, 2**k)
    for j in range((k // 2) + 1):
        h = k - 2 * j
        if h == 0:
            out.append((0, Fraction(comb(k, j), 2**k)))
        else:
            out.append((h, 2 * half * comb(k, j)))
    return out
