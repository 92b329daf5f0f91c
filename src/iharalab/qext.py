"""Rounding exact values of Q(sqrt(d)) to floats.

The program holds a number of Q(sqrt(d)) as integers, never as a field
element: a value in Q or in Q sqrt(d) alone is one Fraction in its
parity slot (zeta.normalize_cusp: the rational slot at even m, the
sqrt(p) slot at odd m), and a sum with both parts is two integers a, b
over one denominator (the limit sums of iharalab.limits).  Half-integer
powers of q enter only through that split, which is what keeps
residuals like sum(N_m q^{-m/2}) - main_term meaningful: the quantities
being subtracted can exceed 1e15 while the difference is O(1), far
below the resolution of double arithmetic.

nearest_float rounds (a + b sqrt(d)) / den to the nearest float in one
step, the only place such a value becomes a float.  A perfect-square d
folds into a plain rational, so q = 1 graphs take the same route.
"""

from __future__ import annotations

from math import isqrt, log10

from .errors import OutOfRange


def nearest_float(a: int, b: int, d: int, den: int = 1) -> float:
    """The float nearest (a + b sqrt(d)) / den for integers a, b, d >= 0 and den > 0, rounded once.

    A rational value (b = 0, or d a perfect square) is one correctly
    rounded int division.  Otherwise the value is irrational, so it is no
    tie between two floats: bracket b sqrt(d) 2^k by isqrt between two
    consecutive integers, and double k until both ends of the bracket
    round to the same float.  A value past the float range raises
    OutOfRange naming it.
    """
    r = isqrt(d)
    if b == 0 or r * r == d:
        return _divide(a + b * r, den, d)
    sign = 1 if b > 0 else -1
    k = 64
    while True:
        # floor(|b| sqrt(d) 2^k) < |b| sqrt(d) 2^k < the floor + 1
        low = (a << k) + sign * isqrt(d * b * b << 2 * k)
        if (x := _divide(low, den << k, d)) == _divide(low + sign, den << k, d):
            return x
        k *= 2


def _divide(num: int, den: int, d: int) -> float:
    try:
        return num / den
    except OverflowError:
        # num / den is past 2^1024, so both logarithms are finite
        exponent = log10(abs(num)) - log10(den)
        whole = int(exponent)
        value = f"{'-' if num < 0 else ''}{10 ** (exponent - whole):.4f}e+{whole}"
        raise OutOfRange(f"the value {value} in Q(sqrt({d})) does not fit a float") from None
