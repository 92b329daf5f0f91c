"""Exact arithmetic in Q(sqrt(d)).

Numbers of the form a + b*sqrt(d) with rational a, b.  Half-integer
powers of an integer live here exactly, which is what keeps residuals
like sum(N_m q^{-m/2}) - main_term meaningful: the quantities being
subtracted can exceed 1e15 while the difference is O(1), far below the
resolution of double arithmetic.

A perfect-square d folds into plain rationals (b stays zero), so q = 1
graphs work through the same code path.  That normal form is an
invariant: only SqrtExt.of folds and coerces its arguments.  +, -, *, /
and the coercion of an int or Fraction operand build their results
with the constructor, which keeps b = 0 for a perfect-square d because
both operands already have it; so == compares components.

nearest_float rounds a value held as integers a, b over one
denominator, (a + b sqrt(d)) / den, to the nearest float in one step.
The limit sums of iharalab.limits are formed in that shape, and
SqrtExt.__float__ reads through it too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, log10

from .errors import DegreeTooSmall, OutOfRange


_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True)
class SqrtExt:
    """a + b*sqrt(d) with exact rational a, b and a fixed nonnegative integer d."""

    d: int
    a: Fraction
    b: Fraction

    @classmethod
    def of(cls, d: int, a=0, b=0) -> "SqrtExt":
        if d < 0:
            raise ValueError("d must be nonnegative")
        a = _as_fraction(a)
        b = _as_fraction(b)
        r = isqrt(d)
        if r * r == d:
            # perfect square: fold the irrational part away
            return cls(d, a + b * r, _ZERO)
        return cls(d, a, b)

    def _check(self, other: "SqrtExt") -> None:
        if self.d != other.d:
            raise ValueError(f"mixed radicands {self.d} and {other.d}")

    def _coerce(self, other) -> "SqrtExt":
        if isinstance(other, SqrtExt):
            self._check(other)
            return other
        return SqrtExt(self.d, _as_fraction(other), _ZERO)

    # Each result below is built by the constructor, not by `of`: with
    # both operands in normal form (b = 0 when d is a perfect square),
    # every b it computes is 0 there too.

    def __add__(self, other) -> "SqrtExt":
        o = self._coerce(other)
        return SqrtExt(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other) -> "SqrtExt":
        o = self._coerce(other)
        return SqrtExt(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other) -> "SqrtExt":
        return self._coerce(other) - self

    def __neg__(self) -> "SqrtExt":
        return SqrtExt(self.d, -self.a, -self.b)

    def __mul__(self, other) -> "SqrtExt":
        o = self._coerce(other)
        return SqrtExt(
            self.d, self.a * o.a + self.d * self.b * o.b, self.a * o.b + self.b * o.a
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "SqrtExt":
        o = self._coerce(other)
        norm = o.a * o.a - self.d * o.b * o.b
        if norm == 0:
            raise ZeroDivisionError("division by zero element")
        # multiply by the conjugate o.a - o.b sqrt(d) of the divisor
        a = self.a * o.a - self.d * self.b * o.b
        b = self.b * o.a - self.a * o.b
        return SqrtExt(self.d, a / norm, b / norm)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, SqrtExt):
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        return hash(self.a) if self.b == 0 else hash((self.d, self.a, self.b))

    def is_rational(self) -> bool:
        return self.b == 0

    def rational_part(self) -> Fraction:
        return self.a

    def __float__(self) -> float:
        """The float nearest a + b sqrt(d), rounded once from the exact value (nearest_float)."""
        an, ad = self.a.numerator, self.a.denominator
        bn, bd = self.b.numerator, self.b.denominator
        return nearest_float(an * bd, bn * ad, self.d, ad * bd)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"{self.a}"
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def half_power(d: int, m: int) -> SqrtExt:
    """d^{m/2} as an exact SqrtExt over sqrt(d); m may be negative."""
    if m >= 0:
        whole = d ** (m // 2)
        if m % 2 == 0:
            return SqrtExt.of(d, whole)
        return SqrtExt.of(d, 0, whole)
    if d == 0:
        raise DegreeTooSmall(f"q^({m}/2) needs q >= 1, got q = 0")
    # d^{-k} at even m = -2k, sqrt(d) d^{-k} at odd m = 1 - 2k
    if m % 2 == 0:
        return SqrtExt.of(d, Fraction(1, d ** (-m // 2)))
    return SqrtExt.of(d, 0, Fraction(1, d ** ((1 - m) // 2)))


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
