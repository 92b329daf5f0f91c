"""Exact arithmetic in Q(sqrt(d)): the field the exact routes are compared against.

Numbers of the form a + b*sqrt(d) with rational a, b.  The program holds
these values as parity slots and integer pairs (iharalab.qext); the
tests rebuild them here, one field operation at a time, and compare.

A perfect-square d folds into plain rationals (b stays zero), so q = 1
graphs work through the same code path.  That normal form is an
invariant: only SqrtExt.of folds and coerces its arguments.  +, -, *, /
and the coercion of an int or Fraction operand build their results
with the constructor, which keeps b = 0 for a perfect-square d because
both operands already have it; so == compares components.
SqrtExt.__float__ reads through iharalab.qext.nearest_float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from iharalab.errors import DegreeTooSmall
from iharalab.qext import nearest_float


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


def graded(t, m: int, p: int) -> SqrtExt:
    """The value t sqrt(p)^{m mod 2} of the parity slot t at index m."""
    return SqrtExt.of(p, 0, t) if m % 2 else SqrtExt.of(p, t)


def graded_values(slots, p: int) -> list[SqrtExt]:
    """[graded(t_m, m, p)] for the slots [t_0, t_1, ...] of a series in t/sqrt(p)."""
    return [graded(t, m, p) for m, t in enumerate(slots)]
