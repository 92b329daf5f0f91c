"""Truncated power series over exact rationals.

A TruncatedSeries holds coefficients c_0..c_M.  Arithmetic between two
series truncates to the smaller order.  Coefficients are exact: ints
and Fractions, or qext.SqrtExt values in a series that is only added,
multiplied and differentiated.  exp uses the standard derivative-recursion,
so it stays within the ring generated by the coefficients (division
only by integers).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class TruncatedSeries:
    coeffs: tuple
    order: int

    @classmethod
    def from_coeffs(cls, coeffs: Sequence, order: int | None = None) -> "TruncatedSeries":
        cs = list(coeffs)
        if order is None:
            order = len(cs) - 1
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(cs) < order + 1:
            cs.extend([0] * (order + 1 - len(cs)))
        cs = cs[: order + 1]
        return cls(tuple(cs), order)

    def __getitem__(self, m: int):
        return self.coeffs[m]

    def _with(self, coeffs) -> "TruncatedSeries":
        return TruncatedSeries.from_coeffs(coeffs, len(coeffs) - 1)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        return self._with([self.coeffs[i] + other.coeffs[i] for i in range(m + 1)])

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        return self._with([self.coeffs[i] - other.coeffs[i] for i in range(m + 1)])

    def __neg__(self) -> "TruncatedSeries":
        return self._with([-c for c in self.coeffs])

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        m = min(self.order, other.order)
        out = [0] * (m + 1)
        for i, a in enumerate(self.coeffs[: m + 1]):
            if a == 0:
                continue
            for j in range(m + 1 - i):
                b = other.coeffs[j]
                if b != 0:
                    out[i + j] += a * b
        return self._with(out)

    def inverse(self) -> "TruncatedSeries":
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ZeroDivisionError("series has zero constant term")
        inv0 = 1 / Fraction(c0)
        out = [inv0]
        for m in range(1, self.order + 1):
            acc = 0
            for k in range(1, m + 1):
                acc += self.coeffs[k] * out[m - k]
            out.append(-acc * inv0)
        return self._with(out)

    def __truediv__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self * other.inverse()

    def derivative(self) -> "TruncatedSeries":
        if self.order == 0:
            return TruncatedSeries.from_coeffs([0], 0)
        return TruncatedSeries.from_coeffs(
            [i * self.coeffs[i] for i in range(1, self.order + 1)], self.order - 1
        )

    def exp(self) -> "TruncatedSeries":
        if self.coeffs[0] != 0:
            raise ValueError("exp needs zero constant term")
        out = [Fraction(1)]
        for m in range(1, self.order + 1):
            acc = 0
            for k in range(1, m + 1):
                acc += k * self.coeffs[k] * out[m - k]
            out.append(Fraction(acc, m))
        return self._with(out)


def binomial_one_minus_u2(exponent: int, order: int) -> TruncatedSeries:
    """(1 - u^2)^exponent as a truncated series, any integer exponent."""
    from math import comb

    out = [0] * (order + 1)
    if exponent >= 0:
        for j in range(min(exponent, order // 2) + 1):
            out[2 * j] = (-1) ** j * comb(exponent, j)
    else:
        k = -exponent
        for j in range(order // 2 + 1):
            out[2 * j] = comb(k - 1 + j, j)
    return TruncatedSeries.from_coeffs(out, order)
