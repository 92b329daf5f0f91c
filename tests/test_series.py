"""Truncated power series over exact rationals.

log below is the reference inverse of TruncatedSeries.exp, by the same
derivative recursion.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iharalab.series import TruncatedSeries, binomial_one_minus_u2


def log(s: TruncatedSeries) -> TruncatedSeries:
    if s.coeffs[0] != 1:
        raise ValueError("log needs constant term 1")
    out = [Fraction(0)]
    for m in range(1, s.order + 1):
        acc = 0
        for k in range(1, m):
            acc += k * out[k] * s.coeffs[m - k]
        out.append(s.coeffs[m] - Fraction(acc, m))
    return TruncatedSeries.from_coeffs(out, s.order)


coeff = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def series_strategy(order=8, leading=None):
    def build(cs):
        if leading is not None:
            cs = [leading] + cs[1:]
        return TruncatedSeries.from_coeffs(cs, order)

    return st.lists(coeff, min_size=order + 1, max_size=order + 1).map(build)


@given(series_strategy(), series_strategy(), series_strategy())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b).coeffs == (b + a).coeffs
    assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
    assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
    assert (a * b).coeffs == (b * a).coeffs


@given(series_strategy(leading=Fraction(1)))
@settings(max_examples=40, deadline=None)
def test_inverse_roundtrip(a):
    assert (a * a.inverse()).coeffs == TruncatedSeries.from_coeffs([1], 8).coeffs


@given(series_strategy(leading=Fraction(1)))
@settings(max_examples=40, deadline=None)
def test_log_exp_roundtrip(a):
    assert log(a).exp().coeffs == a.coeffs


@given(series_strategy(leading=Fraction(0)))
@settings(max_examples=40, deadline=None)
def test_exp_log_roundtrip(a):
    assert log(a.exp()).coeffs == a.coeffs


def test_exp_requires_zero_constant():
    s = TruncatedSeries.from_coeffs([1, 1], 1)
    with pytest.raises(ValueError):
        s.exp()


def test_log_requires_unit_constant():
    s = TruncatedSeries.from_coeffs([0, 1], 1)
    with pytest.raises(ValueError):
        log(s)


def test_inverse_requires_unit():
    s = TruncatedSeries.from_coeffs([0, 1], 1)
    with pytest.raises(ZeroDivisionError):
        s.inverse()


@pytest.mark.parametrize("exponent", [-3, -1, 0, 1, 2, 5])
def test_binomial_one_minus_u2(exponent):
    order = 10
    base = TruncatedSeries.from_coeffs([1, 0, -1], order)
    if exponent >= 0:
        want = TruncatedSeries.from_coeffs([1], order)
        for _ in range(exponent):
            want = want * base
    else:
        want = TruncatedSeries.from_coeffs([1], order)
        inv = base.inverse()
        for _ in range(-exponent):
            want = want * inv
    got = binomial_one_minus_u2(exponent, order)
    assert got.coeffs == want.coeffs


def test_derivative():
    s = TruncatedSeries.from_coeffs([5, 1, 2, 3], 3)
    assert s.derivative().coeffs == (1, 4, 9)


def test_mul_truncates_to_min_order():
    a = TruncatedSeries.from_coeffs([1, 1, 1], 2)
    b = TruncatedSeries.from_coeffs([1, 1], 1)
    assert (a * b).order == 1
