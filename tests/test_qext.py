"""Exact arithmetic in Q(sqrt d): qext.nearest_float, and the tests' reference field sqrt_ext.SqrtExt."""

import math
from math import isqrt
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqrt_ext import SqrtExt, graded, half_power

from iharalab.lps import build_lps
from iharalab.errors import OutOfRange
from iharalab.qext import nearest_float
from iharalab.suite import SuiteContext
from iharalab.zeta import graded_float, normalized_cusp_terms

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def _elem(d):
    return st.builds(lambda a, b: SqrtExt.of(d, a, b), rationals, rationals)


@given(_elem(13), _elem(13), _elem(13))
@settings(max_examples=50, deadline=None)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert x + y == y + x


@given(_elem(5))
@settings(max_examples=50, deadline=None)
def test_division_inverts_multiplication(x):
    if x == SqrtExt.of(5, 0):
        return
    y = SqrtExt.of(5, Fraction(7, 3), Fraction(-2, 9))
    assert (y * x) / x == y


RADICANDS = [1, 4, 9, 2, 13]
OPERATIONS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": lambda x, y: x / y,
}


def _by_components(op: str, d: int, xa, xb, ya, yb) -> SqrtExt:
    """x op y for x = xa + xb sqrt(d), y = ya + yb sqrt(d): Fraction components, folded by of."""
    if op == "+":
        return SqrtExt.of(d, xa + ya, xb + yb)
    if op == "-":
        return SqrtExt.of(d, xa - ya, xb - yb)
    if op == "*":
        return SqrtExt.of(d, xa * ya + d * xb * yb, xa * yb + xb * ya)
    norm = ya * ya - d * yb * yb
    return SqrtExt.of(d, (xa * ya - d * xb * yb) / norm, (xb * ya - xa * yb) / norm)


def _assert_normal(v: SqrtExt, want: SqrtExt) -> None:
    assert (v.d, v.a, v.b) == (want.d, want.a, want.b)
    assert type(v.a) is Fraction and type(v.b) is Fraction
    if isqrt(v.d) ** 2 == v.d:
        assert v.b == 0
    assert v == want and hash(v) == hash(want)
    if v.b == 0:
        assert v == v.a and hash(v) == hash(v.a)


@given(
    st.sampled_from(RADICANDS),
    rationals,
    rationals,
    rationals,
    rationals,
    st.one_of(st.integers(-50, 50), rationals),
)
@settings(max_examples=200, deadline=None)
def test_each_operation_keeps_the_normal_form(d, xa, xb, ya, yb, r):
    """Each result equals SqrtExt.of on the components: b = 0 for square d, hash follows ==."""
    x, y = SqrtExt.of(d, xa, xb), SqrtExt.of(d, ya, yb)
    _assert_normal(-x, SqrtExt.of(d, -x.a, -x.b))
    for op, apply in OPERATIONS.items():
        if op != "/" or y != 0:
            _assert_normal(apply(x, y), _by_components(op, d, x.a, x.b, y.a, y.b))
        if op != "/" or r != 0:
            _assert_normal(apply(x, r), _by_components(op, d, x.a, x.b, Fraction(r), 0))
        if op != "/":
            _assert_normal(apply(r, x), _by_components(op, d, Fraction(r), 0, x.a, x.b))
    if isqrt(d) ** 2 == d:
        # a perfect square: the values are the rationals x.a and y.a
        assert (x * y).a == x.a * y.a and (x + y).a == x.a + y.a


def test_operations_refuse_mixed_radicands():
    x, y = SqrtExt.of(2, 1, 1), SqrtExt.of(13, 1, 1)
    for apply in OPERATIONS.values():
        with pytest.raises(ValueError, match="mixed radicands"):
            apply(x, y)


@pytest.mark.parametrize("d", RADICANDS)
def test_division_by_zero_raises(d):
    x = SqrtExt.of(d, 1, 1)
    for zero in (0, Fraction(0), SqrtExt.of(d, 0), x - x):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_perfect_square_folds():
    x = SqrtExt.of(4, 1, 3)  # 1 + 3*sqrt(4) = 7
    assert x.is_rational()
    assert x.rational_part() == 7


def test_q_equals_one_folds():
    x = SqrtExt.of(1, Fraction(1, 2), Fraction(1, 3))
    assert x.is_rational()
    assert x.rational_part() == Fraction(5, 6)


def test_float_conversion():
    x = SqrtExt.of(2, 1, 1)
    assert abs(float(x) - (1 + math.sqrt(2))) < 1e-15


def test_rational_part_is_component_accessor():
    # rational_part extracts the a in a + b*sqrt(d); callers that need
    # a genuinely rational value must gate on is_rational first.
    x = SqrtExt.of(2, Fraction(3, 4), 1)
    assert not x.is_rational()
    assert x.rational_part() == Fraction(3, 4)


def test_conjugate_rationalization():
    # 1/(1 + sqrt(2)) = sqrt(2) - 1
    one = SqrtExt.of(2, 1)
    x = SqrtExt.of(2, 1, 1)
    assert one / x == SqrtExt.of(2, -1, 1)


@given(st.integers(min_value=-12, max_value=12))
@settings(max_examples=30, deadline=None)
def test_half_power_exact(m):
    d = 13
    v = half_power(d, m)
    want = d ** (m / 2.0)
    assert abs(float(v) - want) < 1e-9 * want
    if m % 2 == 0:
        assert v.is_rational()
        assert v.rational_part() == Fraction(d) ** (m // 2)
    else:
        assert not v.is_rational()


def test_half_power_multiplication():
    d = 7
    for a in range(-5, 6):
        for b in range(-5, 6):
            assert half_power(d, a) * half_power(d, b) == half_power(d, a + b)


def test_mixed_int_fraction_ops():
    x = SqrtExt.of(3, 1, 1)
    assert x + 1 == SqrtExt.of(3, 2, 1)
    assert 2 * x == SqrtExt.of(3, 2, 2)
    assert x - Fraction(1, 2) == SqrtExt.of(3, Fraction(1, 2), 1)
    assert x / 2 == SqrtExt.of(3, Fraction(1, 2), Fraction(1, 2))


def _nearest_float(x: SqrtExt) -> float:
    """a + b sqrt(d) in 60-digit decimal, then rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = 60
        exact = Decimal(x.a.numerator) / x.a.denominator
        exact += Decimal(x.b.numerator) / x.b.denominator * Decimal(x.d).sqrt()
        return float(exact)


@given(_elem(2), st.sampled_from([2, 3, 5, 13, 29]))
@settings(max_examples=200, deadline=None)
def test_float_is_correctly_rounded(x, d):
    x = SqrtExt.of(d, x.a, x.b)
    assert float(x) == _nearest_float(x)


def test_float_rounds_once_where_two_roundings_miss():
    # X^{29,5}'s normalized cusp terms at m = 3, 5 and 11, where the sum
    # of the two rounded parts is 1 ulp off the correctly rounded value
    ctx = SuiteContext(*build_lps(29, 5))
    terms = normalized_cusp_terms(ctx.g, ctx.params, 11, sweep=ctx.sweep)
    for m in (3, 5, 11):
        x = graded(terms[m], m, 29)
        assert float(x) == _nearest_float(x) != float(x.a) + float(x.b) * math.sqrt(29), m
    # a - b sqrt 2 cancels to about 1e-18, far below either part's rounding
    x = SqrtExt.of(2, Fraction(-665857, 470832 * 10**6), Fraction(1, 10**6))
    assert float(x) == _nearest_float(x) != float(x.a) + float(x.b) * math.sqrt(2)
    assert float(SqrtExt.of(3, -2, 0)) == -2.0


# ---------------------------------------------------------------------------
# nearest_float: (a + b sqrt(d)) / den from integers, rounded once


def _decimal_float(a: int, b: int, d: int, den: int) -> float:
    """(a + b sqrt(d)) / den in 80-digit decimal, then rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = 80
        return float((Decimal(a) + Decimal(b) * Decimal(d).sqrt()) / Decimal(den))


def _check(a: int, b: int, d: int, den: int) -> float:
    """nearest_float against the 80-digit value and against SqrtExt.__float__ on the same value."""
    x = nearest_float(a, b, d, den)
    assert x == _decimal_float(a, b, d, den), (a, b, d, den)
    assert float(SqrtExt.of(d, Fraction(a, den), Fraction(b, den))) == x
    return x


@given(
    st.integers(0, 10**40),
    st.integers(0, 10**40),
    st.integers(1, 10**45),
    st.sampled_from([2, 3, 5, 13, 17, 29]),
)
@settings(max_examples=100, deadline=None)
def test_nearest_float_against_80_digits_for_every_sign(a, b, den, d):
    for sa in (1, -1):
        for sb in (1, -1):
            _check(sa * a, sb * b, d, den)
        _check(sa * a, 0, d, den)  # b = 0: one int division


@pytest.mark.parametrize("x", [1.0, 0.1, -2.5, 3.7e-5, 1e300, 2.0**-1000])
@pytest.mark.parametrize("d", [2, 13])
def test_nearest_float_either_side_of_a_float_midpoint(x, d):
    """Values 2^-150 ulp either side of the midpoint between x and the next float up."""
    up = math.nextafter(x, math.inf)
    unit = (Fraction(up) - Fraction(x)) / 2**150  # a power of two
    target = int((Fraction(x) + Fraction(up)) / 2 / unit)  # the midpoint is target * unit

    def check(a: int, b: int) -> float:
        """(a + b sqrt(d)) * unit, as integers over one denominator."""
        return _check(a * unit.numerator, b * unit.numerator, d, unit.denominator)

    b = 3 << 100
    low = target - isqrt(d * b * b) - 1  # low + b sqrt(d) < target < low + 1 + b sqrt(d)
    assert check(low, b) == x
    assert check(low + 1, b) == up
    assert check(-low, -b) == -x
    assert check(-low - 1, -b) == -up
    # b = 0: one unit either side decides, and the midpoint itself ties to even,
    # which an 80-digit decimal value of it cannot tell
    even = x if math.frexp(x)[0] * 2**53 % 2 == 0 else up
    assert nearest_float(target * unit.numerator, 0, d, unit.denominator) == even
    assert float(SqrtExt.of(d, target * unit)) == even
    assert check(target - 1, 0) == x
    assert check(target + 1, 0) == up


def test_nearest_float_on_the_x295_cusp_terms():
    """X^{29,5}'s normalized cusp terms at m = 5 and 11 were once read 1 ulp off by two roundings."""
    ctx = SuiteContext(*build_lps(29, 5))
    terms = normalized_cusp_terms(ctx.g, ctx.params, 11, sweep=ctx.sweep)
    for m in (5, 11):
        h = terms[m]  # the sqrt(29) slot of an odd term
        x = _check(0, h.numerator, 29, h.denominator)
        assert x == graded_float(h, m, 29) == float(graded(h, m, 29)) != float(h) * math.sqrt(29), m


def test_nearest_float_folds_a_perfect_square():
    assert nearest_float(1, 1, 4, 3) == 1.0
    assert nearest_float(-7, 2, 9, 2) == -0.5
    assert nearest_float(5, 3, 1) == 8.0


def test_nearest_float_names_a_value_past_the_float_range():
    with pytest.raises(OutOfRange, match=r"the value 3\.3333e\+399 in Q\(sqrt\(2\)\) does not fit a float"):
        nearest_float(10**400, 0, 2, 3)
    with pytest.raises(OutOfRange, match=r"the value -1\.4142e\+400 in Q\(sqrt\(2\)\)"):
        nearest_float(0, -(10**400), 2)
    with pytest.raises(OutOfRange):
        float(SqrtExt.of(13, 10**400, 1))
