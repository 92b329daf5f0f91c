"""Chebyshev evaluators and cosine-power expansions."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from iharalab.chebyshev import central_binomial_weight, cos_power_as_cosines
from iharalab.nbt import cheb_t_real, cheb_u_real


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=31))
@settings(max_examples=60, deadline=None)
def test_cheb_t_matches_cosine(m, tenth):
    theta = tenth / 10.0
    assert abs(cheb_t_real(m, math.cos(theta)) - math.cos(m * theta)) < 1e-12 * (1 + m)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=1, max_value=30))
@settings(max_examples=60, deadline=None)
def test_cheb_u_matches_sine_ratio(m, tenth):
    theta = tenth / 10.0
    want = math.sin((m + 1) * theta) / math.sin(theta)
    assert abs(cheb_u_real(m, math.cos(theta)) - want) < 1e-11 * (1 + m)


def test_central_binomial_weight():
    assert central_binomial_weight(2) == Fraction(1, 2)
    assert central_binomial_weight(4) == Fraction(3, 8)
    assert central_binomial_weight(1) == 0
    assert central_binomial_weight(3) == 0


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=31))
@settings(max_examples=60, deadline=None)
def test_cos_power_expansion(k, tenth):
    theta = tenth / 10.0
    total = 0.0
    for h, w in cos_power_as_cosines(k):
        total += float(w) * (math.cos(h * theta) if h else 1.0)
    assert abs(total - math.cos(theta) ** k) < 1e-12


def test_cos_power_weights_sum_to_one():
    # at theta = 0 every cosine is 1, so the weights sum to 1
    for k in range(1, 12):
        assert sum(w for _, w in cos_power_as_cosines(k)) == 1


def test_cos_power_constant_term_matches_central_weight():
    for k in range(1, 12):
        const = sum(w for h, w in cos_power_as_cosines(k) if h == 0)
        assert const == central_binomial_weight(k)
