import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabsum.numerics import Surd, floor_div_sqrt, sqrt_diff_within


def test_floor_div_sqrt_examples():
    assert floor_div_sqrt(30, 25) == 6
    assert floor_div_sqrt(10, 2) == 7
    # direct quantization arithmetic for the weights (3, 4) at scale 10
    assert floor_div_sqrt(10 * 3, 25) == 6
    assert floor_div_sqrt(10 * 4, 25) == 8


def test_floor_div_sqrt_rejects_zero_divisor():
    with pytest.raises(ValueError):
        floor_div_sqrt(5, 0)


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=10**30))
def test_floor_div_sqrt_postcondition(a, b):
    r = floor_div_sqrt(a, b)
    assert r * r * b <= a * a
    assert (r + 1) * (r + 1) * b > a * a


def test_surd_collapses_perfect_squares():
    s = Surd(Fraction(1, 3), Fraction(2), 9)
    assert s == Surd(Fraction(1, 3) + 6)
    assert Surd(0, 1, 2) * Surd(0, 1, 2) == Surd(2)


def test_surd_arithmetic_and_ordering():
    root2 = Surd(0, 1, 2)
    assert root2 * root2 == Surd(2)
    assert (root2 + root2) == Surd(0, 2, 2)
    assert (root2 - Fraction(3, 2)).sign() == -1
    assert (root2 - Fraction(7, 5)).sign() == 1
    assert (Surd(1) - root2).sign() == -1
    assert (root2 - root2).sign() == 0
    with pytest.raises(ValueError):
        _ = Surd(0, 1, 2) + Surd(0, 1, 3)


small_fractions = st.fractions(min_value=-100, max_value=100, max_denominator=50)


@settings(max_examples=300)
@given(small_fractions, small_fractions, st.integers(min_value=0, max_value=1000))
def test_surd_sign_agrees_with_float(a, b, m):
    value = Surd(a, b, m)
    approx = float(a) + float(b) * math.sqrt(m)
    if abs(approx) > 1e-7:
        assert value.sign() == (1 if approx > 0 else -1)


@settings(max_examples=300)
@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=2**32),
       st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=2**32))
def test_rational_matches_double_within_1e9(a, b, c, d):
    # sanity cross-check only: exact rationals vs double evaluation
    exact = Fraction(a, b) + Fraction(c, d) * Fraction(a + 1, c + 1)
    approx = a / b + (c / d) * ((a + 1) / (c + 1))
    assert abs(float(exact) - approx) <= 1e-9 * max(1.0, abs(approx))


def test_residual_comparison_for_small_fixture():
    # weights (3, 4) at scale 10: the unit-direction gap is exactly zero,
    # so n/N^2 >= gap trivially; checked both exactly and in floats
    from slabsum import quantize
    from slabsum.instance import PartitionInstance

    q = quantize(PartitionInstance((3, 4)), big_n=10)
    bound = Fraction(2, 100)
    assert (Surd(bound) - q.unit_gap_sq).sign() >= 0
    u_over_n = [uk / 10 for uk in q.u]
    s_unit = [3 / 5, 4 / 5]
    brute = sum((a - b) ** 2 for a, b in zip(s_unit, u_over_n))
    assert brute <= float(bound) + 1e-12


def test_sqrt_diff_within_basic():
    # |sqrt(9) - sqrt(4)| = 1
    assert sqrt_diff_within(9, 4, 1)
    assert not sqrt_diff_within(9, 4, Fraction(99, 100))
    # |sqrt(2) - sqrt(2)| = 0 with surds
    two = Surd(0, 1, 2) * Surd(0, 1, 2)
    assert sqrt_diff_within(two, 2, 0)
    # |sqrt(2 + sqrt(2)) - sqrt(2)| ~ 0.434
    inner = Surd(2, 1, 2)
    assert sqrt_diff_within(inner, 2, Fraction(44, 100))
    assert not sqrt_diff_within(inner, 2, Fraction(43, 100))


def test_sqrt_diff_within_settles_a_nonpositive_left_side():
    # x + y - width^2 <= 0 answers True without the second squaring
    assert sqrt_diff_within(1, 1, 2)
    assert sqrt_diff_within(Surd(0, 1, 2), 1, 2)


def test_exact_helpers_refuse_negative_arguments():
    with pytest.raises(ValueError, match="width must be nonnegative"):
        sqrt_diff_within(1, 1, -1)
    with pytest.raises(ValueError, match="squared arguments must be nonnegative"):
        sqrt_diff_within(Surd(0, -1, 2), 1, 1)
    with pytest.raises(ValueError, match="requires a >= 0"):
        floor_div_sqrt(-1, 2)
    with pytest.raises(ValueError, match="radicand must be nonnegative"):
        Surd(0, 1, -2)
