"""Exact rational intervals and boxes, and the `Fraction` reference
arithmetic of tests/oracles.py: algebra, containment, soundness."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasisat.intervals import DomainError, EMPTY_BOX, box, ival, rat, rat_str

from oracles import (abs_interval, add, box_contains, box_issubset, box_replace,
                     contains, divide, issubset, mul, neg, pow_nat, split, sub)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return ival(min(a, b), max(a, b))


@st.composite
def points_in(draw, iv):
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=256))
    return iv.lo + (iv.hi - iv.lo) * t


def test_constructor_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        ival(1, 0)


def test_basic_queries():
    iv = ival(Fraction(-1, 2), Fraction(3, 2))
    assert iv.width == 2
    assert not iv.is_degenerate
    assert contains(iv, Fraction(3, 2)) and not contains(iv, 2)
    assert ival(5).is_degenerate


def test_exact_arithmetic_oracles():
    a = ival(Fraction(1, 3), Fraction(1, 2))
    b = ival(Fraction(-2), Fraction(1, 4))
    assert add(a, b) == ival(Fraction(-5, 3), Fraction(3, 4))
    assert sub(a, b) == ival(Fraction(1, 12), Fraction(5, 2))
    assert mul(a, b) == ival(Fraction(-1), Fraction(1, 8))
    assert neg(a) == ival(Fraction(-1, 2), Fraction(-1, 3))
    assert divide(a, ival(2, 4)) == ival(Fraction(1, 12), Fraction(1, 4))


def test_division_by_interval_containing_zero_raises():
    with pytest.raises(DomainError):
        divide(ival(1, 2), ival(-1, 1))


def test_pow_nat_even_is_nonnegative():
    assert pow_nat(ival(-3, 2), 2) == ival(0, 9)
    assert pow_nat(ival(-3, 2), 3) == ival(-27, 8)
    assert pow_nat(ival(-3, 2), 0) == ival(1, 1)


def test_abs_and_split():
    assert abs_interval(ival(-3, 2)) == ival(0, 3)
    lo, hi = split(ival(0, 1))
    assert lo == ival(0, Fraction(1, 2)) and hi == ival(Fraction(1, 2), 1)


@given(intervals(), intervals(), st.data())
def test_arithmetic_is_inclusion_sound(a, b, data):
    """Pointwise results of +, -, * land in the interval result."""
    x = data.draw(points_in(a))
    y = data.draw(points_in(b))
    assert contains(add(a, b), x + y)
    assert contains(sub(a, b), x - y)
    assert contains(mul(a, b), x * y)
    assert contains(abs_interval(a), abs(x))
    for n in (0, 1, 2, 3, 5):
        assert contains(pow_nat(a, n), x ** n)


@given(intervals(), intervals())
def test_issubset_compares_endpoints(a, b):
    assert issubset(a, b) == (b.lo <= a.lo and a.hi <= b.hi)
    assert issubset(a, a)
    assert box_issubset(box(a, b), box(a, b)) and box_issubset(EMPTY_BOX, EMPTY_BOX)
    assert box_issubset(box(a, a), box(b, b)) == issubset(a, b)


def test_box_queries():
    b = box(ival(0, 1), ival(-1, 1))
    assert b.dim == 2 and len(b) == 2
    assert box_contains(b, (0, 0))  # 0 lies on the closed edge of [0,1]
    assert not box_contains(box(ival(1, 2), ival(-1, 1)), (0, 0))
    assert box_contains(b, (Fraction(1, 2), 0))
    assert box_replace(b, 0, ival(5)) == box(ival(5), ival(-1, 1))
    assert b.product(box(ival(7))) == box(ival(0, 1), ival(-1, 1), ival(7))
    assert b[1] == ival(-1, 1)


def test_empty_box_is_the_zero_dimensional_point():
    assert EMPTY_BOX.dim == 0
    assert box_contains(EMPTY_BOX, ())  # vacuously: no axis excludes zero
    assert EMPTY_BOX.product(box(ival(7))) == box(ival(7))


def test_rat_parsing_and_printing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(2) == Fraction(2)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5/1"  # the wire format is always num/den
