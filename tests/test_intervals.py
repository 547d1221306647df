"""The canonical `Ival` constructor, exact rational intervals, and the
`Fraction` boxes and reference arithmetic of tests/oracles.py: algebra,
containment, soundness."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from quasisat import checksat, distance_enclosure, parse, quasi_decide
from quasisat.intervals import DomainError, RatInterval, ival, rat, rat_str

from oracles import (EMPTY_BOX, abs_interval, add, box, box_contains, box_issubset,
                     box_replace, contains, divide, issubset, mul, neg, pow_nat, rival,
                     split, sub, to_interval, width)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)


@st.composite
def intervals(draw):
    a = draw(rationals)
    b = draw(rationals)
    return rival(min(a, b), max(a, b))


@st.composite
def points_in(draw, iv):
    t = draw(st.fractions(min_value=0, max_value=1, max_denominator=256))
    return iv.lo + (iv.hi - iv.lo) * t


def test_constructor_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        rival(1, 0)
    with pytest.raises(ValueError):
        ival(1, 0)


def test_basic_queries():
    iv = rival(Fraction(-1, 2), Fraction(3, 2))
    assert width(iv) == 2
    assert iv.lo != iv.hi
    assert contains(iv, Fraction(3, 2)) and not contains(iv, 2)
    assert rival(5).lo == rival(5).hi


def test_ival_is_over_the_lcm_of_reduced_denominators():
    assert ival(Fraction(1, 3), Fraction(1, 2)) == (2, 3, 6)
    assert ival(Fraction(2, 4), "1.0") == ival("1/2", 1) == (1, 2, 2)
    assert ival(-3) == (-3, -3, 1)
    assert ival(Fraction(-4, 6), Fraction(1, 5)) == (-10, 3, 15)


@given(rationals, rationals, st.integers(min_value=1, max_value=50))
def test_ival_is_canonical(a, b, m):
    """One rational interval gives one triple, whatever form its endpoints
    are given in, with no common factor left in (lo, hi, den)."""
    lo, hi = min(a, b), max(a, b)
    got = ival(lo, hi)
    assert got == ival(Fraction(lo.numerator * m, lo.denominator * m), str(hi))
    assert to_interval(got) == rival(lo, hi)
    assert math.gcd(*got) == 1


def test_exact_arithmetic_oracles():
    a = rival(Fraction(1, 3), Fraction(1, 2))
    b = rival(Fraction(-2), Fraction(1, 4))
    assert add(a, b) == rival(Fraction(-5, 3), Fraction(3, 4))
    assert sub(a, b) == rival(Fraction(1, 12), Fraction(5, 2))
    assert mul(a, b) == rival(Fraction(-1), Fraction(1, 8))
    assert neg(a) == rival(Fraction(-1, 2), Fraction(-1, 3))
    assert divide(a, rival(2, 4)) == rival(Fraction(1, 12), Fraction(1, 4))


def test_division_by_interval_containing_zero_raises():
    with pytest.raises(DomainError):
        divide(rival(1, 2), rival(-1, 1))


def test_pow_nat_even_is_nonnegative():
    assert pow_nat(rival(-3, 2), 2) == rival(0, 9)
    assert pow_nat(rival(-3, 2), 3) == rival(-27, 8)
    assert pow_nat(rival(-3, 2), 0) == rival(1, 1)


def test_abs_and_split():
    assert abs_interval(rival(-3, 2)) == rival(0, 3)
    lo, hi = split(rival(0, 1))
    assert lo == rival(0, Fraction(1, 2)) and hi == rival(Fraction(1, 2), 1)


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
    b = box(rival(0, 1), rival(-1, 1))
    assert b.dim == 2 and len(b) == 2
    assert box_contains(b, (0, 0))  # 0 lies on the closed edge of [0,1]
    assert not box_contains(box(rival(1, 2), rival(-1, 1)), (0, 0))
    assert box_contains(b, (Fraction(1, 2), 0))
    assert box_replace(b, 0, rival(5)) == box(rival(5), rival(-1, 1))
    assert b.product(box(rival(7))) == box(rival(0, 1), rival(-1, 1), rival(7))
    assert b[1] == rival(-1, 1)


def test_empty_box_is_the_zero_dimensional_point():
    assert EMPTY_BOX.dim == 0
    assert box_contains(EMPTY_BOX, ())  # vacuously: no axis excludes zero
    assert EMPTY_BOX.product(box(rival(7))) == box(rival(7))


def test_rat_parsing_and_printing():
    assert rat("3/4") == Fraction(3, 4)
    assert rat(2) == Fraction(2)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5/1"  # the wire format is always num/den


ONE_ROOT = "exists x in [0,1] . x - 1/2 = 0"


@pytest.mark.parametrize("bad", ["1/0", float("inf"), float("-inf"), float("nan"), "x"])
@pytest.mark.parametrize("call", [
    rat,
    ival,
    lambda q: ival(0, q),
    lambda q: quasi_decide(parse(ONE_ROOT), eps=q),
    lambda q: checksat(parse(ONE_ROOT), (), q),
    lambda q: distance_enclosure(parse(ONE_ROOT), parse(ONE_ROOT), tol=q),
], ids=["rat", "ival", "ival_hi", "quasi_decide", "checksat", "distance_enclosure"])
def test_a_malformed_rational_is_a_value_error(call, bad):
    """A zero denominator and an infinite float are malformed rationals
    like any other, at every entry point that reads one."""
    with pytest.raises(ValueError):
        call(bad)


def test_rat_interval_coerces_orders_and_is_frozen():
    iv = RatInterval("1/2", 1)
    assert (iv.lo, iv.hi) == (Fraction(1, 2), Fraction(1))
    assert isinstance(iv.lo, Fraction) and isinstance(iv.hi, Fraction)
    assert iv == RatInterval(Fraction(2, 4), Fraction(1)) and hash(iv) == hash(RatInterval("0.5", 1))
    assert repr(iv) == "[1/2, 1]"
    with pytest.raises(AttributeError):
        iv.lo = Fraction(0)
    with pytest.raises(ValueError, match="out of order"):
        RatInterval(1, 0)
