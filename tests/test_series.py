"""Transcendental enclosures checked against mpmath as an independent
high-precision oracle, plus soundness and convergence properties."""
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from quasisat.intervals import DomainError, ival
from quasisat.series import (cos_enclosure, exp_enclosure, pi_enclosure,
                             sin_enclosure, sqrt_enclosure)

mpmath.mp.dps = 60

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=997)
small_precs = st.integers(min_value=2, max_value=64)


def mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def encloses(enc, value) -> bool:
    return mpf(enc.lo) <= value <= mpf(enc.hi)


def test_pi_enclosure_matches_oracle_and_tightens():
    for p in (5, 10, 30, 80, 200):
        enc = pi_enclosure(p)
        assert encloses(enc, mpmath.pi)
        assert enc.width <= Fraction(1, 2 ** p)


@pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-1),
                               Fraction(10), Fraction(-7, 3),
                               Fraction(355, 113), Fraction(1000, 7)])
def test_point_trig_exp_against_oracle(x):
    p = 50
    v = mpf(x)
    assert encloses(sin_enclosure(ival(x), p), mpmath.sin(v))
    assert encloses(cos_enclosure(ival(x), p), mpmath.cos(v))
    if abs(x) <= 30:
        assert encloses(exp_enclosure(ival(x), p), mpmath.exp(v))


def test_point_enclosures_are_tight():
    p = 40
    for x in (Fraction(1), Fraction(-7, 3), Fraction(10)):
        assert sin_enclosure(ival(x), p).width <= Fraction(1, 2 ** p)
        assert cos_enclosure(ival(x), p).width <= Fraction(1, 2 ** p)
        assert exp_enclosure(ival(x), p).width <= Fraction(1, 2 ** p)


def test_trig_ranges_include_interior_extrema():
    # sin over [1, 4] attains its maximum 1 at pi/2 in the interior
    enc = sin_enclosure(ival(1, 4), 30)
    assert enc.hi == 1
    assert encloses(enc, mpmath.sin(4))
    # cos over [3, 4] attains its minimum -1 at pi
    enc = cos_enclosure(ival(3, 4), 30)
    assert enc.lo == -1


def test_trig_output_stays_in_unit_range():
    for lo, hi in [(-100, 100), (0, 7), (-1, 1)]:
        enc = sin_enclosure(ival(lo, hi), 20)
        assert -1 <= enc.lo <= enc.hi <= 1


@pytest.mark.parametrize("x", [2 ** 20 + 1, 2 ** 40 + 1, 2 ** 60 + 1,
                               -(2 ** 60) - 1, Fraction(3 ** 80, 7)])
@pytest.mark.parametrize("p", [10, 30, 64])
def test_large_arguments_meet_the_accuracy_contract(x, p):
    """Argument reduction keeps enough bits of pi for any |x|: the point
    enclosures hold the value, are no wider than 2**-p, and come fast."""
    x = Fraction(x)
    for fn, ref in ((sin_enclosure, mpmath.sin), (cos_enclosure, mpmath.cos)):
        start = time.perf_counter()
        enc = fn(ival(x), p)
        assert time.perf_counter() - start < 1
        with mpmath.workdps(60 + len(str(x.numerator))):
            assert encloses(enc, ref(mpf(x)))
        assert enc.width <= Fraction(1, 2 ** p)


@pytest.mark.parametrize("j", [2 ** 20, 2 ** 41 + 1, 2 ** 60])
def test_large_arguments_find_the_extrema(j):
    """Near pi*(j + 1/2) for huge j, sin reaches +-1 inside an interval
    around it and stays tight at a point just off it."""
    with mpmath.workdps(120):
        t = mpmath.pi * (j + mpmath.mpf(1) / 2)
        near = Fraction(int(mpmath.floor(t * 2 ** 80)), 2 ** 80)
        enc = sin_enclosure(ival(near - Fraction(1, 2 ** 10), near + Fraction(1, 2 ** 10)), 20)
        assert (enc.hi == 1) if j % 2 == 0 else (enc.lo == -1)
        point = sin_enclosure(ival(near), 40)
        assert encloses(point, mpmath.sin(mpf(near)))
        assert point.width <= Fraction(1, 2 ** 40)
        # an interval between two extrema reaches neither
        gap = sin_enclosure(ival(near + Fraction(1, 4), near + 3), 20)
        assert -1 < gap.lo and gap.hi < 1


@given(rationals, small_precs)
@settings(max_examples=150, deadline=None)
def test_sin_point_soundness(x, p):
    enc = sin_enclosure(ival(x), p)
    assert encloses(enc, mpmath.sin(mpf(x)))
    assert enc.width <= Fraction(1, 2 ** p)


@given(rationals, rationals, small_precs)
@settings(max_examples=100, deadline=None)
def test_cos_interval_soundness_via_sampling(a, b, p):
    lo, hi = min(a, b), max(a, b)
    enc = cos_enclosure(ival(lo, hi), p)
    for t in (0, Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), 1):
        x = lo + (hi - lo) * t
        assert encloses(enc, mpmath.cos(mpf(x)))


@given(st.fractions(min_value=-20, max_value=20, max_denominator=97),
       small_precs)
@settings(max_examples=100, deadline=None)
def test_exp_point_soundness(x, p):
    enc = exp_enclosure(ival(x), p)
    assert encloses(enc, mpmath.exp(mpf(x)))
    assert enc.lo > 0


@given(st.fractions(min_value=0, max_value=1000, max_denominator=997),
       small_precs)
@settings(max_examples=100, deadline=None)
def test_sqrt_point_soundness(x, p):
    enc = sqrt_enclosure(ival(x), p)
    assert encloses(enc, mpmath.sqrt(mpf(x)))
    assert enc.width <= Fraction(1, 2 ** p)


def test_sqrt_rejects_negative_inputs():
    with pytest.raises(DomainError):
        sqrt_enclosure(ival(-1, 1), 10)
    assert sqrt_enclosure(ival(0, 4), 10).lo == 0


@given(st.fractions(min_value=-10, max_value=10, max_denominator=97))
@settings(max_examples=60, deadline=None)
def test_enclosures_shrink_with_precision(x):
    """Higher precision yields a strictly narrower, overlapping enclosure."""
    for fn in (sin_enclosure, exp_enclosure):
        coarse = fn(ival(x), 8)
        fine = fn(ival(x), 32)
        assert fine.lo <= coarse.hi and coarse.lo <= fine.hi  # they overlap
        assert fine.width <= coarse.width
