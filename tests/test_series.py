"""Transcendental enclosures checked against mpmath as an independent
high-precision oracle, plus soundness and convergence properties."""
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from quasisat import series
from quasisat.intervals import DomainError, ival

import oracles
from oracles import to_interval, width


def _on_ratintervals(enclosure):
    """The enclosure returning `RatInterval`s, for the checks below that
    state their results as rationals."""
    return lambda x, p: to_interval(enclosure(x, p))


sin_enclosure = _on_ratintervals(series.sin_enclosure)
cos_enclosure = _on_ratintervals(series.cos_enclosure)
exp_enclosure = _on_ratintervals(series.exp_enclosure)
sqrt_enclosure = _on_ratintervals(series.sqrt_enclosure)


def pi_enclosure(p):
    return to_interval(series.pi_enclosure(p))

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
        assert width(enc) <= Fraction(1, 2 ** p)


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
        assert width(sin_enclosure(ival(x), p)) <= Fraction(1, 2 ** p)
        assert width(cos_enclosure(ival(x), p)) <= Fraction(1, 2 ** p)
        assert width(exp_enclosure(ival(x), p)) <= Fraction(1, 2 ** p)


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
        assert width(enc) <= Fraction(1, 2 ** p)


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
        assert width(point) <= Fraction(1, 2 ** 40)
        # an interval between two extrema reaches neither
        gap = sin_enclosure(ival(near + Fraction(1, 4), near + 3), 20)
        assert -1 < gap.lo and gap.hi < 1


@given(rationals, small_precs)
@settings(max_examples=150, deadline=None)
def test_sin_point_soundness(x, p):
    enc = sin_enclosure(ival(x), p)
    assert encloses(enc, mpmath.sin(mpf(x)))
    assert width(enc) <= Fraction(1, 2 ** p)


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
    assert width(enc) <= Fraction(1, 2 ** p)


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
        assert width(fine) <= width(coarse)


# ---------------------------------------------------------------------------
# exactness: the integer enclosures return the rationals of the `Fraction`
# reference in tests/oracles.py

precs = st.integers(min_value=1, max_value=80)
multipliers = st.integers(min_value=2, max_value=10 ** 4)
dens = st.one_of(st.integers(min_value=0, max_value=40).map(lambda k: 1 << k),
                 st.integers(min_value=1, max_value=10 ** 6))


@st.composite
def ivals(draw, mag=2 ** 60, nonneg=False):
    """(lo, hi, den) with |x| up to `mag`: dyadic or not, a point, a
    narrow interval, or one of width up to 10 (past a full period)."""
    den = draw(dens)
    bound = draw(st.sampled_from([m for m in (8, 2 ** 20, 2 ** 40, 2 ** 60) if m <= mag]))
    lo = draw(st.integers(min_value=0 if nonneg else -bound * den, max_value=bound * den))
    width = draw(st.sampled_from([0, 1, 10]))
    return lo, lo + draw(st.integers(min_value=0, max_value=width * den)), den


def assert_matches_reference(name, x, p, m=7):
    want = getattr(oracles, name)(to_interval(x), p)
    assert to_interval(getattr(series, name)(x, p)) == want
    # the same rational over a multiple of its denominator
    assert to_interval(getattr(series, name)((x[0] * m, x[1] * m, x[2] * m), p)) == want


@pytest.mark.parametrize("name", ["sin_enclosure", "cos_enclosure"])
@given(x=ivals(), p=precs, m=multipliers)
@settings(max_examples=250, deadline=None)
def test_trig_equals_the_fraction_reference(name, x, p, m):
    assert_matches_reference(name, x, p, m)


@given(x=ivals(mag=8), p=precs, m=multipliers)
@settings(max_examples=150, deadline=None)
def test_exp_equals_the_fraction_reference(x, p, m):
    assert_matches_reference("exp_enclosure", x, p, m)


@given(x=ivals(nonneg=True), p=precs, m=multipliers)
@settings(max_examples=150, deadline=None)
def test_sqrt_equals_the_fraction_reference(x, p, m):
    assert_matches_reference("sqrt_enclosure", x, p, m)


def test_pi_and_series_bounds_equal_the_fraction_reference():
    for p in range(1, 401):
        assert to_interval(series.pi_enclosure(p)) == oracles.pi_enclosure(p)
    for q in range(1, 400):
        for odd in (True, False):
            assert series._series_terms(q, odd) == oracles.series_terms(q, odd)
        for deg in (2, 3, 17, 40):
            assert series._remainder_fix(q, deg) == oracles.remainder_fix(q, deg)


@pytest.mark.parametrize("x", [(8, 8, 2), (9, 9, 2), (-9, 9, 2), (2 ** 61 + 1, 2 ** 61 + 1, 3),
                               (-(2 ** 62), -(2 ** 62) + 1, 4), (0, 14, 2)])
def test_edge_arguments_equal_the_fraction_reference(x):
    """Arguments at 4 and 9/2, either side of the bound below which no
    reduction is made, straddling zero, huge and non-dyadic, and exactly
    7 wide."""
    for name in ("sin_enclosure", "cos_enclosure"):
        for p in (1, 13, 64):
            assert_matches_reference(name, x, p)


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("p", [3, 20])
def test_reduction_rounds_a_half_to_even(j, p):
    """At x = (j + 1/2) * 2*m, m the midpoint of the pi enclosure that the
    reduction uses, k = round(x / 2m) is a half and goes to the even
    neighbour, as round() of a `Fraction` does."""
    pl, ph, pd = series.pi_enclosure(p + 12)
    n = (2 * j + 1) * (pl + ph)
    for name in ("sin_enclosure", "cos_enclosure"):
        assert_matches_reference(name, (n, n, 2 * pd), p)


def test_no_fraction_is_built_per_call(monkeypatch):
    """sin, cos, exp, sqrt and pi build no `Fraction`, even when their
    caches, pi's among them, are cold."""
    calls = [(series.sin_enclosure, (3, 5, 7)), (series.cos_enclosure, (3, 5, 7)),
             (series.sin_enclosure, (2 ** 61 + 1, 2 ** 61 + 9, 3)),
             (series.cos_enclosure, (-9, 9, 2)), (series.exp_enclosure, (-9, 20, 4)),
             (series.sqrt_enclosure, (5, 11, 3))]
    for fn, x in calls:
        fn(x, 40)
    for cached in (series._trig_point, series._exp_point, series._series_terms,
                   series._remainder_fix, series.pi_enclosure):
        cached.cache_clear()
    built = []
    new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__",
                        staticmethod(lambda cls, *a, **k: built.append(a) or new(cls, *a, **k)))
    assert Fraction(1, 2) == Fraction(2, 4) and len(built) == 2  # the hook counts
    built.clear()
    for fn, x in calls:
        fn(x, 40)
    assert built == []
