"""Structural distance between sentences and supremum enclosures."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasisat import terms as T
from quasisat.distance import INFINITE, distance_enclosure, sup_abs_enclosure
from quasisat.intervals import RatBox, box, ival
from quasisat.parser import parse

import oracles

TOL = Fraction(1, 1000)

PAIR_A = ("exists x in [0,1] . forall y in [0,1] . "
          "x^2 - y = x*y and x = y")
PAIR_B = ("exists x in [0,1] . forall y in [0,1] . "
          "x^2 - y = x*y + 1 and x = y^2")


def test_sup_abs_enclosure_on_parabola():
    # max |y - y^2| over [0,1] is 1/4, attained at y = 1/2
    t = T.Sub(T.Var("y"), T.Pow(T.Var("y"), 2))
    enc = sup_abs_enclosure(t, ("y",), box(ival(0, 1)), TOL)
    assert enc.contains(Fraction(1, 4))
    assert enc.width <= TOL


def test_sup_abs_enclosure_trivial_cases():
    t = T.Const(Fraction(-3, 2))
    enc = sup_abs_enclosure(t, (), box(ival(0, 1)), TOL)
    assert enc.contains(Fraction(3, 2))
    enc = sup_abs_enclosure(T.Var("y"), ("y",), box(ival(-2, 1)), TOL)
    assert enc.contains(2) and enc.width <= TOL


def test_sup_abs_nested_refinement_is_consistent():
    """Tightening the tolerance yields a sub-interval of the looser run."""
    t = T.Sub(T.Sin(T.Var("y")), T.Mul(T.Var("y"), T.Var("y")))
    b = box(ival(0, 2))
    loose = sup_abs_enclosure(t, ("y",), b, Fraction(1, 10))
    tight = sup_abs_enclosure(t, ("y",), b, Fraction(1, 10000))
    assert tight.issubset(loose)
    assert tight.width <= Fraction(1, 10000)


def test_distance_of_sentence_to_itself_is_zero():
    f = parse(PAIR_A)
    enc = distance_enclosure(f, f, TOL)
    assert enc.contains(0) and enc.width <= TOL


def test_distance_of_structurally_different_sentences_is_infinite():
    f = parse("1 >= 0")
    g = parse("1 >= 0 and 1 >= 0")
    assert distance_enclosure(f, g, TOL) is INFINITE


def test_distance_fixture_pair():
    """Two aligned atom pairs: a constant shift of 1 and the parabola
    gap max |y - y^2| = 1/4; the max is exactly 1."""
    enc = distance_enclosure(parse(PAIR_A), parse(PAIR_B), TOL)
    assert enc is not INFINITE
    assert enc.contains(1)
    assert enc.width <= TOL


def test_distance_requires_positive_tolerance():
    f = parse("1 >= 0")
    with pytest.raises(ValueError):
        distance_enclosure(f, f, Fraction(0))
    with pytest.raises(ValueError):
        sup_abs_enclosure(T.Var("y"), ("y",), box(ival(0, 1)), Fraction(-1))


def test_distance_with_pure_constant_shift():
    f = parse("exists x in [0,1] . x = 0")
    g = parse("exists x in [0,1] . x = 3/2")
    enc = distance_enclosure(f, g, TOL)
    assert enc.lo == enc.hi == Fraction(3, 2)  # symbolic, exact


def _random_term(rng, vs) -> T.Term:
    t = T.Const(Fraction(rng.randint(-5, 5), rng.randint(1, 7)))
    for _ in range(rng.randint(1, 3)):
        mono = T.Const(Fraction(rng.randint(-3, 3), rng.randint(1, 5)))
        for _ in range(rng.randint(1, 2)):
            mono = T.Mul(mono, rng.choice(vs))
        t = T.Add(t, mono)
    if rng.random() < 0.2:
        t = T.Sub(t, T.Cos(rng.choice(vs)))
    return t


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_sup_abs_enclosure_equals_the_ratbox_reference(dim, seed):
    """On random boxes with non-dyadic (and degenerate) bounds, the
    integer-cell enclosure returns the `RatBox` reference's bracket."""
    rng = random.Random(seed)
    names = ("x", "y", "z")[:dim]
    vs = [T.Var(n) for n in names] or [T.Pi()]
    bounds = []
    for _ in range(dim):
        lo = Fraction(rng.randint(-9, 6), rng.randint(1, 7))
        # narrower boxes in more dimensions keep the reference's cost down
        bounds.append(ival(lo, lo + Fraction(rng.randint(0, 9 // dim), rng.randint(1, 7))))
    b = RatBox(tuple(bounds))
    t = _random_term(rng, vs)
    tol = Fraction(1, rng.choice((3, 16, 100)[:max(1, 3 - dim)]))  # 3-D costs most
    assert sup_abs_enclosure(t, names, b, tol) == oracles.sup_abs_enclosure(t, names, b, tol)
