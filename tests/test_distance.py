"""Structural distance between sentences and supremum enclosures."""
import random
import threading
from fractions import Fraction
from functools import reduce
from itertools import product
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from quasisat import distance as D, terms as T
from quasisat.distance import INFINITE, MAX_CELLS, distance_enclosure, sup_abs_enclosure
from quasisat.formulas import And, Eq, Exists, Geq
from quasisat.intervals import DomainError, ival
from quasisat.parser import parse

import oracles
from oracles import width

TOL = Fraction(1, 1000)

PAIR_A = ("exists x in [0,1] . forall y in [0,1] . "
          "x^2 - y = x*y and x = y")
PAIR_B = ("exists x in [0,1] . forall y in [0,1] . "
          "x^2 - y = x*y + 1 and x = y^2")


def test_sup_abs_enclosure_on_parabola():
    # max |y - y^2| over [0,1] is 1/4, attained at y = 1/2
    t = T.Sub(T.Var("y"), T.Pow(T.Var("y"), 2))
    enc = sup_abs_enclosure(t, ("y",), (ival(0, 1),), TOL)
    assert oracles.contains(enc, Fraction(1, 4))
    assert width(enc) <= TOL


def test_sup_abs_enclosure_trivial_cases():
    t = T.Const(Fraction(-3, 2))
    enc = sup_abs_enclosure(t, (), (ival(0, 1),), TOL)
    assert oracles.contains(enc, Fraction(3, 2))
    enc = sup_abs_enclosure(T.Var("y"), ("y",), (ival(-2, 1),), TOL)
    assert oracles.contains(enc, 2) and width(enc) <= TOL


def test_sup_abs_nested_refinement_is_consistent():
    """Tightening the tolerance yields a sub-interval of the looser run."""
    t = T.Sub(T.Sin(T.Var("y")), T.Mul(T.Var("y"), T.Var("y")))
    b = (ival(0, 2),)
    loose = sup_abs_enclosure(t, ("y",), b, Fraction(1, 10))
    tight = sup_abs_enclosure(t, ("y",), b, Fraction(1, 10000))
    assert oracles.issubset(tight, loose)
    assert width(tight) <= Fraction(1, 10000)


def test_distance_of_sentence_to_itself_is_zero():
    f = parse(PAIR_A)
    enc = distance_enclosure(f, f, TOL)
    assert oracles.contains(enc, 0) and width(enc) <= TOL


def test_distance_of_structurally_different_sentences_is_infinite():
    f = parse("1 >= 0")
    g = parse("1 >= 0 and 1 >= 0")
    assert distance_enclosure(f, g, TOL) is INFINITE


def test_distance_fixture_pair():
    """Two aligned atom pairs: a constant shift of 1 and the parabola
    gap max |y - y^2| = 1/4; the max is exactly 1."""
    enc = distance_enclosure(parse(PAIR_A), parse(PAIR_B), TOL)
    assert enc is not INFINITE
    assert oracles.contains(enc, 1)
    assert width(enc) <= TOL


def _at_top_level(fn):
    """fn() at the stack depth of a script's top level, not of the test
    runner's: in a thread of its own, whose depth starts at zero."""
    out = {}

    def run():
        try:
            out["value"] = fn()
        except BaseException as e:  # re-raised in the calling thread
            out["error"] = e
    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if "error" in out:
        raise out["error"]
    return out["value"]


def test_distance_between_two_parses_of_a_480_factor_product():
    """Depth pin: the same deep product parsed twice is at distance 0
    when queried from a script's top level.  The aligned summands are
    compared by `==`, and what differs is expanded by `_expand`, both on
    explicit stacks, so the product's depth costs no recursion (two
    850-factor products are compared under 300 extra frames below)."""
    text = "exists x in [1,2] . " + "*".join(["x"] * 480) + " - 1 = 0"
    enc = _at_top_level(lambda: distance_enclosure(parse(text), parse(text), TOL))
    assert (enc.lo, enc.hi) == (0, 0)


def _under(frames: int, fn):
    """fn() called under `frames` extra frames of the caller's own."""
    return fn() if frames == 0 else _under(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 300])
def test_the_distance_of_850_factor_products_needs_no_recursion(frames):
    """x*…*x with 850 factors against 2*x*…*x with 849, each minus 1: the
    difference expands on an explicit stack, so the distance brackets
    sup |x^850 - 2*x^849| = 1 on [0,1] at a script's top level and under
    300 extra frames alike."""
    f = parse("exists x in [0,1] . " + "*".join(["x"] * 850) + " - 1 = 0")
    g = parse("exists x in [0,1] . 2*" + "*".join(["x"] * 849) + " - 1 = 0")
    enc = _at_top_level(lambda: _under(frames, lambda: distance_enclosure(f, g, TOL)))
    assert oracles.contains(enc, 1) and width(enc) <= TOL


def test_distance_requires_positive_tolerance():
    f = parse("1 >= 0")
    with pytest.raises(ValueError):
        distance_enclosure(f, f, Fraction(0))
    with pytest.raises(ValueError):
        sup_abs_enclosure(T.Var("y"), ("y",), (ival(0, 1),), Fraction(-1))


def test_a_variable_bound_by_no_quantifier_raises_value_error():
    """A difference that mentions a free variable is named in a
    ValueError, as `quasi_decide` names it, not a KeyError of the tape."""
    env = {"x": ival(0, 1)}
    with pytest.raises(ValueError, match=r"free variables.*\['x'\]"):
        distance_enclosure(parse("x >= 0", env), parse("2*x >= 0", env), TOL)
    f = parse("exists y in [0,1] . x*y >= 0", env)
    g = parse("exists y in [0,1] . 2*x*y >= 0", env)
    with pytest.raises(ValueError, match=r"free variables.*\['x'\]"):
        distance_enclosure(f, g, TOL)
    with pytest.raises(ValueError, match=r"free variables.*\['x', 'z'\]"):
        sup_abs_enclosure(parse("x + y*z >= 0", {**env, "y": ival(0, 1), "z": ival(0, 1)}).term,
                          ("y",), (ival(0, 1),), TOL)


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
    b = tuple(bounds)
    t = _random_term(rng, vs)
    tol = Fraction(1, rng.choice((3, 16, 100)[:max(1, 3 - dim)]))  # 3-D costs most
    assert sup_abs_enclosure(t, names, b, tol) == oracles.sup_abs_enclosure(
        t, names, oracles.ratbox(b), tol)


def _enclosure_and_cells(t, names, b, tol):
    """`sup_abs_enclosure(t, names, b, tol)` and the number of cells its
    depths built: the first one and every cell of a bisection.  It is
    more than `MAX_CELLS` exactly when the work cap ended the call."""
    built = [1]
    bisect = D.bisect_box

    def counted(cell):
        halves = bisect(cell)
        built[0] += len(halves)
        return halves
    with mock.patch.object(D, "bisect_box", counted):
        enc = sup_abs_enclosure(t, names, b, tol)
    return enc, built[0]


def _affine(coeffs, const, names):
    t = T.Const(const)
    for a, n in zip(coeffs, names):
        t = T.Add(t, T.Mul(T.Const(a), T.Var(n)))
    return t


@pytest.mark.parametrize("coeffs, const, bounds", [
    ((Fraction(3, 64),), Fraction(-3, 32), ((Fraction(5, 8), Fraction(15, 8)),)),
    ((Fraction(-2, 7), Fraction(5, 3)), Fraction(1, 9),
     ((Fraction(-1, 3), Fraction(2, 7)), (Fraction(1, 2), Fraction(5, 4)))),
    ((Fraction(1, 5), Fraction(-3, 4), Fraction(7, 6)), Fraction(-1, 2),
     ((Fraction(-4, 3), Fraction(1, 6)), (Fraction(0), Fraction(3, 5)),
      (Fraction(-2, 9), Fraction(1, 3)))),
], ids=["1d", "2d", "3d"])
def test_affine_difference_is_exact_at_depth_zero(coeffs, const, bounds):
    """An affine term's enclosure is exact and its supremum sits at a
    corner, so the corner lower bound meets the upper bound at once."""
    names = ("x", "y", "z")[:len(coeffs)]
    t = _affine(coeffs, const, names)
    s = max(abs(const + sum(a * v for a, v in zip(coeffs, corner)))
            for corner in product(*bounds))
    enc = sup_abs_enclosure(t, names, tuple(ival(lo, hi) for lo, hi in bounds),
                            Fraction(1, 2 ** 40))
    assert enc.lo == enc.hi == s


@given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2 ** 32))
@example(2, 39)  # 4 + x*x - x*x + 0*x*y: the work cap stops it
@settings(max_examples=60, deadline=None)
def test_sup_abs_enclosure_bounds_every_node_of_a_5_grid(dim, seed):
    """enc.hi is at least |t| at every node of a uniform 5^dim grid of the
    box (|t| exact for polynomials, within 2^-64 with cos), and the
    bracket is no wider than the tolerance unless the work cap stopped
    the call (as `4 + x*x - x*x`, whose maximum fills its whole box)."""
    rng = random.Random(seed)
    names = ("x", "y", "z")[:dim]
    vs = [T.Var(n) for n in names] or [T.Pi()]
    bounds = []
    for _ in range(dim):
        lo = Fraction(rng.randint(-9, 6), rng.randint(1, 7))
        # narrower boxes in more dimensions: `_random_term` can hold
        # x*y - y*x, whose maximum fills a plane of cells
        bounds.append(ival(lo, lo + Fraction(rng.randint(0, 9 // dim), rng.randint(1, 7))))
    b = tuple(bounds)
    t = _random_term(rng, vs)
    tol = Fraction(1, rng.choice((3, 16, 100)))
    enc, cells = _enclosure_and_cells(t, names, b, tol)
    assert (width(enc) <= tol) is (cells <= MAX_CELLS)
    axes = [[iv.lo + width(iv) * i / 4 for i in range(5)] for iv in oracles.ratbox(b)]
    for node in product(*axes):
        env = {n: oracles.rival(v) for n, v in zip(names, node)}
        assert oracles.abs_interval(oracles.eval_env(t, env, 64)).lo <= enc.hi


def test_constant_difference_with_pi_meets_the_tolerance():
    """A difference without variables still deepens its precision until
    the bracket is no wider than the tolerance."""
    f = parse("exists x in [0,1] . x - pi = 0")
    g = parse("exists x in [0,1] . x - 3 = 0")
    tol = Fraction(1, 10 ** 6)
    enc = distance_enclosure(f, g, tol)
    assert width(enc) <= tol
    assert enc.lo <= Fraction(314159265, 10 ** 8) - 3 and Fraction(314159266, 10 ** 8) - 3 <= enc.hi


def test_axes_the_term_does_not_mention_change_nothing():
    # only x varies; y and z would multiply the active cells by 4 per depth
    t = T.Add(T.Const(Fraction(2, 3)), T.Add(T.Mul(T.Const(Fraction(-2, 3)), T.Var("x")),
                                             T.Mul(T.Const(Fraction(3, 4)), T.Var("x"))))
    xs = ival(Fraction(-5, 4), Fraction(13, 4))
    wide = (xs, ival(Fraction(-1, 3), Fraction(16, 15)), ival(Fraction(4, 5), Fraction(23, 10)))
    tol = Fraction(1, 100)
    assert sup_abs_enclosure(t, ("x", "y", "z"), wide, tol) == sup_abs_enclosure(t, ("x",), (xs,), tol)


def _mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


@pytest.mark.parametrize("f_text, g_text, want", [
    # depth 0 runs at p = 10, where sin(x) + 1/100000 may be negative near 0
    ("exists x in [0,1] . sqrt(sin(x) + 1/100000) - 1/2 = 0",
     "exists x in [0,1] . 2*sqrt(sin(x) + 1/100000) - 1/2 = 0",
     lambda: mpmath.sqrt(mpmath.sin(1) + mpmath.mpf(1) / 100000)),
    # no axis: the difference is a constant that only the precision settles
    ("exists x in [0,1] . x - sqrt(sin(1) - 8414709/10000000) = 0",
     "exists x in [0,1] . x = 0",
     lambda: mpmath.sqrt(mpmath.sin(1) - mpmath.mpf(8414709) / 10000000)),
], ids=["sqrt_near_zero", "no_axis"])
def test_a_cell_that_leaves_the_domain_is_kept_and_bisected(f_text, g_text, want):
    """Both sentences parse, as the parser checks their sqrt at precision
    30; a cell or corner whose evaluation leaves the domain at the lower
    precision of a depth bounds nothing, and the next depth bisects it."""
    tol = Fraction(1, 1000)
    with mpmath.workdps(40):
        enc = distance_enclosure(parse(f_text), parse(g_text), tol)
        assert width(enc) <= tol
        assert _mpf(enc.lo) <= want() <= _mpf(enc.hi)


# ---------------------------------------------------------------------------
# the work cap: each call evaluates at most MAX_CELLS cells


def test_a_pole_in_every_cell_raises_domain_error():
    """1/(x - 1/2) on [0,1]: at every depth the cell at 1/2 divides by an
    interval that holds 0, so no depth bounds |t|; the cap ends the
    search with DomainError instead of bisecting forever."""
    t = T.Div(T.Const(Fraction(1)), T.Sub(T.Var("x"), T.Const(Fraction(1, 2))))
    with pytest.raises(DomainError):
        sup_abs_enclosure(t, ("x",), (ival(0, 1),), Fraction(1, 10))


def test_a_maximum_on_a_plane_of_cells_stops_at_the_cap():
    """x*z - x*z cancels only symbolically, so sup |t| = 8/5, reached on
    the whole plane y = -5, keeps every cell of that plane active; the
    capped bracket is the last depth's, sound but wider than tol."""
    f = parse("exists x in [2,22/7], y in [-5,-1/2], z in [-3/2,-3/10] . "
              "-3/5 + 1/2*z*x - 1/2*x*z + 1/5*y = 0")
    tol = Fraction(1, 100)
    enc, cells = _enclosure_and_cells(f.body.term, f.vars, f.bounds, tol)
    assert cells > MAX_CELLS and width(enc) > tol
    assert oracles.contains(enc, Fraction(8, 5))


def test_a_high_degree_difference_stops_at_the_cap():
    """x^20 against 2*x^19 on [0,2]: sup |x^19*(x - 2)| = 19^19/10^20,
    about 19,784 at x = 19/10, would need a relative width of about
    6e-6; the capped bracket still contains it."""
    f = parse("exists x in [0,2] . " + "*".join(["x"] * 20) + " - 1 = 0")
    g = parse("exists x in [0,2] . 2*" + "*".join(["x"] * 19) + " - 1 = 0")
    enc = distance_enclosure(f, g, Fraction(1, 8))
    assert oracles.contains(enc, Fraction(19 ** 19, 10 ** 20))


# ---------------------------------------------------------------------------
# distance_enclosure against the reference


X, Y, Z = T.Var("x"), T.Var("y"), T.Var("z")
# reciprocal constants, so that products carry unreduced integer pairs
FACTORS = [X, Y, Z, T.Const(Fraction(1, 6)), T.Const(Fraction(3, 2)), T.Const(Fraction(-2, 3))]
SUMMANDS = st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3).map(lambda fs: reduce(T.Mul, fs))
SIGNED = st.tuples(SUMMANDS, st.booleans())  # (summand, added)
BOUNDS = st.tuples(st.sampled_from([Fraction(-1), Fraction(-1, 3), Fraction(0), Fraction(1, 2)]),
                   st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1)]))


def _append(t, signed):
    for s, added in signed:
        t = T.Add(t, s) if added else T.Sub(t, s)
    return t


def _sentence(bounds, first, second):
    return Exists(("x", "y", "z"), tuple(ival(lo, lo + w) for lo, w in bounds),
                  And(Eq(first), Geq(second)))


@st.composite
def appended_pairs(draw):
    """Sentences f and g of one structure whose atoms differ only by 0-2
    summands that g appends to each of f's two atom terms."""
    bounds = draw(st.lists(BOUNDS, min_size=3, max_size=3))
    atoms = [_append(draw(SUMMANDS), draw(st.lists(SIGNED, max_size=2))) for _ in range(2)]
    tails = [draw(st.lists(SIGNED, max_size=2)) for _ in range(2)]
    return (_sentence(bounds, *atoms),
            _sentence(bounds, *(_append(a, tail) for a, tail in zip(atoms, tails))))


def _pair(*tails):
    """f = 1 - x = 0 and y*z >= 0 on a fixed box, and g with the
    given (summand, added) lists appended to its two atoms."""
    bounds = [(Fraction(-1, 3), Fraction(1))] * 3
    atoms = [T.Sub(T.Const(Fraction(1)), X), T.Mul(Y, Z)]
    return (_sentence(bounds, *atoms),
            _sentence(bounds, *(_append(a, tail) for a, tail in zip(atoms, tails))))


def c(q):
    return T.Const(Fraction(q))


@given(appended_pairs())
@example(_pair([], []))  # equal atoms: [0, 0]
@example(_pair([(T.Mul(X, Y), True)], []))  # a single leftover summand
@example(_pair([(T.Mul(X, Y), True), (T.Mul(Y, Z), False)], [(X, True), (Z, True)]))  # equal lengths
@example(_pair([(T.Mul(X, Z), True), (T.Mul(Z, X), False)], [(X, True), (X, False)]))  # counted
@example(_pair([(T.Mul(T.Mul(c(Fraction(1, 6)), X), c(Fraction(3, 2))), True)],
               [(T.Mul(c(Fraction(-2, 3)), c(Fraction(3, 2))), False)]))  # 1/4*x and -1
@settings(max_examples=40, deadline=None)
def test_distance_enclosure_equals_the_reference(pair):
    """Equal atoms add 0 without an expansion, a lone leftover summand is
    expanded without the counting dict, and an enclosure that holds both
    bounds is returned as it is; the bracket is still the reference's,
    which counts every summand and encloses every difference."""
    f, g = pair
    tol = Fraction(1, 16)
    assert distance_enclosure(f, g, tol) == oracles.distance_enclosure(f, g, tol)
