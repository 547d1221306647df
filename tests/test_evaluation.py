"""Interval evaluation of terms: soundness, exactness against the
`Fraction` reference, and lower bounds."""
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from quasisat import terms as T
from quasisat.evaluation import (_add, _constant_step, _div, _mul, _pow, _square, _sub, certify,
                                 compile_term, positive_lower_bound)
from quasisat.intervals import DomainError, ival
from quasisat.parser import parse

from oracles import eval_env, ratbox, to_interval, width

mpmath.mp.dps = 60

X, Y = T.Var("x"), T.Var("y")


def mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def mp_eval(t: T.Term, env: dict) -> mpmath.mpf:
    if isinstance(t, T.Const):
        return mpf(t.value)
    if isinstance(t, T.Pi):
        return mpmath.pi
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, T.Add):
        return mp_eval(t.left, env) + mp_eval(t.right, env)
    if isinstance(t, T.Sub):
        return mp_eval(t.left, env) - mp_eval(t.right, env)
    if isinstance(t, T.Neg):
        return -mp_eval(t.arg, env)
    if isinstance(t, T.Mul):
        return mp_eval(t.left, env) * mp_eval(t.right, env)
    if isinstance(t, T.Div):
        return mp_eval(t.left, env) / mp_eval(t.right, env)
    if isinstance(t, T.Pow):
        return mp_eval(t.base, env) ** t.exponent
    arg = mp_eval(t.arg, env)
    fn = {T.Sin: mpmath.sin, T.Cos: mpmath.cos,
          T.Exp: mpmath.exp, T.Sqrt: mpmath.sqrt}[type(t)]
    return fn(arg)


def enclose(t, b, names, p):
    return to_interval(compile_term(t, names)(list(b), p))


def test_point_evaluation_soundness_random():
    rng = random.Random(7)
    t = parse("exists x in [0,4], y in [-2,2] ."
              " sin(pi*x) + exp(y)*sqrt(x) - x^2/3 = 0").body.term
    evaluate = compile_term(t, ("x", "y"))
    for _ in range(300):
        xv = Fraction(rng.randint(0, 4096), 1024)
        yv = Fraction(rng.randint(-2048, 2048), 1024)
        enc = to_interval(evaluate([ival(xv), ival(yv)], 40))
        true = mp_eval(t, {"x": mpf(xv), "y": mpf(yv)})
        assert mpf(enc.lo) <= true <= mpf(enc.hi)
        assert width(enc) <= Fraction(1, 2 ** 30)


def test_interval_evaluation_contains_sampled_values():
    t = parse("exists x in [0,4] . cos(x)*x - 1/2 = 0").body.term
    enc = enclose(t, (ival(0, 4),), ("x",), 20)
    for k in range(17):
        xv = Fraction(k, 4)
        true = mp_eval(t, {"x": mpf(xv)})
        assert mpf(enc.lo) <= true <= mpf(enc.hi)


def test_positive_lower_bound_is_verified():
    env = [ival(0, 1)]
    g = T.Add(T.Pow(X, 2), T.Const(1))  # x^2 + 1 >= 1 on [0,1]
    lb = positive_lower_bound([compile_term(g, ("x",))], env, 10)
    assert lb is not None and 0 < lb <= 1
    assert positive_lower_bound([compile_term(X, ("x",))], env, 10) is None


def test_certify_names_the_first_component():
    env = [ival(0, 1)]
    below, above, across = (compile_term(parse(f"exists x in [0,1] . {t} = 0").body.term,
                                         ("x",))
                            for t in ("x - 2", "2*x + 3", "x - 1/2"))
    # x - 2 is in [-2, -1], 2x + 3 in [3, 5], x - 1/2 holds zero
    i, sign, num, den = certify([across, below, above], env, 10)
    assert (i, sign) == (1, -1) and Fraction(num, den) == 1
    assert all(type(v) is int for v in (num, den)) and den > 0
    assert certify([across], env, 10) is None


# ---------------------------------------------------------------------------
# exactness: the compiled evaluator on integer numerators gives the very
# rationals of the recursive `Fraction` evaluator, and fails where it fails

NAMES = ("p", "x", "y")  # p plays a parameter of the block over x, y
constants = st.sampled_from([0, 1, -2, 3, Fraction(1, 2), Fraction(-3, 4),
                             Fraction(1, 3), Fraction(5, 7), Fraction(-22, 7)])
endpoints = st.sampled_from([Fraction(-3, 2), -1, Fraction(-1, 3), 0,
                             Fraction(1, 4), Fraction(1, 3), Fraction(5, 7),
                             1, Fraction(7, 4)])


def _terms():
    leaves = st.one_of(st.builds(T.Const, constants), st.just(T.Pi()),
                       st.sampled_from([T.Var(n) for n in NAMES]))

    const = st.builds(T.Const, constants)

    def arithmetic(sub):
        # a constant as the left or the right operand gets a step of its
        # own kind where the compiler has one (`_constant_step`)
        return st.one_of(*(
            st.builds(op, *operands)
            for op in (T.Add, T.Sub, T.Mul, T.Div)
            for operands in ((sub, sub), (const, sub), (sub, const))), st.builds(T.Neg, sub))

    # exp gets small arguments: a huge one makes its enclosure slow
    small = st.recursive(leaves, arithmetic, max_leaves=3)
    return st.recursive(leaves, lambda sub: st.one_of(
        arithmetic(sub),
        # the square has a step of its own
        st.builds(T.Pow, sub, st.just(2) | st.integers(min_value=0, max_value=4)),
        st.builds(T.Sqrt, sub), st.builds(T.Sin, sub),
        st.builds(T.Cos, sub), st.builds(T.Exp, small)), max_leaves=10)


@st.composite
def _boxes(draw):
    ivs = []
    for _ in NAMES:
        a, b = draw(endpoints), draw(endpoints)
        ivs.append(ival(min(a, b), max(a, b)))  # a == b gives a point
    return tuple(ivs)


def _outcome(fn):
    try:
        return fn()
    except DomainError:
        return DomainError


@given(_terms(), _boxes(), st.sampled_from([4, 12, 30]))
@settings(max_examples=400, deadline=None)
def test_compiled_evaluation_equals_the_fraction_reference(t, b, p):
    env = dict(zip(NAMES, ratbox(b).intervals))
    want = _outcome(lambda: eval_env(t, env, p))
    got = _outcome(lambda: compile_term(t, NAMES)(list(b), p))
    if want is DomainError:
        assert got is DomainError
    else:
        assert got is not DomainError and got[2] > 0
        assert to_interval(got) == want


@given(_terms())
@settings(max_examples=300, deadline=None)
def test_a_tape_reports_the_free_variables_of_its_term(t):
    """The names a compiled tape reads are its term's free variables, and
    each of them missing from the names is a KeyError."""
    free = T.free_vars(t)
    assert compile_term(t, NAMES).reads == free
    for missing in free:
        with pytest.raises(KeyError):
            compile_term(t, [name for name in NAMES if name != missing])


@pytest.mark.parametrize("env", [[], [ival(0, 1)], [ival(0, 1)] * 3])
def test_a_tape_rejects_an_environment_of_the_wrong_length(env):
    """A tape takes exactly one interval per name: a shorter or a longer
    environment is a ValueError, not an IndexError or a silent shift."""
    evaluate = compile_term(T.Sub(X, Y), ("x", "y"))
    with pytest.raises(ValueError, match=f"{len(env)} intervals for the 2 variables"):
        evaluate(env, 10)
    assert evaluate([ival(1, 2), ival(0, 1)], 10) == (0, 2, 1)


def test_evaluation_depth_is_not_bounded_by_the_stack():
    t = X
    for _ in range(20_000):  # far deeper than the recursion limit
        t = T.Add(t, T.Neg(X))
    lo, hi, den = compile_term(t, ("x",))([ival(0, 1)], 10)
    assert (Fraction(lo, den), Fraction(hi, den)) == (-20_000, 1)


# ---------------------------------------------------------------------------
# step kinds: a step with a constant operand, and the square, return the
# very triple of the generic operation they replace

GENERIC = {T.Add: _add, T.Sub: _sub, T.Mul: _mul, T.Div: _div}


@st.composite
def _triples(draw):
    """An interval of any sign; denominator 1 meets an integer constant's."""
    lo, hi = sorted((draw(st.integers(-40, 40)), draw(st.integers(-40, 40))))
    return lo, hi, draw(st.sampled_from([1, 1, 2, 3, 12, 2 ** 20]))


@given(_triples(), st.sampled_from(list(GENERIC)), st.booleans(),
       constants | st.fractions(-30, 30, max_denominator=20))
@settings(max_examples=600, deadline=None)
def test_a_constant_operand_step_returns_the_generic_triple(a, cls, right, c):
    c = Fraction(c)
    const = (c.numerator, c.numerator, c.denominator)
    operands = (a, const) if right else (const, a)
    step = _constant_step(cls, c, right)
    if step is None:  # a non-integer sum or difference, c / t and t / 0 stay generic
        assert (cls in (T.Add, T.Sub) and c.denominator > 1
                or cls is T.Div and not (right and c))
        return
    op, parameter = step
    assert op(a, parameter, 10) == GENERIC[cls](*operands, 10)


@given(_triples())
def test_the_square_step_returns_the_generic_triple(a):
    assert _square(a, None, 10) == _pow(a, 2, 10)


@pytest.mark.parametrize("t", [T.Div(X, T.Const(0)), T.Div(T.Const(1), T.Const(0)),
                               T.Div(T.Add(X, T.Const(2)), T.Const(0))])
def test_a_division_by_a_zero_constant_raises_domain_error(t):
    with pytest.raises(DomainError):
        compile_term(t, ("x",))([ival(0, 1)], 10)
