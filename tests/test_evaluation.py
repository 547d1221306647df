"""Interval evaluation of terms: soundness and lower bounds."""
import random
from fractions import Fraction

import mpmath

from quasisat import terms as T
from quasisat.evaluation import eval_term, positive_lower_bound
from quasisat.intervals import Precision, box, ival
from quasisat.parser import parse

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


def test_point_evaluation_soundness_random():
    rng = random.Random(7)
    t = parse("exists x in [0,4], y in [-2,2] ."
              " sin(pi*x) + exp(y)*sqrt(x) - x^2/3 = 0").body.term
    b = box(ival(0, 4), ival(-2, 2))
    for _ in range(300):
        xv = Fraction(rng.randint(0, 4096), 1024)
        yv = Fraction(rng.randint(-2048, 2048), 1024)
        enc = eval_term(t, box(ival(xv), ival(yv)), ("x", "y"), Precision(40))
        true = mp_eval(t, {"x": mpf(xv), "y": mpf(yv)})
        assert mpf(enc.lo) <= true <= mpf(enc.hi)
        assert enc.width <= Fraction(1, 2 ** 30)
    del b


def test_interval_evaluation_contains_sampled_values():
    t = parse("exists x in [0,4] . cos(x)*x - 1/2 = 0").body.term
    enc = eval_term(t, box(ival(0, 4)), ("x",), Precision(20))
    for k in range(17):
        xv = Fraction(k, 4)
        true = mp_eval(t, {"x": mpf(xv)})
        assert mpf(enc.lo) <= true <= mpf(enc.hi)


def test_positive_lower_bound_is_verified():
    b = box(ival(0, 1))
    g = T.Add(T.Pow(X, 2), T.Const(1))  # x^2 + 1 >= 1 on [0,1]
    lb = positive_lower_bound([g], b, ("x",), Precision(10))
    assert lb is not None and 0 < lb <= 1
    assert positive_lower_bound([X], b, ("x",), Precision(10)) is None
