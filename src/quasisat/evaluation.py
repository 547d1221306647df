"""Rigorous interval evaluation of terms over rational boxes."""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .intervals import Precision, RatBox, RatInterval, ival
from .series import cos_enclosure, exp_enclosure, pi_enclosure, sin_enclosure, sqrt_enclosure
from . import terms as T


def eval_env(t: T.Term, env: Mapping[str, RatInterval], prec: Precision) -> RatInterval:
    """Natural interval extension under a name -> interval binding."""
    if isinstance(t, T.Const):
        return ival(t.value, t.value)
    if isinstance(t, T.Pi):
        return pi_enclosure(prec.p)
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, T.Add):
        return eval_env(t.left, env, prec) + eval_env(t.right, env, prec)
    if isinstance(t, T.Sub):
        return eval_env(t.left, env, prec) - eval_env(t.right, env, prec)
    if isinstance(t, T.Neg):
        return -eval_env(t.arg, env, prec)
    if isinstance(t, T.Mul):
        return eval_env(t.left, env, prec) * eval_env(t.right, env, prec)
    if isinstance(t, T.Div):
        return eval_env(t.left, env, prec).divide(eval_env(t.right, env, prec))
    if isinstance(t, T.Pow):
        return eval_env(t.base, env, prec).pow_nat(t.exponent)
    if isinstance(t, T.Sin):
        return sin_enclosure(eval_env(t.arg, env, prec), prec.p)
    if isinstance(t, T.Cos):
        return cos_enclosure(eval_env(t.arg, env, prec), prec.p)
    if isinstance(t, T.Exp):
        return exp_enclosure(eval_env(t.arg, env, prec), prec.p)
    if isinstance(t, T.Sqrt):
        return sqrt_enclosure(eval_env(t.arg, env, prec), prec.p)
    raise TypeError(f"unknown term node: {type(t).__name__}")


def make_env(names: Sequence[str], box: RatBox) -> dict[str, RatInterval]:
    if len(names) != box.dim:
        raise ValueError("variable list and box dimension differ")
    return dict(zip(names, box.intervals))


def eval_term(t: T.Term, box: RatBox, names: Sequence[str], prec: Precision) -> RatInterval:
    return eval_env(t, make_env(names, box), prec)


def positive_lower_bound(
    ts: Sequence[T.Term], box: RatBox, names: Sequence[str], prec: Precision
) -> Fraction | None:
    """min over components of the enclosure lower bound, if all positive."""
    env = make_env(names, box)
    best: Fraction | None = None
    for t in ts:
        lo = eval_env(t, env, prec).lo
        if lo <= 0:
            return None
        if best is None or lo < best:
            best = lo
    return best
