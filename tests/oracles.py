"""Independent reference implementations the tests compare the solver
against: interval evaluation on `Fraction` endpoints, exact and float
term evaluation, a float winding count for planar degrees, and full
sweeps over every cell and face of a grid."""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from quasisat import terms as T
from quasisat.geometry import BoxComplex, CellIndex, Face, Grid, oriented_boundary
from quasisat.intervals import Precision, RatBox, RatInterval, ival
from quasisat.series import (cos_enclosure, exp_enclosure, pi_enclosure,
                             sin_enclosure, sqrt_enclosure)


def eval_env(t: T.Term, env: Mapping[str, RatInterval], prec: Precision) -> RatInterval:
    """Natural interval extension under a name -> interval binding, by
    recursion over the term and `RatInterval` arithmetic."""
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


def is_polynomial(t: T.Term) -> bool:
    if isinstance(t, (T.Const, T.Var)):
        return True
    if isinstance(t, (T.Pi, T.Sin, T.Cos, T.Exp, T.Sqrt)):
        return False
    if isinstance(t, (T.Add, T.Sub, T.Mul, T.Div)):
        return is_polynomial(t.left) and is_polynomial(t.right)
    if isinstance(t, T.Pow):
        return is_polynomial(t.base)
    return is_polynomial(t.arg)  # Neg


def exact_eval(t: T.Term, env: Mapping[str, Fraction]) -> Fraction:
    """Exact rational evaluation; fails on transcendental nodes."""
    if isinstance(t, T.Const):
        return t.value
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, T.Add):
        return exact_eval(t.left, env) + exact_eval(t.right, env)
    if isinstance(t, T.Sub):
        return exact_eval(t.left, env) - exact_eval(t.right, env)
    if isinstance(t, T.Neg):
        return -exact_eval(t.arg, env)
    if isinstance(t, T.Mul):
        return exact_eval(t.left, env) * exact_eval(t.right, env)
    if isinstance(t, T.Div):
        return exact_eval(t.left, env) / exact_eval(t.right, env)
    if isinstance(t, T.Pow):
        return exact_eval(t.base, env) ** t.exponent
    raise ValueError(f"not exactly evaluable: {type(t).__name__}")


def float_eval(t: T.Term, env: Mapping[str, float]) -> float:
    """Non-rigorous float evaluation."""
    if isinstance(t, T.Const):
        return float(t.value)
    if isinstance(t, T.Pi):
        return math.pi
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, T.Add):
        return float_eval(t.left, env) + float_eval(t.right, env)
    if isinstance(t, T.Sub):
        return float_eval(t.left, env) - float_eval(t.right, env)
    if isinstance(t, T.Neg):
        return -float_eval(t.arg, env)
    if isinstance(t, T.Mul):
        return float_eval(t.left, env) * float_eval(t.right, env)
    if isinstance(t, T.Div):
        return float_eval(t.left, env) / float_eval(t.right, env)
    if isinstance(t, T.Pow):
        return float_eval(t.base, env) ** t.exponent
    if isinstance(t, T.Sin):
        return math.sin(float_eval(t.arg, env))
    if isinstance(t, T.Cos):
        return math.cos(float_eval(t.arg, env))
    if isinstance(t, T.Exp):
        return math.exp(float_eval(t.arg, env))
    return math.sqrt(float_eval(t.arg, env))


def winding_oracle_2d(
    fs: Sequence[T.Term],
    names: Sequence[str],
    complex: BoxComplex,
    samples: int = 64,
) -> int:
    """Non-rigorous test oracle: total winding of (f1, f2) along the
    oriented boundary, by float sampling."""
    if len(fs) != 2 or complex.dim != 2:
        raise ValueError("winding oracle needs a planar map")
    total = 0.0
    for face, coef in oriented_boundary(complex.cells).items():
        free = [a for a, iv in enumerate(face.intervals) if not iv.is_degenerate]
        if len(free) != 1:
            raise ValueError("boundary face is not an edge")
        axis = free[0]
        iv = face.intervals[axis]
        lo, width = float(iv.lo), float(iv.width)
        fixed = {names[a]: float(face[a].lo) for a in range(2) if a != axis}
        prev = None
        delta = 0.0
        for k in range(samples + 1):
            env = dict(fixed)
            env[names[axis]] = lo + width * k / samples
            u = float_eval(fs[0], env)
            v = float_eval(fs[1], env)
            if math.hypot(u, v) < 1e-12:
                raise ValueError("sample point too close to a zero of f")
            theta = math.atan2(v, u)
            if prev is not None:
                step = math.remainder(theta - prev, 2 * math.pi)
                delta += step
            prev = theta
        total += coef * delta
    return round(total / (2 * math.pi))


def grid_cut(grid: Grid, axis: int, i: int) -> Fraction:
    """Cut i of `axis`, from the base box's `Fraction` endpoints."""
    iv = grid.base[axis]
    return iv.lo + iv.width * i / grid.counts[axis]


def grid_cells(grid: Grid) -> Iterator[tuple[CellIndex, RatBox]]:
    """Every cell of the grid, in index order, with its box built from
    `grid_cut`."""
    for idx in _multi_range(list(grid.counts)):
        yield idx, RatBox(tuple(ival(grid_cut(grid, a, i), grid_cut(grid, a, i + 1))
                                for a, i in enumerate(idx)))


def face_box(grid: Grid, face: Face) -> RatBox:
    """The box of a grid face, degenerate in its axis."""
    return RatBox(tuple(
        ival(grid_cut(grid, a, i)) if a == face.axis
        else ival(grid_cut(grid, a, i), grid_cut(grid, a, i + 1))
        for a, i in enumerate(face.at)))


def grid_faces(grid: Grid) -> Iterator[Face]:
    """All grid faces, each degenerate in exactly one axis, ordered by
    axis, then plane, then the cell index along the other axes."""
    for axis in range(grid.dim):
        other = [c for a, c in enumerate(grid.counts) if a != axis]
        for plane in range(grid.counts[axis] + 1):
            for rest in _multi_range(other):
                yield grid.face(axis, plane, rest)


def _multi_range(counts: list[int]) -> Iterator[CellIndex]:
    if not counts:
        yield ()
        return
    for i in range(counts[0]):
        for rest in _multi_range(counts[1:]):
            yield (i,) + rest
