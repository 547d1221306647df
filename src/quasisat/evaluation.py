"""Rigorous interval evaluation of terms on integer numerators.

An interval is a triple `(lo, hi, den)` of integers with `den > 0`,
standing for [lo/den, hi/den].  This is the only interval arithmetic of
the package: it works on the numerators and never reduces by a gcd, so
every result is the same rational interval as the `Fraction` reference
in tests/oracles.py, only unnormalized.  sin, cos, exp, sqrt and pi are
the enclosures of `series`, which take and return this format too; pi
is computed on integers as well.

`compile_term` turns a term, once, into a flat tape of operations in
evaluation order; running the tape needs no recursion, so deep terms
cost no stack.  The solver compiles each block's terms once per
sentence and runs the same tapes in every slab and iteration.  Bounds
are compared as integer pairs num/den by cross-multiplication; a
`Fraction` is built only for a result.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Optional, Sequence

from .intervals import DomainError, Ival
from .series import cos_enclosure, exp_enclosure, pi_enclosure, sin_enclosure, sqrt_enclosure
from . import terms as T

Evaluator = Callable[[Sequence[Ival], int], Ival]  # (env, precision p)
# (component i, sign s, num, den): s * f_i >= num/den > 0 on the box
Cert = tuple[int, int, int, int]


# ---------------------------------------------------------------------------
# operations: op(a, b, p) for the operand intervals a, b and precision p


def _add(a: Ival, b: Ival, p: int) -> Ival:
    da, db = a[2], b[2]
    if da == db:
        return a[0] + b[0], a[1] + b[1], da
    d = lcm(da, db)
    sa, sb = d // da, d // db
    return a[0] * sa + b[0] * sb, a[1] * sa + b[1] * sb, d


def _sub(a: Ival, b: Ival, p: int) -> Ival:
    da, db = a[2], b[2]
    if da == db:
        return a[0] - b[1], a[1] - b[0], da
    d = lcm(da, db)
    sa, sb = d // da, d // db
    return a[0] * sa - b[1] * sb, a[1] * sa - b[0] * sb, d


def _neg(a: Ival, _b, p: int) -> Ival:
    return -a[1], -a[0], a[2]


def _mul(a: Ival, b: Ival, p: int) -> Ival:
    alo, ahi, da = a
    blo, bhi, db = b
    if alo >= 0 and blo >= 0:
        return alo * blo, ahi * bhi, da * db
    ps = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(ps), max(ps), da * db


def _div(a: Ival, b: Ival, p: int) -> Ival:
    blo, bhi, db = b
    if blo <= 0 <= bhi:
        raise DomainError("division by an interval containing zero")
    # 1/b = [db/bhi, db/blo]; blo*bhi > 0 since b has one sign
    return _mul(a, (db * blo, db * bhi, blo * bhi), p)


def _pow(a: Ival, n: int, p: int) -> Ival:
    lo, hi, d = a
    if n == 0:
        return 1, 1, 1
    if n % 2 or lo >= 0:
        return lo ** n, hi ** n, d ** n
    if hi <= 0:
        return hi ** n, lo ** n, d ** n
    # even power of an interval straddling zero
    return 0, max(lo ** n, hi ** n), d ** n


def _pi(_a, _b, p: int) -> Ival:
    return pi_enclosure(p)


_BINARY = {T.Add: _add, T.Sub: _sub, T.Mul: _mul, T.Div: _div}


def _unary_op(t: T.Term):
    # looked up at compile time, so wrappers set on this module's names apply
    if isinstance(t, T.Neg):
        return _neg
    enclosure = {T.Sin: sin_enclosure, T.Cos: cos_enclosure,
                 T.Exp: exp_enclosure, T.Sqrt: sqrt_enclosure}.get(type(t))
    if enclosure is None:
        raise TypeError(f"unknown term node: {type(t).__name__}")
    return lambda a, _b, p: enclosure(a, p)


def compile_term(t: T.Term, names: Sequence[str]) -> Evaluator:
    """The natural interval extension of t, as a function of the
    intervals of `names` (in that order) and the precision p."""
    slot = {name: i for i, name in enumerate(names)}
    consts: list = []
    code: list[tuple] = []  # (op, operand, operand); its result is appended
    # operands are ("env", i), ("const", i) or ("op", i) until resolved

    def const(value) -> tuple[str, int]:
        consts.append(value)
        return "const", len(consts) - 1

    # post-order walk (a node is revisited once its operands are done),
    # so operations run in the order of a recursive evaluation
    done: list[tuple[str, int]] = []
    stack: list[tuple[T.Term, bool]] = [(t, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, T.Var):
            done.append(("env", slot[node.name]))
        elif isinstance(node, T.Const):
            v = node.value
            done.append(const((v.numerator, v.numerator, v.denominator)))
        elif isinstance(node, T.Pi):
            unused = const(None)
            code.append((_pi, unused, unused))
            done.append(("op", len(code) - 1))
        elif not expanded:
            stack.append((node, True))
            if isinstance(node, (T.Add, T.Sub, T.Mul, T.Div)):
                stack.append((node.right, False))
                stack.append((node.left, False))
            else:
                stack.append((node.base if isinstance(node, T.Pow) else node.arg,
                              False))
        elif isinstance(node, T.Pow):
            code.append((_pow, done.pop(), const(node.exponent)))
            done.append(("op", len(code) - 1))
        elif type(node) in _BINARY:
            right = done.pop()
            code.append((_BINARY[type(node)], done.pop(), right))
            done.append(("op", len(code) - 1))
        else:
            arg = done.pop()
            code.append((_unary_op(node), arg, arg))
            done.append(("op", len(code) - 1))

    # registers: the constants, then the environment, then one result per
    # operation, addressed from the end so that a longer environment
    # (extra trailing variables) changes nothing
    base = {"const": 0, "env": len(consts)}

    def reg(operand: tuple[str, int], at: int) -> int:
        kind, i = operand
        return i - at if kind == "op" else base[kind] + i

    tape = [(op, reg(a, m), reg(b, m)) for m, (op, a, b) in enumerate(code)]
    result = reg(done.pop(), len(code))

    def evaluate(env: Sequence[Ival], p: int) -> Ival:
        regs = [*consts, *env]
        push = regs.append
        for op, i, j in tape:
            push(op(regs[i], regs[j], p))
        return regs[result]

    return evaluate


def certify(
    fs: Sequence[Evaluator], env: Sequence[Ival], p: int, best: bool = False
) -> Optional[Cert]:
    """The first component whose enclosure excludes zero, or with `best`
    the one of largest mignitude (the first of equals); None when every
    enclosure holds zero."""
    found: Optional[Cert] = None
    for i, f in enumerate(fs):
        lo, hi, d = f(env, p)
        if lo > 0:
            cert = i, 1, lo, d
        elif hi < 0:
            cert = i, -1, -hi, d
        else:
            continue
        if not best:
            return cert
        if found is None or cert[2] * found[3] > found[2] * cert[3]:
            found = cert
    return found


def positive_lower_bound(
    evals: Sequence[Evaluator], env: Sequence[Ival], p: int
) -> Optional[Fraction]:
    """min over components of the enclosure lower bound, if all positive."""
    num, den = 0, 0  # the least bound num/den so far; den 0 is none yet
    for ev in evals:
        lo, _, d = ev(env, p)
        if lo <= 0:
            return None
        if not den or lo * den < num * d:
            num, den = lo, d
    return Fraction(num, den) if den else None
