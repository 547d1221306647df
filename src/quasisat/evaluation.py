"""Rigorous interval evaluation of terms on integer numerators.

An interval is a triple `(lo, hi, den)` of integers with `den > 0`,
standing for [lo/den, hi/den].  This is the only interval arithmetic of
the package: it works on the numerators and never reduces by a gcd, so
every result is the same rational interval as the `Fraction` reference
in tests/oracles.py, only unnormalized.  sin, cos, exp, sqrt and pi are
the enclosures of `series`, which take and return this format too; pi
is computed on integers as well.

`compile_term` turns a term, once, into a flat tape of steps
`(op, i, j, k)`, `regs[k] = op(regs[i], regs[j], p)`, in evaluation
order.  Every register is fixed at compile time: the environment's
intervals come first, one per name, then one register per constant,
step parameter and step result in the order of the walk.  Each step's
operation follows from the kinds of its operands.  A sum or difference
with an integer constant shifts both endpoints by the constant times the
denominator, with no lcm (`_shift`, `_rsub`).  A product with a
constant, or a quotient by a nonzero one, scales by the constant's
integers, and the constant's sign picks the endpoint order (`_scale`).
A square has its own step (`_square`).  Each returns the very triple of
the generic operation it replaces; every other step, a division by a
zero constant among them, is generic.  A run copies a template that
holds the constants, with the environment in front, and needs no
recursion, so deep terms cost no stack; an environment of another
length than the names raises ValueError.  The solver compiles each
block's terms once per sentence and runs the same tapes in every slab
and iteration.  Bounds are compared as integer pairs num/den by
cross-multiplication; a `Fraction` is built only for a result.  A
division by an interval that holds zero, or a sqrt of one that holds a
negative, raises DomainError; `certify` and `positive_lower_bound` read
it as an enclosure that holds zero.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from collections.abc import Callable, Sequence

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


def _apply(a: Ival, enclosure, p: int) -> Ival:
    return enclosure(a, p)


# steps with an operand known at compile time; each returns the very
# triple of the generic operation it stands for


def _shift(a: Ival, c: int, p: int) -> Ival:
    """a + c for an integer c: _add with (c, c, 1), no lcm."""
    s = c * a[2]
    return a[0] + s, a[1] + s, a[2]


def _rsub(a: Ival, c: int, p: int) -> Ival:
    """c - a for an integer c: _sub of (c, c, 1) and a."""
    s = c * a[2]
    return s - a[1], s - a[0], a[2]


def _scale(a: Ival, c: tuple[int, int], p: int) -> Ival:
    """a * k/e for c = (k, e), e > 0: _mul with (k, k, e); a division by
    the constant n/d is the scale (n*d, n*n), as _div builds it."""
    k, e = c
    if k >= 0:
        return a[0] * k, a[1] * k, a[2] * e
    return a[1] * k, a[0] * k, a[2] * e


def _square(a: Ival, _b, p: int) -> Ival:
    """_pow(a, 2)."""
    lo, hi, d = a
    if lo >= 0:
        return lo * lo, hi * hi, d * d
    if hi <= 0:
        return hi * hi, lo * lo, d * d
    return 0, max(lo * lo, hi * hi), d * d


def _constant_step(cls, c: Fraction, right: bool):
    """The (operation, parameter) of a `cls` step whose right operand (or,
    with `right` false, whose left one) is the constant c, or None where
    the generic operation stays: a sum or difference with a non-integer,
    a division by zero and a constant over a term."""
    n, d = c.as_integer_ratio()
    if cls is T.Mul:
        return _scale, (n, d)
    if cls is T.Div:
        return (_scale, (n * d, n * n)) if right and n else None
    if d != 1:
        return None
    if cls is T.Add:
        return _shift, n
    return (_shift, -n) if right else (_rsub, n)


_BOTH = object()  # the parameter of a step that reads two operand registers
_BINARY = {T.Add: (_add, _BOTH), T.Sub: (_sub, _BOTH),
           T.Mul: (_mul, _BOTH), T.Div: (_div, _BOTH)}
_NEGATE, _SQUARE = (_neg, None), (_square, None)  # steps that read one register
_OPERANDS_DONE = object()  # on the walk's stack: the step below it is next


def compile_term(t: T.Term, names: Sequence[str]) -> Evaluator:
    """The natural interval extension of t, as a function of the
    intervals of `names` (in that order) and the precision p.  One
    post-order walk, dispatched on each node's class: a step goes on the
    stack as an (operation, parameter) pair under a marker, below its
    operands, and is emitted when the marker comes off.  The pair is
    chosen when the node is pushed; a constant operand that a specialised
    step reads (`_constant_step`) becomes its parameter, not a leaf.  The
    parameter is `_BOTH` for two operand registers, None for one, and
    otherwise a register of its own after the operand's: a power's
    exponent, a function's enclosure or a constant's integers."""
    # looked up at compile time, so wrappers set on this module's names apply
    enclosures = {T.Sin: sin_enclosure, T.Cos: cos_enclosure,
                  T.Exp: exp_enclosure, T.Sqrt: sqrt_enclosure}
    names = tuple(names)
    slot = {name: i for i, name in enumerate(names)}
    n = len(names)
    # locals, since every node tests them and many tapes run only a few times
    Var, Const, Pi, Pow, Neg = T.Var, T.Const, T.Pi, T.Pow, T.Neg
    # registers: the environment, then one per constant, parameter and
    # step result in the order of the walk; `template` holds those after
    # the environment, with the constants and parameters in place
    template: list = []
    tape: list[tuple] = []  # (op, i, j, k): regs[k] = op(regs[i], regs[j], p)
    done: list[int] = []  # the registers of the operands computed so far
    stack: list = [t]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Var:
            done.append(slot[node.name])
        elif cls is Const:
            num, den = node.value.as_integer_ratio()
            done.append(n + len(template))
            template.append((num, num, den))
        elif node is _OPERANDS_DONE or cls is Pi:
            if cls is Pi:  # a step without operands
                op, i, j = _pi, 0, 0
            else:
                op, c = stack.pop()
                i = j = done.pop()
                if c is _BOTH:  # j is the right operand
                    i = done.pop()
                elif c is not None:
                    j = n + len(template)
                    template.append(c)
            k = n + len(template)
            template.append(None)
            tape.append((op, i, j, k))
            done.append(k)
        elif cls in _BINARY:
            left, right = node.left, node.right
            if right.__class__ is Const and (step := _constant_step(cls, right.value, True)):
                stack += (step, _OPERANDS_DONE, left)
            elif left.__class__ is Const and (step := _constant_step(cls, left.value, False)):
                stack += (step, _OPERANDS_DONE, right)
            else:
                stack += (_BINARY[cls], _OPERANDS_DONE, right, left)
        elif cls is Pow:
            e = node.exponent
            stack += (_SQUARE if e == 2 else (_pow, e), _OPERANDS_DONE, node.base)
        elif cls is Neg:
            stack += (_NEGATE, _OPERANDS_DONE, node.arg)
        elif cls in enclosures:
            stack += ((_apply, enclosures[cls]), _OPERANDS_DONE, node.arg)
        else:
            raise TypeError(f"unknown term node: {cls.__name__}")
    result = done.pop()

    def evaluate(env: Sequence[Ival], p: int) -> Ival:
        if len(env) != n:
            raise ValueError(f"{len(env)} intervals for the {n} variables {names}")
        regs = [*env, *template]
        for op, i, j, k in tape:
            regs[k] = op(regs[i], regs[j], p)
        return regs[result]

    return evaluate


def certify(fs: Sequence[Evaluator], env: Sequence[Ival], p: int) -> Cert | None:
    """The first component whose enclosure on the box excludes zero, with
    its sign and mignitude; None when every enclosure holds zero, as one
    that leaves a domain (DomainError) does.  This is the one rule of the
    package for the component that certifies a box: the refutation, the
    zero-face walk and the degree all read it here."""
    for i, f in enumerate(fs):
        try:
            lo, hi, d = f(env, p)
        except DomainError:
            continue
        if lo > 0:
            return i, 1, lo, d
        if hi < 0:
            return i, -1, -hi, d
    return None


def positive_lower_bound(
    evals: Sequence[Evaluator], env: Sequence[Ival], p: int
) -> Fraction | None:
    """min over components of the enclosure lower bound, if all positive (no DomainError)."""
    num, den = 0, 0  # the least bound num/den so far; den 0 is none yet
    for ev in evals:
        try:
            lo, _, d = ev(env, p)
        except DomainError:
            return None
        if lo <= 0:
            return None
        if not den or lo * den < num * d:
            num, den = lo, d
    return Fraction(num, den) if den else None
