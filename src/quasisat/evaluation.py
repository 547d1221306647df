"""Rigorous interval evaluation of terms on integer numerators.

An interval is a triple `(lo, hi, den)` of integers with `den > 0`,
standing for [lo/den, hi/den].  This is the only interval arithmetic of
the package: it works on the numerators and never reduces by a gcd, so
every result is the same rational interval as the `Fraction` reference
in tests/oracles.py, only unnormalized.  sin, cos, exp, sqrt and pi are
the enclosures of `series`, which take and return this format too; pi
is computed on integers as well.

`compile_term` turns a term, once, into a flat tape of steps
`(op, i, j, k)` in evaluation order, each writing register `k` from
register `i` and, for a step with two operands, register `j`.  Every
register is fixed at compile time: the environment's intervals come
first, one per name, then one register per constant leaf, power
exponent, function enclosure and step result in the order of the walk.
Each step's operation follows from the kinds of its operands.  A sum or
difference with an integer constant shifts both endpoints by the
constant times the denominator, with no lcm (the shift, and the reversed
shift of c - t).  A product with a constant, or a quotient by a nonzero
one, scales by the constant's integers, and the constant's sign picks
the endpoint order (the scale).  A square has its own step.  Each
returns the very triple of the generic operation it replaces, and the
constant is the step's `j` itself.  The evaluator runs the shift, the
reversed shift, the scale, the square, the sum, the difference and the
negation inline, as branches of its loop chosen by the identity of `op`;
only the rare steps are calls `op(regs[i], regs[j], p)`: a product or a
quotient that no scale covers (c / t, and t / 0, which raises
DomainError), a power other than 2, sin, cos, exp, sqrt and pi.  So each
operation's arithmetic is written once, in its branch or its function,
and a step of the common kinds costs no Python call.  A run copies a
template that holds the constants, with the environment in front, and
needs no recursion, so deep terms cost no stack; an environment of
another length than the names raises ValueError.  The walk resolves
every variable to its register, and it is the package's one place that
reads a variable's name: the evaluator reports the names its tape reads,
the term's free variables, as its `reads`, whatever the names it is
compiled over.  A tape that reads a name missing from them refuses to
run, with a ValueError that names the missing names.  The solver
compiles each block's terms once per sentence, takes the block's free
variables from their `reads`, and runs the same tapes in every slab and
iteration; the distance and `formulas.free_vars` read `reads` too.
Bounds are compared as integer pairs num/den by cross-multiplication; a
`Fraction` is built only for a result.  A division by an interval that
holds zero, or a sqrt of one that holds a negative, raises DomainError;
`certify` and `positive_lower_bound` read it as an enclosure that holds
zero.
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
# the steps that stay calls, op(a, b, p) for the operand intervals a, b
# and precision p: every one is rare on a tape


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
    """a^n; the compiler gives n = 2 the square step."""
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


# the steps that the evaluator runs inline, told apart by identity; the
# evaluator's branch of each says what it computes
_ADD, _SUB, _NEG, _SQUARE = "add", "sub", "neg", "square"
_SHIFT, _RSUB, _SCALE = "shift", "rsub", "scale"  # with a constant operand


def _constant_step(cls, c: Fraction, right: bool):
    """The (step, parameter) of a `cls` step whose right operand (or,
    with `right` false, whose left one) is the constant c, or None where
    the generic step stays: a sum or difference with a non-integer, a
    division by zero and a constant over a term.  A division by n/d is
    the scale by (n*d, n*n), the reciprocal that `_div` builds."""
    n, d = c.as_integer_ratio()
    if cls is T.Mul:
        return _SCALE, (n, d)
    if cls is T.Div:
        return (_SCALE, (n * d, n * n)) if right and n else None
    if d != 1:
        return None
    if cls is T.Add:
        return _SHIFT, n
    return (_SHIFT, -n) if right else (_RSUB, n)


_BOTH = object()  # the parameter of a step that reads two operand registers
_BINARY = {T.Add: (_ADD, _BOTH), T.Sub: (_SUB, _BOTH),
           T.Mul: (_mul, _BOTH), T.Div: (_div, _BOTH)}
_NEGATE, _SQUARING = (_NEG, None), (_SQUARE, None)  # steps that read one register
# the name of each function's enclosure in this module, looked up when a
# node is compiled, so that wrappers set on these names apply
_ENCLOSURES = {cls: f.__name__ for cls, f in ((T.Sin, sin_enclosure), (T.Cos, cos_enclosure),
                                              (T.Exp, exp_enclosure), (T.Sqrt, sqrt_enclosure))}
_OPERANDS_DONE = object()  # on the walk's stack: the step below it is next


def compile_term(t: T.Term, names: Sequence[str]) -> Evaluator:
    """The natural interval extension of t, as a function of the
    intervals of `names` (in that order) and the precision p.  One
    post-order walk, dispatched on each node's class: a step goes on the
    stack as a (step, parameter) pair under a marker, below its
    operands, and is emitted when the marker comes off.  The pair is
    chosen when the node is pushed; a constant operand that a specialised
    step reads (`_constant_step`) becomes its parameter, not a leaf.  The
    parameter is `_BOTH` for two operand registers and None for one;
    a constant's integers are the step's `j` itself, and a power's
    exponent or a function's enclosure gets a register.  The
    evaluator's `reads` is the frozenset of the names of t's `Var`
    leaves, its free variables, in `names` or not; an evaluator that
    reads a name not in `names` raises ValueError when it runs, naming
    those names, and one whose names are all there runs as it would."""
    names = tuple(names)
    slot = {name: i for i, name in enumerate(names)}
    n = len(names)
    # locals, since every node tests them and many tapes run only a few times
    Var, Const, Pi, Pow, Neg = T.Var, T.Const, T.Pi, T.Pow, T.Neg
    reads: set[str] = set()  # the names of the Var leaves
    # registers: the environment, then one per constant, parameter and
    # step result in the order of the walk; `template` holds those after
    # the environment, with the constants and parameters in place
    template: list = []
    tape: list[tuple] = []  # (step, i, j, k): regs[k] from regs[i] and j
    done: list[int] = []  # the registers of the operands computed so far
    stack: list = [t]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is Var:
            name = node.name
            done.append(slot.get(name, 0))  # an unbound name: the tape never runs
            reads.add(name)
        elif cls is Const:
            num, den = node.value.as_integer_ratio()
            done.append(n + len(template))
            template.append((num, num, den))
        elif node is _OPERANDS_DONE or cls is Pi:
            if cls is Pi:  # a step without operands
                op, i, j = _pi, 0, 0
            else:
                op, j = stack.pop()
                i = done.pop()
                if j is _BOTH:  # the right operand's register
                    j, i = i, done.pop()
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
            if e == 2:
                stack += (_SQUARING, _OPERANDS_DONE, node.base)
            else:
                stack += ((_pow, n + len(template)), _OPERANDS_DONE, node.base)
                template.append(e)
        elif cls is Neg:
            stack += (_NEGATE, _OPERANDS_DONE, node.arg)
        elif cls in _ENCLOSURES:
            stack += ((_apply, n + len(template)), _OPERANDS_DONE, node.arg)
            template.append(globals()[_ENCLOSURES[cls]])
        else:
            raise TypeError(f"unknown term node: {cls.__name__}")
    result = done.pop()
    unbound = () if reads <= slot.keys() else sorted(reads.difference(names))
    size = -1 if unbound else n  # no environment has length -1

    def evaluate(env: Sequence[Ival], p: int) -> Ival:
        if len(env) != size:
            if unbound:
                raise ValueError(f"free variables bound by no quantifier: {unbound}")
            raise ValueError(f"{len(env)} intervals for the {n} variables {names}")
        regs = [*env, *template]
        for op, i, j, k in tape:
            if op is _SHIFT:  # a + j for an integer j: a sum with (j, j, 1), no lcm
                lo, hi, d = regs[i]
                s = j * d
                regs[k] = lo + s, hi + s, d
            elif op is _SQUARE:  # a^2, the triple of _pow(a, 2)
                lo, hi, d = regs[i]
                if lo >= 0:
                    regs[k] = lo * lo, hi * hi, d * d
                elif hi <= 0:
                    regs[k] = hi * hi, lo * lo, d * d
                else:
                    regs[k] = 0, max(lo * lo, hi * hi), d * d
            elif op is _ADD:
                lo, hi, d = regs[i]
                blo, bhi, e = regs[j]
                if d == e:
                    regs[k] = lo + blo, hi + bhi, d
                else:
                    m = lcm(d, e)
                    s, r = m // d, m // e
                    regs[k] = lo * s + blo * r, hi * s + bhi * r, m
            elif op is _SUB:
                lo, hi, d = regs[i]
                blo, bhi, e = regs[j]
                if d == e:
                    regs[k] = lo - bhi, hi - blo, d
                else:
                    m = lcm(d, e)
                    s, r = m // d, m // e
                    regs[k] = lo * s - bhi * r, hi * s - blo * r, m
            elif op is _SCALE:  # a * c/e for j = (c, e), e > 0: _mul with (c, c, e)
                lo, hi, d = regs[i]
                c, e = j
                regs[k] = (lo * c, hi * c, d * e) if c >= 0 else (hi * c, lo * c, d * e)
            elif op is _RSUB:  # j - a for an integer j: a difference of (j, j, 1) and a
                lo, hi, d = regs[i]
                s = j * d
                regs[k] = s - hi, s - lo, d
            elif op is _NEG:
                lo, hi, d = regs[i]
                regs[k] = -hi, -lo, d
            else:
                regs[k] = op(regs[i], regs[j], p)
        return regs[result]

    evaluate.reads = frozenset(reads)
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
