"""Expression trees over the fixed function-symbol set.

Nodes: exact rational constants, pi, variables, + - * / (guarded),
natural powers, exp, sin, cos and sqrt (guarded).
"""
from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import groupby
from math import lcm

from .record import Frozen, field_setters


class Term(Frozen):
    """An immutable term node; `==` and `hash` are structural and
    type-sensitive, and run on an explicit stack (see `record`), so a
    term as high as `parse` admits costs no recursion."""
    __slots__ = ()


class Const(Term):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction) -> None:
        _set_value(self, value if isinstance(value, Fraction) else Fraction(value))


class Pi(Term):
    __slots__ = ()


class Var(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str) -> None:
        _set_name(self, name)


class _Binary(Term):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: Term, right: Term) -> None:
        _set_left(self, left)
        _set_right(self, right)


class _Unary(Term):
    __slots__ = _fields = ("arg",)

    def __init__(self, arg: Term) -> None:
        _set_arg(self, arg)


class Add(_Binary):
    __slots__ = ()


class Sub(_Binary):
    __slots__ = ()


class Neg(_Unary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Term):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Term, exponent: int) -> None:
        if exponent < 0:
            raise ValueError("only natural exponents are allowed")
        _set_base(self, base)
        _set_exponent(self, exponent)


class Sin(_Unary):
    __slots__ = ()


class Cos(_Unary):
    __slots__ = ()


class Exp(_Unary):
    __slots__ = ()


class Sqrt(_Unary):
    __slots__ = ()


(_set_value,), (_set_name,), (_set_arg,) = map(field_setters, (Const, Var, _Unary))
_set_left, _set_right = field_setters(_Binary)
_set_base, _set_exponent = field_setters(Pow)


_Monomial = tuple["Term", ...]  # sorted atomic factors, with multiplicity
# a coefficient as the integers (num, den), den > 0, not reduced, never 0
_Coeff = tuple[int, int]


def _expand(t: Term) -> dict[_Monomial, _Coeff] | None:
    """Polynomial form of t over atomic factors, with integer-pair
    coefficients; None when t contains a division by a non-constant.
    One post-order walk on an explicit stack, as `compile_term` walks: an
    operation goes on the stack as a 1-tuple below its operands, and is
    applied to their forms when it comes off.  Each atom's sort key, its
    `term_text`, is computed at most once: the atoms are nodes of t,
    which outlives the walk, so their ids stay theirs."""
    texts: dict[int, str] = {}

    def key(atom: Term) -> str:
        text = texts.get(id(atom))
        if text is None:
            text = texts[id(atom)] = term_text(atom)
        return text

    done: list[dict[_Monomial, _Coeff]] = []  # the forms of the operands so far
    stack: list = [t]
    while stack:
        node = stack.pop()
        cls = node.__class__
        if cls is tuple:
            node, = node
            cls = node.__class__
            if cls is Neg:
                done[-1] = {m: (-n, d) for m, (n, d) in done[-1].items()}
            elif cls is Pow:
                base, out = done[-1], {(): (1, 1)}
                for _ in range(node.exponent):
                    out = _convolve(out, base, key)
                done[-1] = out
            else:
                right = done.pop()
                if cls is Mul:
                    done[-1] = _convolve(done[-1], right, key)
                elif cls is Div:
                    if len(right) != 1 or () not in right:
                        return None
                    n, d = right[()]  # c / (n/d) = c * d/n, n's sign moved to the numerator
                    done[-1] = {m: (a * d if n > 0 else -a * d, b * abs(n))
                                for m, (a, b) in done[-1].items()}
                else:  # each form on `done` is a fresh dict, so the left takes the right in place
                    _add_into(done[-1], right, 1 if cls is Add else -1)
        elif cls is Const:
            done.append({(): node.value.as_integer_ratio()} if node.value else {})
        elif cls is Pow or cls is Neg:
            stack += ((node,), node.base if cls is Pow else node.arg)
        elif isinstance(node, _Binary):
            stack += ((node,), node.right, node.left)
        else:  # Var, Pi, Sin, Cos, Exp, Sqrt are atomic
            done.append({(node,): (1, 1)})
    return done[0]


def _sum_into(acc: dict[_Monomial, _Coeff], mono: _Monomial, n: int, d: int) -> None:
    """acc[mono] += n/d over the lcm of the denominators, as
    the evaluator's sum step aligns them; a coefficient that cancels is dropped."""
    got = acc.get(mono)
    if got is not None:
        m, e = got
        if e != d:
            l = lcm(e, d)
            n, m, d = n * (l // d), m * (l // e), l
        n += m
        if not n:
            del acc[mono]
            return
    acc[mono] = n, d


def _add_into(acc: dict[_Monomial, _Coeff], part: dict[_Monomial, _Coeff], k: int) -> None:
    """acc += k * part (nonzero coefficients), dropping those that cancel."""
    for mono, (n, d) in part.items():
        _sum_into(acc, mono, k * n, d)


def _convolve(
    a: dict[_Monomial, _Coeff], b: dict[_Monomial, _Coeff], key: Callable[[Term], str],
) -> dict[_Monomial, _Coeff]:
    """a * b, each product monomial sorted by `key`, `term_text` or a cache of it."""
    out: dict[_Monomial, _Coeff] = {}
    for ma, (na, da) in a.items():
        for mb, (nb, db) in b.items():
            mono = ma + mb
            if len(mono) > 1:
                mono = tuple(sorted(mono, key=key))
            _sum_into(out, mono, na * nb, da * db)
    return out


def _summands(t: Term, k: int) -> list[tuple[Term, int]]:
    """k * t as (summand, sign) pairs over the summands below t's
    Add/Sub/Neg nodes, left to right."""
    out: list[tuple[Term, int]] = []
    stack: list[tuple[Term, int]] = [(t, k)]
    while stack:
        node, k = stack.pop()
        cls = node.__class__
        if cls is Add or cls is Sub:
            stack.append((node.right, k if cls is Add else -k))
            stack.append((node.left, k))
        elif cls is Neg:
            stack.append((node.arg, -k))
        else:
            out.append((node, k))
    return out


def expand_normal(t: Term) -> Term:
    """Canonical sum-of-monomials form over atomic subterms, so that
    syntactically common parts of differences cancel exactly.  For a - b,
    aligned summands of a and b that are equal, with equal signs, cancel
    after one `==` walk; two or more that are left are counted by
    structural equality, and only counts that do not cancel are
    expanded; a lone one is expanded as it is, with no hash walk.  So a
    difference costs only the summands in which its sides differ.
    Expansion is exact, on integer-pair coefficients (num, den) that are
    reduced once, when the result's `Const`s are built; a summand left
    with a non-constant divisor returns t unchanged.  Monomials are
    ordered by length, and those of equal length by their atoms'
    `term_text`, which tells apart the atoms of any parsed term."""
    if t.__class__ is Sub:
        left, right = _summands(t.left, 1), _summands(t.right, -1)
        n = min(len(left), len(right))
        kept = [i for i in range(n) if left[i][1] + right[i][1] or left[i][0] != right[i][0]]
        summands = [left[i] for i in kept] + left[n:] + [right[i] for i in kept] + right[n:]
    else:
        summands = _summands(t, 1)
    if len(summands) > 1:
        counts: dict[Term, int] = {}
        for s, k in summands:
            counts[s] = counts.get(s, 0) + k
        summands = counts.items()
    poly: dict[_Monomial, _Coeff] = {}
    for s, k in summands:
        if not k:
            continue
        part = _expand(s)
        if part is None:
            return t
        _add_into(poly, part, k)
    order: list[_Monomial] = []
    for _, run in groupby(sorted(poly, key=len), len):
        run = list(run)
        order += run if len(run) < 2 else sorted(run, key=lambda m: tuple(map(term_text, m)))
    total: Term | None = None
    for mono in order:
        n, d = poly[mono]
        factor: Term | None = None if n == d and mono else Const(Fraction(n, d))
        for atom in mono:
            factor = atom if factor is None else Mul(factor, atom)
        total = factor if total is None else Add(total, factor)
    return total if total is not None else Const(Fraction(0))


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW = 1, 2, 3, 4


def term_text(t: Term) -> str:
    """Canonical ASCII rendering; a term as `parse` builds it reparses to
    a structurally equal term.  Built on an explicit stack of text and
    (subterm, binding level of its place) pairs, so a term of any height
    prints without recursion."""
    out: list[str] = []
    stack: list = [(t, 0)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        t, parent = item
        if isinstance(t, Const):
            v = t.value
            if v.denominator == 1:
                pieces, wrap = [str(v.numerator)], v < 0 and parent > _PREC_ADD
            else:  # a fraction literal is itself a division, so treat it like one
                pieces, wrap = [f"{v.numerator}/{v.denominator}"], parent > _PREC_MUL
        elif isinstance(t, Pi):
            pieces, wrap = ["pi"], False
        elif isinstance(t, Var):
            pieces, wrap = [t.name], False
        elif isinstance(t, (Add, Sub)):
            op = " + " if isinstance(t, Add) else " - "
            pieces, wrap = [(t.left, _PREC_ADD), op, (t.right, _PREC_ADD + 1)], parent > _PREC_ADD
        elif isinstance(t, Neg):
            pieces, wrap = ["-", (t.arg, _PREC_UNARY)], parent >= _PREC_MUL
        elif isinstance(t, (Mul, Div)):
            op = "*" if isinstance(t, Mul) else "/"
            pieces, wrap = [(t.left, _PREC_MUL), op, (t.right, _PREC_MUL + 1)], parent > _PREC_MUL
        elif isinstance(t, Pow):
            pieces, wrap = [(t.base, _PREC_POW + 1), f"^{t.exponent}"], parent > _PREC_POW
        else:
            pieces, wrap = [f"{type(t).__name__.lower()}(", (t.arg, 0), ")"], False
        if wrap:
            pieces = ["(", *pieces, ")"]
        stack += reversed(pieces)
    return "".join(out)
