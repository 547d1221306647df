"""Text syntax for formulas.

Grammar (ASCII, case-sensitive keywords)::

    formula  := disj
    disj     := conj ('or' conj)*
    conj     := primary ('and' primary)*
    primary  := '(' formula ')' | block | atom
    block    := ('exists' | 'forall') binder (',' binder)* '.' formula
    binder   := NAME 'in' '[' rational ',' rational ']'
    atom     := sum ('=' | '>=' | '<=') sum
    sum      := product (('+' | '-') product)*
    product  := unary (('*' | '/') unary)*
    unary    := '-' unary | power
    power    := item ('^' NAT)?
    item     := NUMBER | 'pi' | NAME | FUNC '(' sum ')' | '(' sum ')'

Numbers are integer or decimal literals and parse to exact rationals.
FUNC is one of sin, cos, exp, sqrt.  Every variable must be bound by an
enclosing quantifier (or listed in `params`); rebinding a name inside
its own scope is an error.  Division and sqrt are accepted only when
interval evaluation at precision 30 shows the denominator excludes zero
(resp. the radicand is nonnegative) on the box of the variables in
scope, checked as the parser builds them.  A term more than `_MAX_HEIGHT`
operations high is a ParseError, whatever the caller's stack.  A syntax
error comes first, then a term too high, then the first domain fault in
reading order, a DomainError.

A sentence is read in one forward pass with no backtracking.  A '(' where
a formula may start opens a formula exactly when its group, up to the
matching ')', holds '=', '>=', '<=', 'exists' or 'forall': a term can hold
none of them.  Otherwise it opens the first term of an atom, as in
``(x+1)*y = 0``.

Literals fold into one constant: a minus sign on a constant, and a
constant divided by a nonzero constant.  So ``-3/4`` is ``Const(-3/4)``
and ``(-3)^2`` is ``Pow(Const(-3), 2)``, while ``-3^2`` stays
``Neg(Pow(Const(3), 2))`` and ``1/0`` stays a division, which the domain
check rejects.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

from .evaluation import compile_term
from .intervals import DomainError, Ival
from . import formulas as F
from . import terms as T


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN = r"\d+(?:\.\d+)?|[A-Za-z_][A-Za-z_0-9]*|>=|<=|[=+\-*/^(),.\[\]]"
_VALID_RE = re.compile(_TOKEN)
_TOKEN_RE = re.compile(_TOKEN + r"|\S")  # any other character is a token of its own

_KEYWORDS = {"exists", "forall", "in", "and", "or", "pi"}
_FUNCS = {"sin": T.Sin, "cos": T.Cos, "exp": T.Exp, "sqrt": T.Sqrt}
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_FORMULA_ONLY = {"=", ">=", "<=", "exists", "forall"}  # never inside a term


def _number(text: str) -> tuple[int, int]:
    """A literal as (num, den), den 10 to the number of its decimals."""
    whole, _, frac = text.partition(".")
    return int(whole + frac), 10 ** len(frac)


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _formula_groups(toks: list[str]) -> set[int]:
    """The indices of the '(' whose group, up to the matching ')' or the
    end of the input, holds a token of `_FORMULA_ONLY`."""
    holds: set[int] = set()
    open_: list[int] = []
    for k, tok in enumerate(toks):
        if tok == "(":
            open_.append(k)
        elif tok == ")":
            if open_ and open_.pop() in holds and open_:
                holds.add(open_[-1])
        elif tok in _FORMULA_ONLY and open_:
            holds.add(open_[-1])
    while open_:
        if open_.pop() in holds and open_:
            holds.add(open_[-1])
    return holds


_GUARD_PREC = 30
_MAX_HEIGHT = 900  # a sum this high still decides and prints under 80 caller frames


class _Parser:
    __slots__ = ("text", "toks", "i", "scope", "formula_groups", "height", "too_deep", "fault")

    def __init__(self, text: str, params: dict[str, Ival]):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")  # the end of the input
        self.i = 0
        self.scope = dict(params)  # every variable in scope, with its box
        self.formula_groups: set[int] | None = None  # built at the first '('
        self.height = 0  # the height of the term last returned
        self.too_deep = False  # some atom's term is higher than _MAX_HEIGHT
        self.fault: tuple[str, T.Term] | None = None  # the first domain fault

    def error(self, message: str, at: int | None = None) -> ParseError:
        """The error at token `at` (default: the current one).  A character
        that starts no token is reported first, wherever it is."""
        text = self.text
        for m in _TOKEN_RE.finditer(text):
            if not _VALID_RE.fullmatch(m.group()):
                return ParseError(f"unexpected character {m.group()!r}",
                                  *_line_col(text, m.start()))
        m = next(islice(_TOKEN_RE.finditer(text), self.i if at is None else at, None), None)
        return ParseError(message, *_line_col(text, len(text) if m is None else m.start()))

    def expect(self, tok: str) -> None:
        if self.toks[self.i] != tok:
            raise self.error(f"expected {tok!r}")
        self.i += 1

    # -- formulas --

    def formula(self) -> F.Formula:
        left = self.conj()
        while self.toks[self.i] == "or":
            self.i += 1
            left = F.Or(left, self.conj())
        return left

    def conj(self) -> F.Formula:
        left = self.primary()
        while self.toks[self.i] == "and":
            self.i += 1
            left = F.And(left, self.primary())
        return left

    def primary(self) -> F.Formula:
        tok = self.toks[self.i]
        if tok == "(":
            if self.formula_groups is None:
                self.formula_groups = _formula_groups(self.toks)
            if self.i in self.formula_groups:
                self.i += 1
                inner = self.formula()
                self.expect(")")
                return inner
        elif tok == "exists" or tok == "forall":
            return self.block()
        return self.atom()

    def block(self) -> F.Formula:
        kw = self.toks[self.i]
        self.i += 1
        binders = [self.binder()]
        while self.toks[self.i] == ",":
            self.i += 1
            binders.append(self.binder())
        self.expect(".")
        outer = self.scope
        self.scope = {**outer, **dict(binders)}  # a repeated name: its last box
        body = self.formula()
        self.scope = outer
        if kw == "forall":
            out = body
            for v, iv in reversed(binders):
                out = F.ForAll(v, iv, out)
            return out
        return F.Exists(*zip(*binders), body)

    def binder(self) -> tuple[str, Ival]:
        at = self.i
        name = self.toks[at]
        if name[:1] not in _NAME_START or name in _KEYWORDS or name in _FUNCS:
            raise self.error("expected a variable name")
        if name in self.scope:
            raise self.error(f"variable {name!r} is already bound", at)
        self.i += 1
        self.expect("in")
        self.expect("[")
        ln, ld = self.signed_rational()
        self.expect(",")
        hn, hd = self.signed_rational()
        self.expect("]")
        if ln * hd > hn * ld:
            raise self.error(
                f"empty interval [{Fraction(ln, ld)},{Fraction(hn, hd)}] for {name!r}", at)
        d = lcm(ld, hd)  # the Ival that `ival` builds
        return name, (ln * (d // ld), hn * (d // hd), d)

    def signed_rational(self) -> tuple[int, int]:
        """A bound, as a reduced pair (num, den) with den > 0."""
        toks = self.toks
        sign = 1
        while toks[self.i] == "-":
            sign = -sign
            self.i += 1
        if not toks[self.i][:1].isdecimal():
            raise self.error("expected a number")
        num, den = _number(toks[self.i])
        self.i += 1
        if toks[self.i] == "/":
            self.i += 1
            if not toks[self.i][:1].isdecimal():
                raise self.error("expected a denominator")
            n, d = _number(toks[self.i])
            if not n:
                raise self.error("zero denominator")
            num, den = num * d, den * n
            self.i += 1
        g = gcd(num, den)
        return sign * num // g, den // g

    def atom(self) -> F.Formula:
        """t1 ~ t2 as (t1 - t2) ~ 0 (t2 - t1 >= 0 for <=); t - 0 stays t."""
        lhs, lh = self.sum(), self.height
        rel = self.toks[self.i]
        if rel != "=" and rel != ">=" and rel != "<=":
            raise self.error("expected '=', '>=' or '<='")
        self.i += 1
        rhs, rh = self.sum(), self.height
        if rel == "<=":
            lhs, rhs, lh, rh = rhs, lhs, rh, lh
        if type(rhs) is not T.Const or rhs.value:
            lhs, lh = T.Sub(lhs, rhs), max(lh, rh) + 1
        self.too_deep |= lh > _MAX_HEIGHT
        return F.Eq(lhs) if rel == "=" else F.Geq(lhs)

    # -- terms --

    def enclose(self, t: T.Term) -> Ival:
        """t's enclosure on the box of the variables in scope."""
        if type(t) is T.Const:
            v = t.value
            return v.numerator, v.numerator, v.denominator
        scope = self.scope
        return compile_term(t, scope)(tuple(scope.values()), _GUARD_PREC)

    def sum(self) -> T.Term:
        toks = self.toks
        left, height = self.product(), self.height
        while True:
            op = toks[self.i]
            if op == "+":
                self.i += 1
                left = T.Add(left, self.product())
            elif op == "-":
                self.i += 1
                left = T.Sub(left, self.product())
            else:
                self.height = height
                return left
            height = max(height, self.height) + 1

    def product(self) -> T.Term:
        toks = self.toks
        left, height = self.unary(), self.height
        while True:
            op = toks[self.i]
            if op == "*":
                self.i += 1
                left = T.Mul(left, self.unary())
            elif op == "/":
                self.i += 1
                right = self.unary()
                if type(left) is T.Const and type(right) is T.Const and right.value:
                    left = T.Const(left.value / right.value)
                    continue  # two constants, of height 0
                if self.fault is None:
                    lo, hi, _ = self.enclose(right)
                    if lo <= 0 <= hi:
                        self.fault = ("denominator {} may vanish", right)
                left = T.Div(left, right)
            else:
                self.height = height
                return left
            height = max(height, self.height) + 1

    def unary(self) -> T.Term:
        """A unary, with its power rule parsed in the same call."""
        toks = self.toks
        if toks[self.i] == "-":
            self.i += 1
            arg = self.unary()
            if type(arg) is T.Const:
                return T.Const(-arg.value)
            self.height += 1
            return T.Neg(arg)
        base = self.item()
        if toks[self.i] != "^":
            return base
        self.i += 1
        if not toks[self.i].isdecimal():
            raise self.error("expected a natural-number exponent")
        self.i += 1
        self.height += 1
        return T.Pow(base, int(toks[self.i - 1]))

    def item(self) -> T.Term:
        at = self.i
        tok = self.toks[at]
        if tok[:1].isdecimal():
            self.i += 1
            self.height = 0
            return T.Const(Fraction(int(tok)) if tok.isdecimal() else Fraction(*_number(tok)))
        if tok == "(":
            self.i += 1
            inner = self.sum()
            self.expect(")")
            return inner
        if tok[:1] not in _NAME_START:
            raise self.error("expected a term")
        self.i += 1
        if tok in _FUNCS:
            self.expect("(")
            arg = self.sum()
            self.expect(")")
            self.height += 1
            if tok == "sqrt" and self.fault is None and self.enclose(arg)[0] < 0:
                self.fault = ("sqrt argument {} may be negative", arg)
            return _FUNCS[tok](arg)
        self.height = 0
        if tok == "pi":
            return T.Pi()
        if tok in _KEYWORDS:
            raise self.error(f"unexpected keyword {tok!r}", at)
        if tok not in self.scope:
            raise self.error(f"unbound variable {tok!r}", at)
        return T.Var(tok)


def parse(text: str, params: dict[str, Ival] | None = None) -> F.Formula:
    """Parse a formula; `params` declares free variables with their ranges
    as `Ival`s (used for the domain checks)."""
    p = _Parser(text, params or {})
    try:
        out = p.formula()
    except RecursionError:
        raise p.error("term nested too deeply") from None
    if p.toks[p.i]:
        raise p.error(f"unexpected trailing input {p.toks[p.i]!r}")
    if p.too_deep:
        raise p.error("term nested too deeply")
    if p.fault is not None:
        message, term = p.fault
        raise DomainError(f"{message.format(T.term_text(term))} on the quantification box")
    return out
