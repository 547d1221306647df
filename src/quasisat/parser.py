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
interval evaluation shows the denominator excludes zero (resp. the
radicand is nonnegative) over the whole quantification box.

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
from collections.abc import Iterable

from .evaluation import compile_term
from .intervals import DomainError, Ival, ival
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


def _number(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        return Fraction(int(whole + frac), 10 ** len(frac))
    return Fraction(int(text))


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


class _Parser:
    __slots__ = ("text", "toks", "i", "scope", "formula_groups")

    def __init__(self, text: str, params: Iterable[str]):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")  # the end of the input
        self.i = 0
        self.scope: list[str] = list(params)
        self.formula_groups: set[int] | None = None  # built at the first '('

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
        names = [v for v, _ in binders]
        self.scope.extend(names)
        body = self.formula()
        del self.scope[len(self.scope) - len(names):]
        if kw == "forall":
            out = body
            for v, iv in reversed(binders):
                out = F.ForAll(v, iv, out)
            return out
        return F.Exists(tuple(names), tuple(iv for _, iv in binders), body)

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
        lo = self.signed_rational()
        self.expect(",")
        hi = self.signed_rational()
        self.expect("]")
        if lo > hi:
            raise self.error(f"empty interval [{lo},{hi}] for {name!r}", at)
        return name, ival(lo, hi)

    def signed_rational(self) -> Fraction:
        toks = self.toks
        sign = 1
        while toks[self.i] == "-":
            sign = -sign
            self.i += 1
        if not toks[self.i][:1].isdecimal():
            raise self.error("expected a number")
        value = sign * _number(toks[self.i])
        self.i += 1
        if toks[self.i] == "/":
            self.i += 1
            if not toks[self.i][:1].isdecimal():
                raise self.error("expected a denominator")
            den = _number(toks[self.i])
            if not den:
                raise self.error("zero denominator")
            value /= den
            self.i += 1
        return value

    def atom(self) -> F.Formula:
        lhs = self.sum()
        rel = self.toks[self.i]
        if rel == "=":
            self.i += 1
            return F.Eq(_diff(lhs, self.sum()))
        if rel == ">=":
            self.i += 1
            return F.Geq(_diff(lhs, self.sum()))
        if rel == "<=":
            self.i += 1
            return F.Geq(_diff(self.sum(), lhs))
        raise self.error("expected '=', '>=' or '<='")

    # -- terms --

    def sum(self) -> T.Term:
        toks = self.toks
        left = self.product()
        while True:
            op = toks[self.i]
            if op == "+":
                self.i += 1
                left = T.Add(left, self.product())
            elif op == "-":
                self.i += 1
                left = T.Sub(left, self.product())
            else:
                return left

    def product(self) -> T.Term:
        toks = self.toks
        left = self.unary()
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
                else:
                    left = T.Div(left, right)
            else:
                return left

    def unary(self) -> T.Term:
        """A unary, with its power rule parsed in the same call."""
        toks = self.toks
        if toks[self.i] == "-":
            self.i += 1
            arg = self.unary()
            return T.Const(-arg.value) if type(arg) is T.Const else T.Neg(arg)
        base = self.item()
        if toks[self.i] != "^":
            return base
        self.i += 1
        if not toks[self.i].isdecimal():
            raise self.error("expected a natural-number exponent")
        self.i += 1
        return T.Pow(base, int(toks[self.i - 1]))

    def item(self) -> T.Term:
        at = self.i
        tok = self.toks[at]
        if tok[:1].isdecimal():
            self.i += 1
            return T.Const(_number(tok))
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
            return _FUNCS[tok](arg)
        if tok == "pi":
            return T.Pi()
        if tok in _KEYWORDS:
            raise self.error(f"unexpected keyword {tok!r}", at)
        if tok not in self.scope:
            raise self.error(f"unbound variable {tok!r}", at)
        return T.Var(tok)


def _diff(lhs: T.Term, rhs: T.Term) -> T.Term:
    """Normalize t1 ~ t2 to (t1 - t2) ~ 0, keeping literal zeros tidy."""
    if isinstance(rhs, T.Const) and rhs.value == 0:
        return lhs
    return T.Sub(lhs, rhs)


_GUARD_PREC = 30


def _enclose(t: T.Term, env: dict[str, Ival]) -> Ival:
    return compile_term(t, tuple(env))(list(env.values()), _GUARD_PREC)


def _check_domains(f: F.Formula, env: dict[str, Ival]) -> None:
    """Reject formulas whose division or sqrt can leave its domain
    anywhere on the quantification box.  The walk recurses once per
    nesting level, so a term nested too deeply ends in RecursionError."""
    if isinstance(f, F.Atom):
        _check_term(f.term, env)
        return
    if isinstance(f, F.Exists):
        inner = dict(env)
        inner.update(zip(f.vars, f.bounds))
        _check_domains(f.body, inner)
        return
    if isinstance(f, F.ForAll):
        inner = dict(env)
        inner[f.var] = f.bound
        _check_domains(f.body, inner)
        return
    _check_domains(f.left, env)
    _check_domains(f.right, env)


def _check_term(t: T.Term, env: dict[str, Ival]) -> None:
    if isinstance(t, (T.Const, T.Pi, T.Var)):
        return
    if isinstance(t, (T.Add, T.Sub, T.Mul, T.Div)):
        _check_term(t.left, env)
        _check_term(t.right, env)
        if isinstance(t, T.Div):
            den = t.right
            if isinstance(den, T.Const):
                vanishes = den.value == 0
            else:
                lo, hi, _ = _enclose(den, env)
                vanishes = lo <= 0 <= hi
            if vanishes:
                raise DomainError(
                    f"denominator {T.term_text(den)} may vanish on the "
                    "quantification box")
        return
    if isinstance(t, T.Pow):
        _check_term(t.base, env)
        return
    _check_term(t.arg, env)
    if isinstance(t, T.Sqrt):
        if _enclose(t.arg, env)[0] < 0:
            raise DomainError(
                f"sqrt argument {T.term_text(t.arg)} may be negative on the "
                "quantification box")


def parse(text: str, params: dict[str, Ival] | None = None) -> F.Formula:
    """Parse a formula; `params` declares free variables with their ranges
    as `Ival`s (used for the domain checks)."""
    params = params or {}
    p = _Parser(text, params)
    try:
        out = p.formula()
        if p.toks[p.i]:
            raise p.error(f"unexpected trailing input {p.toks[p.i]!r}")
        _check_domains(out, dict(params))
    except RecursionError:
        raise p.error("term nested too deeply") from None
    return out
