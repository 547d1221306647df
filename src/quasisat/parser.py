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
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .evaluation import Ival, compile_term, ival_of
from .intervals import DomainError, RatBox, RatInterval, ival
from . import formulas as F
from . import terms as T


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(
    r"""(?P<num>\d+(?:\.\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>>=|<=|[=+\-*/^(),.\[\]])
      | (?P<ws>\s+)
      | (?P<bad>.)""",
    re.VERBOSE,
)

_KEYWORDS = {"exists", "forall", "in", "and", "or", "pi"}
_FUNCS = {"sin": T.Sin, "cos": T.Cos, "exp": T.Exp, "sqrt": T.Sqrt}


@dataclass(frozen=True)
class _Tok:
    kind: str  # 'num', 'name', 'op', 'end'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        s = match.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {s!r}", line, col)
        if kind != "ws":
            toks.append(_Tok(kind, s, line, col))
        nl = s.count("\n")
        if nl:
            line += nl
            col = len(s) - s.rfind("\n")
        else:
            col += len(s)
    toks.append(_Tok("end", "", line, col))
    return toks


def _number(text: str) -> Fraction:
    if "." in text:
        whole, frac = text.split(".")
        return Fraction(int(whole or "0")) + Fraction(int(frac), 10 ** len(frac))
    return Fraction(int(text))


class _Parser:
    def __init__(self, toks: list[_Tok], params: Iterable[str]):
        self.toks = toks
        self.i = 0
        self.scope: list[str] = list(params)

    @property
    def cur(self) -> _Tok:
        return self.toks[self.i]

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.cur.line, self.cur.col)

    def advance(self) -> _Tok:
        t = self.cur
        self.i += 1
        return t

    def at_op(self, text: str) -> bool:
        return self.cur.kind == "op" and self.cur.text == text

    def at_word(self, text: str) -> bool:
        return self.cur.kind == "name" and self.cur.text == text

    def expect_op(self, text: str) -> None:
        if not self.at_op(text):
            raise self.error(f"expected {text!r}")
        self.advance()

    # -- formulas --

    def formula(self) -> F.Formula:
        left = self.conj()
        while self.at_word("or"):
            self.advance()
            left = F.Or(left, self.conj())
        return left

    def conj(self) -> F.Formula:
        left = self.primary()
        while self.at_word("and"):
            self.advance()
            left = F.And(left, self.primary())
        return left

    def primary(self) -> F.Formula:
        if self.at_op("("):
            mark = self.i
            self.advance()
            try:
                inner = self.formula()
            except ParseError:
                # an atom like (x+1)*y = 0 also starts with '('
                self.i = mark
                return self.atom()
            if not (self.at_op(")") and self._formula_follows(mark)):
                self.i = mark
                return self.atom()
            self.advance()
            return inner
        if self.at_word("exists") or self.at_word("forall"):
            return self.block()
        return self.atom()

    def _formula_follows(self, mark: int) -> bool:
        # '(' swallowed a full formula only if a formula boundary follows
        nxt = self.toks[self.i + 1]
        return nxt.kind == "end" or nxt.text in ("and", "or", ")")

    def block(self) -> F.Formula:
        kw = self.advance().text
        binders: list[tuple[str, RatInterval]] = []
        while True:
            binders.append(self.binder())
            if self.at_op(","):
                self.advance()
                continue
            break
        self.expect_op(".")
        names = [v for v, _ in binders]
        self.scope.extend(names)
        body = self.formula()
        del self.scope[len(self.scope) - len(names):]
        if kw == "forall":
            out = body
            for v, iv in reversed(binders):
                out = F.ForAll(v, iv, out)
            return out
        return F.Exists(tuple(names),
                        RatBox(tuple(iv for _, iv in binders)), body)

    def binder(self) -> tuple[str, RatInterval]:
        if self.cur.kind != "name" or self.cur.text in _KEYWORDS or self.cur.text in _FUNCS:
            raise self.error("expected a variable name")
        tok = self.advance()
        if tok.text in self.scope:
            raise ParseError(f"variable {tok.text!r} is already bound",
                             tok.line, tok.col)
        if not self.at_word("in"):
            raise self.error("expected 'in'")
        self.advance()
        self.expect_op("[")
        lo = self.signed_rational()
        self.expect_op(",")
        hi = self.signed_rational()
        self.expect_op("]")
        if lo > hi:
            raise ParseError(f"empty interval [{lo},{hi}] for {tok.text!r}",
                             tok.line, tok.col)
        return tok.text, ival(lo, hi)

    def signed_rational(self) -> Fraction:
        sign = 1
        while self.at_op("-"):
            sign = -sign
            self.advance()
        if self.cur.kind != "num":
            raise self.error("expected a number")
        value = sign * _number(self.advance().text)
        if self.at_op("/"):
            self.advance()
            if self.cur.kind != "num":
                raise self.error("expected a denominator")
            value /= _number(self.advance().text)
        return value

    def atom(self) -> F.Formula:
        lhs = self.sum()
        if self.at_op("="):
            self.advance()
            return F.Eq(_diff(lhs, self.sum()))
        if self.at_op(">="):
            self.advance()
            return F.Geq(_diff(lhs, self.sum()))
        if self.at_op("<="):
            self.advance()
            return F.Geq(_diff(self.sum(), lhs))
        raise self.error("expected '=', '>=' or '<='")

    # -- terms --

    def sum(self) -> T.Term:
        left = self.product()
        while self.at_op("+") or self.at_op("-"):
            op = self.advance().text
            right = self.product()
            left = T.Add(left, right) if op == "+" else T.Sub(left, right)
        return left

    def product(self) -> T.Term:
        left = self.unary()
        while self.at_op("*") or self.at_op("/"):
            op = self.advance().text
            right = self.unary()
            left = T.Mul(left, right) if op == "*" else T.Div(left, right)
        return left

    def unary(self) -> T.Term:
        if self.at_op("-"):
            self.advance()
            return T.Neg(self.unary())
        return self.power()

    def power(self) -> T.Term:
        base = self.item()
        if self.at_op("^"):
            self.advance()
            if self.cur.kind != "num" or "." in self.cur.text:
                raise self.error("expected a natural-number exponent")
            return T.Pow(base, int(self.advance().text))
        return base

    def item(self) -> T.Term:
        if self.cur.kind == "num":
            return T.Const(_number(self.advance().text))
        if self.at_op("("):
            self.advance()
            inner = self.sum()
            self.expect_op(")")
            return inner
        if self.cur.kind == "name":
            tok = self.advance()
            if tok.text == "pi":
                return T.Pi()
            if tok.text in _FUNCS:
                self.expect_op("(")
                arg = self.sum()
                self.expect_op(")")
                return _FUNCS[tok.text](arg)
            if tok.text in ("and", "or", "in", "exists", "forall"):
                raise ParseError(f"unexpected keyword {tok.text!r}",
                                 tok.line, tok.col)
            if tok.text not in self.scope:
                raise ParseError(f"unbound variable {tok.text!r}",
                                 tok.line, tok.col)
            return T.Var(tok.text)
        raise self.error("expected a term")


def _diff(lhs: T.Term, rhs: T.Term) -> T.Term:
    """Normalize t1 ~ t2 to (t1 - t2) ~ 0, keeping literal zeros tidy."""
    if isinstance(rhs, T.Const) and rhs.value == 0:
        return lhs
    return T.Sub(lhs, rhs)


_GUARD_PREC = 30


def _enclose(t: T.Term, env: dict[str, RatInterval]) -> Ival:
    return compile_term(t, tuple(env))([ival_of(iv) for iv in env.values()],
                                       _GUARD_PREC)


def _check_domains(f: F.Formula, env: dict[str, RatInterval]) -> None:
    """Reject formulas whose division or sqrt can leave its domain
    anywhere on the quantification box."""
    if isinstance(f, F.Atom):
        _check_term(f.term, env)
        return
    if isinstance(f, F.Exists):
        inner = dict(env)
        inner.update(zip(f.vars, f.bounds.intervals))
        _check_domains(f.body, inner)
        return
    if isinstance(f, F.ForAll):
        inner = dict(env)
        inner[f.var] = f.bound
        _check_domains(f.body, inner)
        return
    _check_domains(f.left, env)
    _check_domains(f.right, env)


def _check_term(t: T.Term, env: dict[str, RatInterval]) -> None:
    if isinstance(t, (T.Const, T.Pi, T.Var)):
        return
    if isinstance(t, (T.Add, T.Sub, T.Mul, T.Div)):
        _check_term(t.left, env)
        _check_term(t.right, env)
        if isinstance(t, T.Div):
            lo, hi, _ = _enclose(t.right, env)
            if lo <= 0 <= hi:
                raise DomainError(
                    f"denominator {T.term_text(t.right)} may vanish on the "
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


def parse(text: str, params: dict[str, RatInterval] | None = None) -> F.Formula:
    """Parse a formula; `params` declares free variables with their ranges
    (used for the domain checks)."""
    params = params or {}
    p = _Parser(_tokenize(text), params)
    try:
        out = p.formula()
        if p.cur.kind != "end":
            raise p.error(f"unexpected trailing input {p.cur.text!r}")
        _check_domains(out, dict(params))
    except RecursionError:
        raise p.error("term nested too deeply") from None
    return out
