"""Text syntax for formulas.

Grammar (ASCII, case-sensitive keywords)::

    formula  := disj
    disj     := conj ('or' conj)*
    conj     := primary ('and' primary)*
    primary  := '(' formula ')' | block | atom
    block    := ('exists' | 'forall') binder (',' binder)* '.' formula
    binder   := NAME 'in' '[' rational ',' rational ']'
    atom     := term ('=' | '>=' | '<=') term
    term     := product (('+' | '-') product)*
    product  := signed (('*' | '/') signed)*
    signed   := '-'* item ('^' NAT)?
    item     := NUMBER | 'pi' | NAME | FUNC '(' term ')' | '(' term ')'

Numbers are integer or decimal literals of the ASCII digits 0-9 and
parse to exact rationals; a digit of another script is an unexpected
character.
FUNC is one of sin, cos, exp, sqrt.  Every variable must be bound by an
enclosing quantifier (or listed in `params`); rebinding a name inside
its own scope is an error.  Division and sqrt are accepted only when
interval evaluation at precision 30 shows the denominator excludes zero
(resp. the radicand is nonnegative) on the box of the variables in
scope, checked as the parser builds them.  A term more than `_MAX_HEIGHT`
operations high, or with more than `_MAX_HEIGHT` parentheses and calls
open at once, is a ParseError, whatever the caller's stack.  Formula
parentheses and quantifiers nested past Python's recursion limit are a
ParseError "formula nested too deeply" at the token where the limit was
reached.  A syntax error comes first, then a term too high or too deep,
then the first domain fault in reading order, a DomainError.

A sentence is read in one forward pass with no backtracking.  A '(' where
a formula may start opens a formula exactly when its group, up to the
matching ')' or the end of the input, holds '=', '>=', '<=', 'exists' or
'forall': a term can hold none of them.  The pass decides this when it
reaches the '(', reading its group up to the first such token.
Otherwise the '(' opens the first term of an atom, as in ``(x+1)*y = 0``.
One method reads a term in one loop: an opening '(' or call pushes the
sum and the product read so far onto an explicit stack, and its ')' pops
them, so no nesting of a term recurses.  A run of minus signs is counted:
before a non-constant it is as high as it is long.  The formula rules
recurse into quantifiers and formula parentheses.

Literals fold into one constant: a minus sign on a constant, and a
constant divided by a nonzero constant.  So ``-3/4`` is ``Const(-3/4)``
and ``(-3)^2`` is ``Pow(Const(-3), 2)``, while ``-3^2`` stays
``Neg(Pow(Const(3), 2))`` and ``1/0`` stays a division, which the domain
check rejects.  Literals, variable names, folded quotients and
quantifier bounds come from small caches, plain dicts keyed by tokens,
and are shared between parses.  A literal or a quotient of two literals
is cached by its tokens, its minus sign folded into the first, so a hit
hashes strings only; a quotient with a parenthesized side, or a chain
such as ``1/2/4`` past its first quotient, is divided as it is read.  A
binder's `Ival` is cached by its tokens from 'in' to ']', so bounds
written as a parse has read them before are not read again: the two
sentences of a distance query have the same bounds.  Bounds not in the
cache are read as reduced integer pairs, with no `Fraction`, and
`intervals.pair_ival` makes their `Ival`.
"""
from __future__ import annotations

import re
from fractions import Fraction
from itertools import islice
from math import gcd

from .evaluation import compile_term
from .intervals import DomainError, Ival, pair_ival
from . import formulas as F
from . import terms as T


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


# ASCII digits only; one-character tokens, the most frequent, are tried first
_TOKEN = r"[=+\-*/^(),.\[\]]|[0-9]+(?:\.[0-9]+)?|[A-Za-z_][A-Za-z_0-9]*|>=|<="
_VALID_RE = re.compile(_TOKEN)
_TOKEN_RE = re.compile(_TOKEN + r"|\S")  # any other character is a token of its own

_KEYWORDS = {"exists", "forall", "in", "and", "or", "pi"}
_FUNCS = {"sin": T.Sin, "cos": T.Cos, "exp": T.Exp, "sqrt": T.Sqrt}
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_FORMULA_ONLY = {"=", ">=", "<=", "exists", "forall"}  # never inside a term


def _number(text: str) -> tuple[int, int]:
    """A literal, or a literal after '-', as (num, den), den 10 to the
    number of its decimals."""
    whole, _, frac = text.partition(".")
    return int(whole + frac), 10 ** len(frac)


# term nodes and bounds are immutable, so parses share these leaves,
# quotients and quantifier bounds.  Each cache is a plain dict keyed by
# tokens, "-" folded into a literal's; the term loop reads it with a
# `get` of its own, so a hit hashes strings and makes no Python-level
# call.  A full cache is emptied before it takes a value
_CACHE_SIZE = 1024
_LITERALS: dict[str, T.Const] = {}
_QUOTIENTS: dict[tuple[str, str], T.Const] = {}
_VARS: dict[str, T.Var] = {}
_BOUNDS: dict[tuple[str, ...], Ival] = {}  # by the tokens from 'in' to ']'
_PI = T.Pi()


def _keep(cache: dict, key, value):
    """value, kept in `cache` under key."""
    if len(cache) >= _CACHE_SIZE:
        cache.clear()
    cache[key] = value
    return value


def _literal(tok: str) -> T.Const:
    """The constant of a literal token, from `_LITERALS`."""
    return _LITERALS.get(tok) or _keep(_LITERALS, tok, T.Const(Fraction(*_number(tok))))


def _quotient(num: str, den: str) -> T.Const:
    """The quotient of two literal tokens, den not 0, kept in `_QUOTIENTS`."""
    return _keep(_QUOTIENTS, (num, den), T.Const(_literal(num).value / _literal(den).value))


def _line_col(text: str, offset: int) -> tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _opens_formula(toks: list[str], k: int) -> bool:
    """Whether the group of the '(' at toks[k], up to the matching ')' or
    the end of the input, holds a token of `_FORMULA_ONLY`; read up to the
    first such token."""
    depth = 0
    while True:
        k += 1
        tok = toks[k]
        if tok in _FORMULA_ONLY:
            return True
        if not tok or tok == ")" and not depth:  # the end of the input or of the group
            return False
        if tok == "(":
            depth += 1
        elif tok == ")":
            depth -= 1


_GUARD_PREC = 30
# bounds one term's cost: `distance_enclosure` of two 850-factor products,
# quadratic in the factors, takes about 2 s (Python 3.11, shared 2-core host)
_MAX_HEIGHT = 900


class _Parser:
    __slots__ = ("text", "toks", "i", "scope", "too_deep", "fault")

    def __init__(self, text: str, params: dict[str, Ival]):
        self.text = text
        self.toks = _TOKEN_RE.findall(text)
        self.toks.append("")  # the end of the input
        self.i = 0
        self.scope = dict(params)  # every variable in scope, with its box
        self.too_deep = False  # some term is higher or nested deeper than _MAX_HEIGHT
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
            if _opens_formula(self.toks, self.i):
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
        """A name and its bounds, whose `Ival` is cached by the tokens from
        'in' to ']': a binder whose bounds were read before reads none."""
        toks, at = self.toks, self.i
        name = toks[at]
        if name[:1] not in _NAME_START or name in _KEYWORDS or name in _FUNCS:
            raise self.error("expected a variable name")
        if name in self.scope:
            raise self.error(f"variable {name!r} is already bound", at)
        try:
            end = toks.index("]", at) + 1
        except ValueError:  # no ']': reading the bounds reports the fault
            end = at + 1
        key = tuple(toks[at + 1:end])
        box = _BOUNDS.get(key)
        if box is None:  # a valid binder ends at its first ']'
            self.i = at + 1
            self.expect("in")
            self.expect("[")
            lo = self.signed_rational()
            self.expect(",")
            hi = self.signed_rational()
            self.expect("]")
            try:
                box = _keep(_BOUNDS, key, pair_ival(lo, hi))
            except ValueError:  # its endpoints are out of order
                lo, hi = Fraction(*lo), Fraction(*hi)
                raise self.error(f"empty interval [{lo},{hi}] for {name!r}", at) from None
        self.i = end
        return name, box

    def signed_rational(self) -> tuple[int, int]:
        """A bound, minus signs before a literal or a quotient of two
        literals, as a reduced integer pair (num, den), den > 0."""
        toks = self.toks
        sign = 1
        while toks[self.i] == "-":
            sign = -sign
            self.i += 1
        tok = toks[self.i]
        if not "0" <= tok < ":":  # the first character is no digit
            raise self.error("expected a number")
        self.i += 1
        num, den = _number(tok)
        if toks[self.i] == "/":
            self.i += 1
            tok = toks[self.i]
            if not "0" <= tok < ":":
                raise self.error("expected a denominator")
            self.i += 1
            n, d = _number(tok)
            if not n:
                raise self.error("zero denominator", self.i - 1)
            num, den = num * d, den * n
        g = gcd(num, den)
        return sign * num // g, den // g

    def atom(self) -> F.Formula:
        """t1 ~ t2 as (t1 - t2) ~ 0 (t2 - t1 >= 0 for <=); t - 0 stays t."""
        lhs, lh = self.term()
        rel = self.toks[self.i]
        if rel != "=" and rel != ">=" and rel != "<=":
            raise self.error("expected '=', '>=' or '<='")
        self.i += 1
        rhs, rh = self.term()
        if rel == "<=":
            lhs, rhs, lh, rh = rhs, lhs, rh, lh
        if type(rhs) is not T.Const or rhs.value:
            lhs, lh = T.Sub(lhs, rhs), (lh if lh > rh else rh) + 1
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

    def term(self) -> tuple[T.Term, int]:
        """A sum of products of signed powers, with its height, read in
        one loop.  An opening '(' or call pushes the sum and the product
        read so far onto an explicit stack, and its ')' pops them, so a
        term nested to any depth costs no recursion."""
        toks = self.toks
        i = self.i
        # per open '(' or call: the opener, its minus signs, and the sum and
        # product around it with their heights and pending operators
        stack: list[tuple] = []
        total = add = product = mul = None
        total_h = height = 0
        while True:
            signs = 0
            while toks[i] == "-":
                signs += 1
                i += 1
            tok, h = toks[i], 0
            if "0" <= tok < ":":  # a literal: its first character is a digit
                if signs & 1 and toks[i + 1] != "^":  # the sign folds into the literal
                    tok, signs = "-" + tok, 0
                base = _LITERALS.get(tok) or _literal(tok)
            elif (base := _VARS.get(tok)) is not None and tok in self.scope:
                pass  # a name in scope read before: no keyword, no call
            elif tok == "(" or tok in _FUNCS:
                if tok != "(":
                    i += 1
                    if toks[i] != "(":
                        raise self.error("expected '('", i)
                stack.append((tok, signs, total, total_h, add, product, height, mul))
                self.too_deep |= len(stack) > _MAX_HEIGHT
                total = add = mul = None
                i += 1
                continue
            elif tok == "pi":
                base = _PI
            elif tok[:1] not in _NAME_START:
                raise self.error("expected a term", i)
            elif tok in _KEYWORDS:
                raise self.error(f"unexpected keyword {tok!r}", i)
            elif tok in self.scope:
                base = _keep(_VARS, tok, T.Var(tok))
            else:
                raise self.error(f"unbound variable {tok!r}", i)
            i += 1
            while True:  # base and h are a signed power's base, i the token after it
                if toks[i] == "^":
                    i += 1
                    if not (toks[i].isascii() and toks[i].isdecimal()):
                        raise self.error("expected a natural-number exponent", i)
                    base, h = T.Pow(base, int(toks[i])), h + 1
                    i += 1
                if type(base) is T.Const:
                    if signs & 1:
                        base = T.Const(-base.value)
                elif signs:
                    h += signs
                    for _ in range(signs):
                        base = T.Neg(base)
                # tok is the base's token (its opener after a ')'), and
                # product_tok that of the product's first base, or "/" once
                # it is a quotient: a literal token names a literal constant
                if mul is None:
                    product, height, product_tok = base, h, tok
                elif mul == "*":
                    product = T.Mul(product, base)
                    height = (height if height > h else h) + 1
                elif type(product) is T.Const and type(base) is T.Const and base.value:
                    # two constants, of height 0
                    if product_tok[-1].isdecimal() and tok[-1].isdecimal():
                        key = product_tok, tok
                        product = _QUOTIENTS.get(key) or _quotient(*key)
                    else:
                        product = T.Const(product.value / base.value)
                    product_tok = "/"
                else:
                    if self.fault is None:
                        lo, hi, _ = self.enclose(base)
                        if lo <= 0 <= hi:
                            self.fault = ("denominator {} may vanish", base)
                    product = T.Div(product, base)
                    height = (height if height > h else h) + 1
                mul = toks[i]
                if mul == "*" or mul == "/":
                    break
                if add is None:
                    total, total_h = product, height
                else:
                    total = (T.Add if add == "+" else T.Sub)(total, product)
                    total_h = (total_h if total_h > height else height) + 1
                add = toks[i]
                if add == "+" or add == "-":
                    mul = None
                    break
                if not stack:
                    self.i = i
                    return total, total_h
                if add != ")":
                    raise self.error("expected ')'", i)
                base, h = total, total_h
                tok, signs, total, total_h, add, product, height, mul = stack.pop()
                if tok != "(":
                    if tok == "sqrt" and self.fault is None and self.enclose(base)[0] < 0:
                        self.fault = ("sqrt argument {} may be negative", base)
                    base, h = _FUNCS[tok](base), h + 1
                i += 1
            i += 1


def parse(text: str, params: dict[str, Ival] | None = None) -> F.Formula:
    """Parse a formula; `params` declares free variables with their ranges
    as `Ival`s (used for the domain checks)."""
    p = _Parser(text, params or {})
    try:
        out = p.formula()
    except RecursionError:  # only the formula rules recurse
        raise p.error("formula nested too deeply") from None
    if p.toks[p.i]:
        raise p.error(f"unexpected trailing input {p.toks[p.i]!r}")
    if p.too_deep:
        raise p.error("term nested too deeply")
    if p.fault is not None:
        message, term = p.fault
        raise DomainError(f"{message.format(T.term_text(term))} on the quantification box")
    return out
