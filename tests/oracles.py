"""Independent reference implementations the tests compare the solver
against: the three-valued `and` and `or` on subsets of {True, False},
boxes of `Fraction` intervals (`RatBox`) and interval
arithmetic on them, the generic operations on unreduced integer
triples and term evaluation by them, the pi, sin, cos, exp and sqrt enclosures and term
evaluation on `Fraction` endpoints, exact and float term evaluation,
substitution of rational constants for variables, the free variables of
a term and of a formula by recursion, the polynomial
normal form with every summand counted in one dict and the recursive
polynomial expansion, the equation and inequality terms of an exists
block, the parser's domain check as a walk over the parsed formula and
its whole-token-list scan for the '(' that open formulas, a float
winding count
for planar degrees, full sweeps over every cell and face of a grid of
any counts in index space (cells addressed by multi-index, with the map
from an index to its `Ival` cell), the degree, oriented boundary, bisection and
supremum enclosure on `RatBox`es, the distance of two sentences, the
recursive `repr` and `==` of a record, the recursive `term_text`, the
exact decisions and robustness margins of univariate polynomial
sentences from Sturm sequences, and near tangencies of sin and cos
whose margin is known."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from quasisat import terms as T
from quasisat.degree import DegreeResult
from quasisat.distance import MAX_CELLS
from quasisat.evaluation import Evaluator, compile_term
from quasisat.formulas import And, Atom, Eq, Exists, ForAll, Formula, Geq, aligned_terms
from quasisat.geometry import Cell, Grid
from quasisat.intervals import DomainError, Ival, RatInterval, RatLike, ival, rat
from quasisat.parser import _GUARD_PREC
from quasisat.series import _coeffs, _extra_bits, _imul


# ---------------------------------------------------------------------------
# intervals and boxes with `Fraction` endpoints


def rival(lo: RatLike, hi: RatLike | None = None) -> RatInterval:
    """Shorthand `RatInterval`; a single argument makes a point."""
    lo = rat(lo)
    return RatInterval(lo, lo if hi is None else rat(hi))


def width(a: RatInterval) -> Fraction:
    return a.hi - a.lo


@dataclass(frozen=True)
class RatBox:
    intervals: tuple[RatInterval, ...]

    @property
    def dim(self) -> int:
        return len(self.intervals)

    def product(self, other: "RatBox") -> "RatBox":
        """Concatenating Cartesian product; {()} x B == B."""
        return RatBox(self.intervals + other.intervals)

    def __iter__(self) -> Iterator[RatInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, i: int) -> RatInterval:
        return self.intervals[i]


def box(*intervals: RatInterval) -> RatBox:
    return RatBox(tuple(intervals))


EMPTY_BOX = RatBox(())  # the singleton tuple {()}


def ratbox(bounds: Sequence[Ival]) -> RatBox:
    """The box of `Ival` bounds, with `Fraction` endpoints."""
    return RatBox(tuple(to_interval(b) for b in bounds))


def box_env(b: RatBox) -> list[Ival]:
    """The `Ival`s the solver evaluates on for the box b."""
    return [ival(iv.lo, iv.hi) for iv in b.intervals]


# ---------------------------------------------------------------------------
# interval arithmetic on `Fraction` endpoints (exact, so no outward rounding)


def neg(a: RatInterval) -> RatInterval:
    return RatInterval(-a.hi, -a.lo)


def add(a: RatInterval, b: RatInterval) -> RatInterval:
    return RatInterval(a.lo + b.lo, a.hi + b.hi)


def sub(a: RatInterval, b: RatInterval) -> RatInterval:
    return RatInterval(a.lo - b.hi, a.hi - b.lo)


def mul(a: RatInterval, b: RatInterval) -> RatInterval:
    p = (a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi)
    return RatInterval(min(p), max(p))


def divide(a: RatInterval, b: RatInterval) -> RatInterval:
    if b.lo <= 0 <= b.hi:
        raise DomainError("division by an interval containing zero")
    return mul(a, RatInterval(1 / b.hi, 1 / b.lo))


def pow_nat(a: RatInterval, n: int) -> RatInterval:
    if n < 0:
        raise ValueError("exponent must be a natural number")
    if n == 0:
        return RatInterval(Fraction(1), Fraction(1))
    if n % 2 == 1 or a.lo >= 0:
        return RatInterval(a.lo ** n, a.hi ** n)
    if a.hi <= 0:
        return RatInterval(a.hi ** n, a.lo ** n)
    # even power of an interval straddling zero
    return RatInterval(Fraction(0), max(a.lo ** n, a.hi ** n))


def abs_interval(a: RatInterval) -> RatInterval:
    if a.lo >= 0:
        return a
    if a.hi <= 0:
        return neg(a)
    return RatInterval(Fraction(0), max(-a.lo, a.hi))


def split(a: RatInterval) -> tuple[RatInterval, RatInterval]:
    mid = (a.lo + a.hi) / 2
    return RatInterval(a.lo, mid), RatInterval(mid, a.hi)


def contains(a: RatInterval, x: RatLike) -> bool:
    return a.lo <= rat(x) <= a.hi


def issubset(a: RatInterval, b: RatInterval) -> bool:
    return b.lo <= a.lo and a.hi <= b.hi


def box_replace(b: RatBox, axis: int, iv: RatInterval) -> RatBox:
    parts = list(b.intervals)
    parts[axis] = iv
    return RatBox(tuple(parts))


def box_contains(b: RatBox, point: Sequence[RatLike]) -> bool:
    if len(point) != b.dim:
        raise ValueError("point dimension mismatch")
    return all(contains(iv, x) for iv, x in zip(b.intervals, point))


def box_issubset(a: RatBox, b: RatBox) -> bool:
    return all(issubset(x, y) for x, y in zip(a.intervals, b.intervals))


def to_interval(x: Ival) -> RatInterval:
    return RatInterval(Fraction(x[0], x[2]), Fraction(x[1], x[2]))


# ---------------------------------------------------------------------------
# the generic operations on `Ival` triples, unreduced: a sum or difference
# over the lcm of the denominators (their common one when they agree), a
# product of the four corner products, a quotient as the product with the
# reciprocal [db/bhi, db/blo] and a natural power.  Every step of a
# compiled tape, those with a constant operand and the square among them,
# must return the very triple that these give for its operands, a
# constant c being (num, num, den)


def triple_add(a: Ival, b: Ival) -> Ival:
    d = math.lcm(a[2], b[2])
    sa, sb = d // a[2], d // b[2]
    return a[0] * sa + b[0] * sb, a[1] * sa + b[1] * sb, d


def triple_sub(a: Ival, b: Ival) -> Ival:
    d = math.lcm(a[2], b[2])
    sa, sb = d // a[2], d // b[2]
    return a[0] * sa - b[1] * sb, a[1] * sa - b[0] * sb, d


def triple_neg(a: Ival) -> Ival:
    return -a[1], -a[0], a[2]


def triple_mul(a: Ival, b: Ival) -> Ival:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps), a[2] * b[2]


def triple_div(a: Ival, b: Ival) -> Ival:
    blo, bhi, db = b
    if blo <= 0 <= bhi:
        raise DomainError("division by an interval containing zero")
    return triple_mul(a, (db * blo, db * bhi, blo * bhi))


def triple_pow(a: Ival, n: int) -> Ival:
    lo, hi, d = a
    if n == 0:
        return 1, 1, 1
    if n % 2 or lo >= 0:
        return lo ** n, hi ** n, d ** n
    if hi <= 0:
        return hi ** n, lo ** n, d ** n
    return 0, max(lo ** n, hi ** n), d ** n


def triple_eval(t: T.Term, env: Mapping[str, Ival]) -> Ival:
    """The generic operations above by recursion over a term of
    constants, variables, + - * /, negation and natural powers."""
    if isinstance(t, T.Const):
        num, den = t.value.as_integer_ratio()
        return num, num, den
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, T.Neg):
        return triple_neg(triple_eval(t.arg, env))
    if isinstance(t, T.Pow):
        return triple_pow(triple_eval(t.base, env), t.exponent)
    op = {T.Add: triple_add, T.Sub: triple_sub, T.Mul: triple_mul, T.Div: triple_div}[type(t)]
    return op(triple_eval(t.left, env), triple_eval(t.right, env))


# ---------------------------------------------------------------------------
# pi, sin, cos, exp and sqrt on `Fraction` endpoints: the reference for
# the integer enclosures of `quasisat.series`, which must return exactly
# the same rationals.  The Horner coefficients are shared; pi's Machin
# series, the number of Taylor terms, the remainder bound, the Horner
# step (four products), argument reduction, the extremum test, exp and
# sqrt are computed here on `Fraction`s.


def _arctan_inv(n: int, q: int) -> tuple[Fraction, Fraction]:
    """Bracket of arctan(1/n) from the alternating series."""
    total = Fraction(0)
    k = 0
    inv = Fraction(1, n)
    power = inv
    inv2 = inv * inv
    tol = Fraction(1, 1 << (q + 6))
    lo = hi = total
    while True:
        term = power / (2 * k + 1)
        if k % 2 == 0:
            total += term
            hi = total
            lo = total - term  # next partial sum is below
        else:
            total -= term
            lo = total
            hi = total + term
        if term <= tol:
            # consecutive partial sums bracket the limit
            return min(lo, total), max(hi, total)
        power *= inv2
        k += 1


def _isub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] - b[1], a[1] - b[0]


def _fix_floor(x: Fraction, q: int) -> int:
    return (x.numerator << q) // x.denominator


def _fix_ceil(x: Fraction, q: int) -> int:
    return -((-x.numerator << q) // x.denominator)


def _from_fix(n: int, q: int) -> Fraction:
    return Fraction(n, 1 << q)


def pi_enclosure(p: int) -> RatInterval:
    q = p + 4
    a5 = _arctan_inv(5, q + 6)
    a239 = _arctan_inv(239, q + 6)
    lo = 16 * a5[0] - 4 * a239[1]
    hi = 16 * a5[1] - 4 * a239[0]
    return RatInterval(_from_fix(_fix_floor(lo, q), q), _from_fix(_fix_ceil(hi, q), q))


def series_terms(q: int, odd: bool) -> int:
    """Smallest J with 4.5**deg / deg! <= 2**-(q+2) for the remainder degree."""
    bound = Fraction(1, 1 << (q + 2))
    j = 0
    while True:
        deg = 2 * j + 3 if odd else 2 * j + 2
        if Fraction(9, 2) ** deg / math.factorial(deg) <= bound:
            return j
        j += 1


def remainder_fix(q: int, deg: int) -> int:
    return _fix_ceil(Fraction(9, 2) ** deg / math.factorial(deg), q) + 1


def _horner_fix(y: tuple[int, int], q: int, odd: bool) -> tuple[int, int]:
    j_max = series_terms(q, odd)
    extra = 5 * (j_max + 1) + 16
    q2 = q + extra
    y2 = (y[0] << extra, y[1] << extra)
    u = _imul(y2, y2, q2)
    u = (max(u[0], 0), u[1])
    coeffs = _coeffs(q2, j_max, odd)
    acc = coeffs[j_max]
    for j in range(j_max - 1, -1, -1):
        acc = _isub(coeffs[j], _imul(u, acc, q2))
    if odd:
        acc = _imul(y2, acc, q2)
        r = remainder_fix(q, 2 * j_max + 3)
    else:
        r = remainder_fix(q, 2 * j_max + 2)
    return (acc[0] >> extra) - r, -((-acc[1]) >> extra) + r


def _reduce_mod_2pi(x: Fraction, q: int) -> tuple[int, int]:
    if abs(x) <= 4:
        return _fix_floor(x, q), _fix_ceil(x, q)
    pi = pi_enclosure(q + 8 + _extra_bits(abs(x.numerator) // x.denominator))
    two_pi_lo, two_pi_hi = 2 * pi.lo, 2 * pi.hi
    k = round(x / (two_pi_lo + two_pi_hi) * 2)
    p1, p2 = k * two_pi_lo, k * two_pi_hi
    y_lo, y_hi = x - max(p1, p2), x - min(p1, p2)
    return _fix_floor(y_lo, q), _fix_ceil(y_hi, q)


def _trig_point(x: Fraction, q: int, is_sin: bool) -> tuple[int, int]:
    val = _horner_fix(_reduce_mod_2pi(x, q), q, is_sin)
    return max(val[0], -(1 << q)), min(val[1], 1 << q)


def _critical_hits(x: RatInterval, p: int, half_offset: bool) -> tuple[bool, bool]:
    mag = max(abs(x.lo), abs(x.hi))
    pi = pi_enclosure(p + 4 + _extra_bits(mag.numerator // mag.denominator))
    off2 = 1 if half_offset else 0
    lo_e = pi.hi if x.lo >= 0 else pi.lo
    hi_e = pi.lo if x.hi >= 0 else pi.hi
    num = 2 * x.lo.numerator * lo_e.denominator - off2 * x.lo.denominator * lo_e.numerator
    j_lo = -(-num // (2 * x.lo.denominator * lo_e.numerator))
    num = 2 * x.hi.numerator * hi_e.denominator - off2 * x.hi.denominator * hi_e.numerator
    j_hi = num // (2 * x.hi.denominator * hi_e.numerator)
    if j_lo > j_hi:
        return False, False
    if j_lo < j_hi:
        return True, True
    return j_lo % 2 == 0, j_lo % 2 == 1


def _trig_enclosure(x: RatInterval, p: int, is_sin: bool) -> RatInterval:
    one = Fraction(1)
    if width(x) >= 7:
        return RatInterval(-one, one)
    q = p + 4
    a = _trig_point(x.lo, q, is_sin)
    b = a if x.lo == x.hi else _trig_point(x.hi, q, is_sin)
    lo = min(a[0], b[0])
    hi = max(a[1], b[1])
    hit_max, hit_min = _critical_hits(x, p, half_offset=is_sin)
    if hit_max:
        hi = 1 << q
    if hit_min:
        lo = -(1 << q)
    return RatInterval(max(_from_fix(lo, q), -one), min(_from_fix(hi, q), one))


def sin_enclosure(x: RatInterval, p: int) -> RatInterval:
    return _trig_enclosure(x, p, is_sin=True)


def cos_enclosure(x: RatInterval, p: int) -> RatInterval:
    return _trig_enclosure(x, p, is_sin=False)


def _exp_point(x: Fraction, p: int) -> RatInterval:
    k = 0
    y = x
    while abs(y) > Fraction(1, 2):
        y /= 2
        k += 1
    mag_bits = int(Fraction(3, 2) * abs(x)) + 2
    q = p + k + mag_bits + 12
    # Taylor with tail bound: |y| <= 1/2 gives tail <= 2 * |y|**(J+1)/(J+1)!
    total = Fraction(1)
    term = Fraction(1)
    j = 0
    tol = Fraction(1, 1 << (q + 2))
    while True:
        j += 1
        term *= y / j
        total += term
        if 2 * abs(term) <= tol:
            break
    rem = 2 * abs(term)
    lo = _from_fix(_fix_floor(total - rem, q), q)
    hi = _from_fix(_fix_ceil(total + rem, q), q)
    for _ in range(k):
        lo = _from_fix(_fix_floor(lo * lo, q), q)
        hi = _from_fix(_fix_ceil(hi * hi, q), q)
    return RatInterval(lo, hi)


def exp_enclosure(x: RatInterval, p: int) -> RatInterval:
    lo = _exp_point(x.lo, p)
    hi = lo if x.lo == x.hi else _exp_point(x.hi, p)
    return RatInterval(lo.lo, hi.hi)


def _sqrt_point(x: Fraction, p: int) -> RatInterval:
    q = p + 2
    s = math.isqrt((x.numerator << (2 * q)) // x.denominator)
    return RatInterval(Fraction(s, 1 << q), Fraction(s + 1, 1 << q))


def sqrt_enclosure(x: RatInterval, p: int) -> RatInterval:
    if x.lo < 0:
        raise DomainError("sqrt of an interval containing negative values")
    lo = _sqrt_point(x.lo, p)
    hi = lo if x.lo == x.hi else _sqrt_point(x.hi, p)
    return RatInterval(lo.lo, hi.hi)


# ---------------------------------------------------------------------------
# term evaluation


def eval_env(t: T.Term, env: Mapping[str, RatInterval], p: int) -> RatInterval:
    """Natural interval extension under a name -> interval binding at
    precision p, by recursion over the term and the interval arithmetic
    above."""
    if isinstance(t, T.Const):
        return rival(t.value, t.value)
    if isinstance(t, T.Pi):
        return pi_enclosure(p)
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, T.Add):
        return add(eval_env(t.left, env, p), eval_env(t.right, env, p))
    if isinstance(t, T.Sub):
        return sub(eval_env(t.left, env, p), eval_env(t.right, env, p))
    if isinstance(t, T.Neg):
        return neg(eval_env(t.arg, env, p))
    if isinstance(t, T.Mul):
        return mul(eval_env(t.left, env, p), eval_env(t.right, env, p))
    if isinstance(t, T.Div):
        return divide(eval_env(t.left, env, p), eval_env(t.right, env, p))
    if isinstance(t, T.Pow):
        return pow_nat(eval_env(t.base, env, p), t.exponent)
    if isinstance(t, T.Sin):
        return sin_enclosure(eval_env(t.arg, env, p), p)
    if isinstance(t, T.Cos):
        return cos_enclosure(eval_env(t.arg, env, p), p)
    if isinstance(t, T.Exp):
        return exp_enclosure(eval_env(t.arg, env, p), p)
    if isinstance(t, T.Sqrt):
        return sqrt_enclosure(eval_env(t.arg, env, p), p)
    raise TypeError(f"unknown term node: {type(t).__name__}")


def substitute(t: T.Term, env: Mapping[str, Fraction]) -> T.Term:
    """Replace the variables named in env by exact rational constants."""
    if isinstance(t, T.Var):
        return T.Const(env[t.name]) if t.name in env else t
    if isinstance(t, (T.Const, T.Pi)):
        return t
    if isinstance(t, (T.Add, T.Sub, T.Mul, T.Div)):
        return type(t)(substitute(t.left, env), substitute(t.right, env))
    if isinstance(t, T.Pow):
        return T.Pow(substitute(t.base, env), t.exponent)
    return type(t)(substitute(t.arg, env))


def free_vars(t: T.Term) -> frozenset[str]:
    """The names of the variables of t, by recursion."""
    if isinstance(t, T.Var):
        return frozenset((t.name,))
    return frozenset().union(*(free_vars(getattr(t, name))
                               for name in ("left", "right", "arg", "base") if hasattr(t, name)))


def formula_free_vars(f: Formula) -> frozenset[str]:
    """The variables of f's atoms that no quantifier above them binds, by
    recursion."""
    if isinstance(f, Atom):
        return free_vars(f.term)
    if isinstance(f, Exists):
        return formula_free_vars(f.body).difference(f.vars)
    if isinstance(f, ForAll):
        return formula_free_vars(f.body) - {f.var}
    return formula_free_vars(f.left) | formula_free_vars(f.right)


def signed_summands(t: T.Term) -> dict[T.Term, int]:
    """t as a sum of k * s over the summands s below its Add/Sub/Neg
    nodes, keyed by structural equality and in left-to-right order;
    summands that cancel keep a count of 0."""
    counts: dict[T.Term, int] = {}
    stack: list[tuple[T.Term, int]] = [(t, 1)]
    while stack:
        node, k = stack.pop()
        if isinstance(node, (T.Add, T.Sub)):
            stack.append((node.right, k if isinstance(node, T.Add) else -k))
            stack.append((node.left, k))
        elif isinstance(node, T.Neg):
            stack.append((node.arg, -k))
        else:
            counts[node] = counts.get(node, 0) + k
    return counts


def _add_into(acc: dict, part: dict, k: int) -> None:
    """acc += k * part, dropping monomials whose coefficient cancels."""
    for mono, c in part.items():
        got = acc.get(mono, Fraction(0)) + k * c
        if got:
            acc[mono] = got
        else:
            acc.pop(mono, None)


def _convolve(a: dict, b: dict) -> dict:
    """a * b on `Fraction` coefficients, each product monomial's atoms
    sorted by their `term_text`."""
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            _add_into(out, {tuple(sorted(ma + mb, key=T.term_text)): ca * cb}, 1)
    return out


def recursive_expand(t: T.Term) -> dict | None:
    """`terms._expand` by recursion over the term, on `Fraction`
    coefficients: the polynomial form of t over atomic factors, None when
    t divides by a non-constant."""
    if isinstance(t, T.Const):
        return {(): t.value} if t.value else {}
    if isinstance(t, (T.Add, T.Sub)):
        left = recursive_expand(t.left)
        right = recursive_expand(t.right)
        if left is None or right is None:
            return None
        out = dict(left)
        _add_into(out, right, 1 if isinstance(t, T.Add) else -1)
        return out
    if isinstance(t, T.Neg):
        inner = recursive_expand(t.arg)
        if inner is None:
            return None
        return {m: -c for m, c in inner.items()}
    if isinstance(t, T.Mul):
        left = recursive_expand(t.left)
        right = recursive_expand(t.right)
        if left is None or right is None:
            return None
        return _convolve(left, right)
    if isinstance(t, T.Div):
        num = recursive_expand(t.left)
        den = recursive_expand(t.right)
        if num is None or den is None:
            return None
        if len(den) == 1 and () in den:
            return {m: c / den[()] for m, c in num.items()}
        return None
    if isinstance(t, T.Pow):
        base = recursive_expand(t.base)
        if base is None:
            return None
        out = {(): Fraction(1)}
        for _ in range(t.exponent):
            out = _convolve(out, base)
        return out
    return {(t,): Fraction(1)}  # Var, Pi, Sin, Cos, Exp, Sqrt are atomic


def expand_normal(t: T.Term) -> T.Term:
    """`terms.expand_normal` with every summand of t counted in one dict:
    summands whose count cancels are dropped, the rest are expanded by
    `recursive_expand`, and t comes back unchanged when one of them has a
    non-constant divisor."""
    poly: dict = {}
    for s, k in signed_summands(t).items():
        if not k:
            continue
        part = recursive_expand(s)
        if part is None:
            return t
        _add_into(poly, part, k)
    total: T.Term | None = None
    for mono in sorted(poly, key=lambda m: (len(m), tuple(map(T.term_text, m)))):
        c = poly[mono]
        factor: T.Term | None = None if c == 1 and mono else T.Const(c)
        for atom in mono:
            factor = atom if factor is None else T.Mul(factor, atom)
        total = factor if total is None else T.Add(total, factor)
    return total if total is not None else T.Const(Fraction(0))


# ---------------------------------------------------------------------------
# the three-valued logic on subsets of {True, False}


def tri_and(u: frozenset, v: frozenset) -> frozenset:
    return frozenset(a and b for a in u for b in v)


def tri_or(u: frozenset, v: frozenset) -> frozenset:
    return frozenset(a or b for a in u for b in v)


def block_parts(b: Exists) -> tuple[tuple[T.Term, ...], tuple[T.Term, ...]]:
    """Equation terms and inequality terms of a conjunctive exists block,
    left to right."""
    def atoms(f: Formula) -> list[Atom]:
        if isinstance(f, Atom):
            return [f]
        if isinstance(f, And):
            return atoms(f.left) + atoms(f.right)
        raise ValueError("exists body is not a conjunction of atoms")

    found = atoms(b.body)
    return (tuple(a.term for a in found if isinstance(a, Eq)),
            tuple(a.term for a in found if isinstance(a, Geq)))


def formula_groups(toks: list[str]) -> set[int]:
    """The indices of the '(' whose group, up to the matching ')' or the
    end of the input, holds '=', '>=', '<=', 'exists' or 'forall': one
    scan of the whole token list, where a group that holds one makes its
    enclosing group hold one too."""
    holds: set[int] = set()
    open_: list[int] = []
    for k, tok in enumerate(toks):
        if tok == "(":
            open_.append(k)
        elif tok == ")":
            if open_ and open_.pop() in holds and open_:
                holds.add(open_[-1])
        elif tok in ("=", ">=", "<=", "exists", "forall") and open_:
            holds.add(open_[-1])
    while open_:
        if open_.pop() in holds and open_:
            holds.add(open_[-1])
    return holds


def _enclose(t: T.Term, env: dict[str, Ival]) -> Ival:
    return compile_term(t, tuple(env))(list(env.values()), _GUARD_PREC)


def check_domains(f: Formula, env: dict[str, Ival]) -> None:
    """Reject formulas whose division or sqrt can leave its domain
    anywhere on the box of the variables in scope: the check `parse`
    makes as it builds each division and sqrt, as a second walk over the
    parsed formula.  Its messages are the parser's.  It visits each
    atom's term in post-order, so in `a <= b`, parsed as `b - a >= 0`,
    b's fault comes before a's, where the parser reports a's."""
    if isinstance(f, Atom):
        check_term(f.term, env)
        return
    if isinstance(f, Exists):
        inner = dict(env)
        inner.update(zip(f.vars, f.bounds))
        check_domains(f.body, inner)
        return
    if isinstance(f, ForAll):
        inner = dict(env)
        inner[f.var] = f.bound
        check_domains(f.body, inner)
        return
    check_domains(f.left, env)
    check_domains(f.right, env)


def check_term(t: T.Term, env: dict[str, Ival]) -> None:
    if isinstance(t, (T.Const, T.Pi, T.Var)):
        return
    if isinstance(t, (T.Add, T.Sub, T.Mul, T.Div)):
        check_term(t.left, env)
        check_term(t.right, env)
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
        check_term(t.base, env)
        return
    check_term(t.arg, env)
    if isinstance(t, T.Sqrt):
        if _enclose(t.arg, env)[0] < 0:
            raise DomainError(
                f"sqrt argument {T.term_text(t.arg)} may be negative on the "
                "quantification box")


def tapes(fs: Sequence[T.Term], names: Sequence[str]) -> list[Evaluator]:
    """The compiled evaluators of fs over `names`, as `degree` takes them."""
    return [compile_term(f, names) for f in fs]


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
    cells: Sequence[Cell],
    samples: int = 64,
) -> int:
    """Non-rigorous test oracle: total winding of (f1, f2) along the
    oriented boundary of the complex of `cells`, by float sampling."""
    if len(fs) != 2 or len(cells[0]) != 2:
        raise ValueError("winding oracle needs a planar map")
    total = 0.0
    for face, coef in oriented_boundary(ratboxes(cells)).items():
        free = [a for a, iv in enumerate(face.intervals) if iv.lo != iv.hi]
        if len(free) != 1:
            raise ValueError("boundary face is not an edge")
        axis = free[0]
        iv = face.intervals[axis]
        lo, span = float(iv.lo), float(width(iv))
        fixed = {names[a]: float(face[a].lo) for a in range(2) if a != axis}
        prev = None
        delta = 0.0
        for k in range(samples + 1):
            env = dict(fixed)
            env[names[axis]] = lo + span * k / samples
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


CellIndex = tuple[int, ...]


@dataclass(frozen=True)
class IndexGrid:
    """A grid of any number of cells per axis, odd ones included, by its
    base box and counts: the index-space references below read only
    these two, so they take a `Grid` (powers of two only) as well."""
    base: tuple[Ival, ...]
    counts: tuple[int, ...]


AnyGrid = Grid | IndexGrid


@dataclass(frozen=True)
class Face:
    """A grid face: cut `at[axis]` of `axis`, spanning cell `at[a]` of
    every other axis a, between the two incident cells (None on the side
    that falls outside the grid)."""
    axis: int
    at: CellIndex
    lower_cell: Optional[CellIndex]
    upper_cell: Optional[CellIndex]

    @property
    def on_boundary(self) -> bool:
        return self.lower_cell is None or self.upper_cell is None


def grid_cut(grid: AnyGrid, axis: int, i: int) -> Fraction:
    """Cut i of `axis`, from the base box's `Fraction` endpoints."""
    iv = to_interval(grid.base[axis])
    return iv.lo + width(iv) * i / grid.counts[axis]


def least_power_of_two(n: RatLike) -> int:
    """The least power of two >= n, 1 for n <= 1: a `grid_cover` count."""
    c = 1
    while c < n:
        c *= 2
    return c


def grid_cells(grid: AnyGrid) -> Iterator[tuple[CellIndex, RatBox]]:
    """Every cell of the grid, in index order, with its box built from
    `grid_cut`."""
    for idx in _multi_range(list(grid.counts)):
        yield idx, RatBox(tuple(rival(grid_cut(grid, a, i), grid_cut(grid, a, i + 1))
                                for a, i in enumerate(idx)))


def index_block(grid: AnyGrid, lo: CellIndex, hi: CellIndex) -> Cell:
    """The `Ival` cell spanning the grid cells lo <= idx < hi: cut i of an
    axis (a, b, d) of c cells is a*c + (b - a)*i over d*c, unreduced."""
    return tuple((a * c + (b - a) * i, a * c + (b - a) * j, d * c)
                 for (a, b, d), c, i, j in zip(grid.base, grid.counts, lo, hi))


def index_cell(grid: AnyGrid, idx: CellIndex) -> Cell:
    """The integer cell of the grid cell at index `idx`."""
    return index_block(grid, idx, tuple(i + 1 for i in idx))


def complex_of(grid: AnyGrid, idxs: Iterable[CellIndex]) -> list[Cell]:
    """The cells of the grid at the indices `idxs`, as a complex."""
    return [index_cell(grid, idx) for idx in idxs]


def halve_index_block(lo: CellIndex, hi: CellIndex):
    """Split the index block [lo, hi) in half along its longest index
    range (the first such axis); None when the block is a single cell."""
    widths = [j - i for i, j in zip(lo, hi)]
    if all(w == 1 for w in widths):
        return None
    axis = widths.index(max(widths))
    mid = (lo[axis] + widths[axis] // 2,)
    return ((lo, hi[:axis] + mid + hi[axis + 1:]),
            (lo[:axis] + mid + lo[axis + 1:], hi))


def grid_face(grid: AnyGrid, axis: int, plane: int, rest: CellIndex) -> Face:
    """The (dim-1)-face at cut `plane` of `axis`; `rest` indexes the
    cells along the remaining axes."""
    at = rest[:axis] + (plane,) + rest[axis:]
    lower = rest[:axis] + (plane - 1,) + rest[axis:] if plane > 0 else None
    upper = at if plane < grid.counts[axis] else None
    return Face(axis, at, lower, upper)


def index_cell_faces(grid: AnyGrid, idx: CellIndex) -> Iterator[Face]:
    """The 2*dim faces of cell `idx`, lower before upper on each axis."""
    for axis in range(len(grid.counts)):
        rest = idx[:axis] + idx[axis + 1:]
        for plane in (idx[axis], idx[axis] + 1):
            yield grid_face(grid, axis, plane, rest)


def face_box(grid: AnyGrid, face: Face) -> RatBox:
    """The box of a grid face, degenerate in its axis."""
    return RatBox(tuple(
        rival(grid_cut(grid, a, i)) if a == face.axis
        else rival(grid_cut(grid, a, i), grid_cut(grid, a, i + 1))
        for a, i in enumerate(face.at)))


def grid_faces(grid: AnyGrid) -> Iterator[Face]:
    """All grid faces, each degenerate in exactly one axis, ordered by
    axis, then plane, then the cell index along the other axes."""
    for axis in range(len(grid.counts)):
        other = [c for a, c in enumerate(grid.counts) if a != axis]
        for plane in range(grid.counts[axis] + 1):
            for rest in _multi_range(other):
                yield grid_face(grid, axis, plane, rest)


def _multi_range(counts: list[int]) -> Iterator[CellIndex]:
    if not counts:
        yield ()
        return
    for i in range(counts[0]):
        for rest in _multi_range(counts[1:]):
            yield (i,) + rest


def single_box(b: tuple[Ival, ...]) -> list[Cell]:
    """The box b as a one-cell complex."""
    return [tuple(b)]


def ratboxes(cells: Iterable[Cell]) -> tuple[RatBox, ...]:
    """`Ival` cells as `RatBox`es of `Fraction`s."""
    return tuple(ratbox(cell) for cell in cells)


# ---------------------------------------------------------------------------
# boundaries, bisection and degree on RatBox cells


def oriented_boundary(cells: Iterable[RatBox]) -> dict[RatBox, int]:
    """Outward-oriented boundary of a union of congruent aligned cells,
    as face-box -> integer coefficient.

    Each cell contributes its faces with the induced orientation of the
    standard frame: on the t-th non-degenerate axis (1-based), the upper
    face gets (-1)**(t-1) and the lower face (-1)**t.  Faces shared by
    two cells receive opposite signs and cancel exactly.
    """
    out: dict[RatBox, int] = {}
    for cell in cells:
        _add_cell_boundary(out, cell, 1)
    return {b: c for b, c in out.items() if c}


def _add_cell_boundary(acc: dict[RatBox, int], cell: RatBox, coef: int) -> None:
    t = 0
    for axis, iv in enumerate(cell.intervals):
        if iv.lo == iv.hi:
            continue
        t += 1
        sign = -1 if t % 2 == 0 else 1
        hi_face = box_replace(cell, axis, rival(iv.hi))
        lo_face = box_replace(cell, axis, rival(iv.lo))
        for face, s in ((hi_face, sign * coef), (lo_face, -sign * coef)):
            got = acc.get(face, 0) + s
            if got:
                acc[face] = got
            else:
                acc.pop(face, None)


def bisect_box(b: RatBox) -> list[RatBox]:
    """Split a box in half along every non-degenerate axis."""
    out = [()]
    for iv in b.intervals:
        pieces = split(iv) if iv.lo != iv.hi else (iv,)
        out = [combo + (piece,) for combo in out for piece in pieces]
    return [RatBox(combo) for combo in out]


_MAX_PREC = 4096


class _Budget:
    """The subdivision work spent, and whether it is still within `limit`."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int) -> bool:
        self.used += n
        return self.used <= self.limit


# a certificate for one cell: (component index, sign, verified lower bound
# on sign * f_i over the cell)
_Cert = tuple[int, int, Fraction]


def _certify(fs: Sequence[Evaluator], cell: RatBox, p: int) -> Optional[_Cert]:
    env = box_env(cell)
    for i, f in enumerate(fs):
        lo, hi, d = f(env, p)
        if lo > 0:
            return i, 1, Fraction(lo, d)
        if hi < 0:
            return i, -1, Fraction(-hi, d)
    return None


def _sign_at_point(
    f: Evaluator, cell: RatBox, p: int, budget: _Budget
) -> Optional[tuple[int, Fraction]]:
    """Sign of f at a degenerate box, escalating precision as needed."""
    env = box_env(cell)
    while p <= _MAX_PREC:
        lo, hi, d = f(env, p)
        if lo > 0:
            return 1, Fraction(lo, d)
        if hi < 0:
            return -1, Fraction(-hi, d)
        if not budget.spend(1):
            return None
        p *= 2
    return None


def _deg_cycle(
    fs: list[Evaluator],
    cycle: dict[RatBox, int],
    p: int,
    budget: _Budget,
    top_bounds: Optional[list[Fraction]],
) -> Optional[int]:
    """Degree of fs over an oriented cycle of (len(fs)-1)-cells."""
    if not cycle:  # e.g. a region boundary that cancelled out entirely
        return 0
    if len(fs) == 1:
        total = 0
        for cell, coef in cycle.items():
            got = _sign_at_point(fs[0], cell, p, budget)
            if got is None:
                return None
            sign, lb = got
            total += coef * sign
            if top_bounds is not None:
                top_bounds.append(lb)
        if total % 2:  # an odd sum means the cycle was not closed
            return None
        return total // 2

    cells: list[tuple[RatBox, int]] = list(cycle.items())
    certs: dict[RatBox, _Cert] = {}
    while True:
        pending = [cell for cell, _ in cells if cell not in certs]
        if not pending:
            break
        for cell in pending:
            cert = _certify(fs, cell, p)
            if cert is not None:
                certs[cell] = cert
        if all(cell in certs for cell, _ in cells):
            break
        # congruent refinement: split every cell so that shared sub-faces
        # of the region boundary still cancel by box identity
        if not budget.spend(len(cells)):
            return None
        refined: list[tuple[RatBox, int]] = []
        for cell, coef in cells:
            children = bisect_box(cell)
            for child in children:
                refined.append((child, coef))
                if cell in certs:
                    certs[child] = certs[cell]  # subset keeps the bound
        cells = refined
        p += 2

    counts: dict[int, int] = {}
    for cert in certs.values():
        counts[cert[0]] = counts.get(cert[0], 0) + 1
    i_star = min(counts, key=lambda i: (-counts[i], i))

    if top_bounds is not None:
        top_bounds.extend(cert[2] for cert in certs.values())

    gamma: dict[RatBox, int] = {}
    for cell, coef in cells:
        ci, cs, _ = certs[cell]
        if ci == i_star and cs == 1:
            _add_cell_boundary(gamma, cell, coef)
    gamma = {b: c for b, c in gamma.items() if c}

    reduced = fs[:i_star] + fs[i_star + 1:]
    sub = _deg_cycle(reduced, gamma, p, budget, None)
    if sub is None:
        return None
    return sub if i_star % 2 == 0 else -sub


def degree(
    fs: Sequence[T.Term],
    names: Sequence[str],
    cells: Sequence[RatBox],
    p: int,
    budget: int = 1000,
) -> Optional[DegreeResult]:
    """Degree of fs over the union of the congruent aligned `cells`, or
    None when the boundary cannot be certified nonzero within the
    subdivision budget."""
    if len(fs) != cells[0].dim:
        raise ValueError("map and complex dimension differ")
    state = _Budget(budget)
    bounds: list[Fraction] = []
    cycle = oriented_boundary(cells)
    evals = [compile_term(f, names) for f in fs]
    value = _deg_cycle(evals, cycle, p, state, bounds)
    if value is None:
        return None
    return DegreeResult(value, min(bounds), state.used)


# ---------------------------------------------------------------------------
# supremum enclosure on RatBox cells


def sup_abs_enclosure(
    t: T.Term, names: Sequence[str], box: RatBox, tol: Fraction
) -> RatInterval:
    """Enclosure of sup |t| over the box, of width <= tol unless the work
    cap stops it first.

    Iterative deepening over uniform grids: the bracket sequence depends
    only on the term and the box, and successive brackets are
    intersected, so a tighter tolerance always yields a sub-interval of
    a looser one's result.  The lower bound also takes the mignitude of
    |t| at every corner of the active cells.  An axis that t does not
    read is one point.  A cell where t leaves its domain gives its depth
    no upper bound and is kept; such a corner gives no lower bound.  When
    the cells of the depths done and of the next would pass
    `distance.MAX_CELLS`, the bracket so far is returned, and DomainError
    is raised when no depth gave an upper bound.
    """
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    evaluate = compile_term(t, names)
    used = free_vars(t)
    box = RatBox(tuple(iv if name in used else rival(iv.lo)
                       for name, iv in zip(names, box.intervals)))
    bracket: RatInterval | None = None
    active = [box]
    best_lo = Fraction(0)  # |t| >= 0 somewhere
    depth, cells = 0, 1
    while cells <= MAX_CELLS:
        p = depth + 10
        scored = []  # (cell, enclosure of |t|, None where t leaves its domain)
        corners = set()
        for cell in active:
            try:
                enc = abs_interval(to_interval(evaluate(box_env(cell), p)))
            except DomainError:
                enc = None
            else:
                best_lo = max(best_lo, enc.lo)
            scored.append((cell, enc))
            corners.update(product(*((iv.lo, iv.hi) for iv in cell.intervals)))
        for corner in corners:
            point = RatBox(tuple(rival(c, c) for c in corner))
            try:
                best_lo = max(best_lo, abs_interval(to_interval(evaluate(box_env(point), p))).lo)
            except DomainError:
                pass
        if all(enc is not None for _, enc in scored):
            hi = max(enc.hi for _, enc in scored)
            step = rival(min(best_lo, hi), hi)
            bracket = step if bracket is None else _intersect(bracket, step)
            if width(bracket) <= tol:
                return bracket
        # keep only cells that can still carry the supremum, then bisect
        active = [half for cell, enc in scored if enc is None or enc.hi >= best_lo
                  for half in bisect_box(cell)]
        cells += len(active)
        depth += 1
    if bracket is None:
        raise DomainError(f"no upper bound on |t| within {MAX_CELLS} cells")
    return rival(best_lo, bracket.hi)


def _intersect(a: RatInterval, b: RatInterval) -> RatInterval:
    return rival(max(a.lo, b.lo), min(a.hi, b.hi))


def distance_enclosure(f: Formula, g: Formula, tol: Fraction) -> RatInterval:
    """`distance.distance_enclosure` of two sentences of one structure:
    every aligned pair's difference in the normal form of `expand_normal`,
    a constant one taken exactly and any other enclosed by
    `sup_abs_enclosure`; the bounds are the largest of all pairs."""
    lo = hi = Fraction(0)
    for tf, tg, names, bounds in aligned_terms(f, g):
        diff = expand_normal(T.Sub(tf, tg))
        if isinstance(diff, T.Const):
            enc = rival(abs(diff.value))
        else:
            enc = sup_abs_enclosure(diff, names, ratbox(bounds), tol)
        lo, hi = max(lo, enc.lo), max(hi, enc.hi)
    return RatInterval(lo, hi)


# ---------------------------------------------------------------------------
# records


def recursive_repr(self) -> str:
    """`Record.__repr__` as a recursion over the fields: installed on
    `Record`, it prints every nested record by calling itself."""
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{type(self).__name__}({fields})"


def recursive_eq(self, other):
    """`Record.__eq__` as a comparison of the field tuples: installed on
    `Record`, it compares every nested record by calling itself."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    return (tuple(getattr(self, name) for name in self._fields)
            == tuple(getattr(other, name) for name in other._fields))


# ---------------------------------------------------------------------------
# printing


def recursive_term_text(t: T.Term, parent: int = 0) -> str:
    """`terms.term_text` as a recursion, one call per term level."""
    if isinstance(t, T.Const):
        v = t.value
        if v.denominator == 1:
            s = str(v.numerator)
            return f"({s})" if v < 0 and parent > T._PREC_ADD else s
        s = f"{v.numerator}/{v.denominator}"
        return f"({s})" if parent > T._PREC_MUL else s
    if isinstance(t, T.Pi):
        return "pi"
    if isinstance(t, T.Var):
        return t.name
    if isinstance(t, (T.Add, T.Sub)):
        op = " + " if isinstance(t, T.Add) else " - "
        s = recursive_term_text(t.left, T._PREC_ADD) + op + recursive_term_text(t.right, T._PREC_ADD + 1)
        return f"({s})" if parent > T._PREC_ADD else s
    if isinstance(t, T.Neg):
        s = "-" + recursive_term_text(t.arg, T._PREC_UNARY)
        return f"({s})" if parent >= T._PREC_MUL else s
    if isinstance(t, (T.Mul, T.Div)):
        op = "*" if isinstance(t, T.Mul) else "/"
        s = recursive_term_text(t.left, T._PREC_MUL) + op + recursive_term_text(t.right, T._PREC_MUL + 1)
        return f"({s})" if parent > T._PREC_MUL else s
    if isinstance(t, T.Pow):
        s = recursive_term_text(t.base, T._PREC_POW + 1) + f"^{t.exponent}"
        return f"({s})" if parent > T._PREC_POW else s
    return f"{type(t).__name__.lower()}({recursive_term_text(t.arg)})"


# ---------------------------------------------------------------------------
# exact decisions and robustness margins of univariate polynomial sentences

Poly = tuple[Fraction, ...]  # coefficients, the constant first
Bracket = tuple[Fraction, Fraction]  # lo <= the exact value <= hi

# the shapes of a one-polynomial sentence over x in [a, b]
POLY_SHAPES = ("exists_eq", "exists_geq", "forall_geq")

# sentences whose f touches zero from one side but for δ, with δ written
# in for {}: the exact margin, min(max f, -min f), is δ for 0 < δ <= 1/2
NEAR_TANGENCIES = ("exists x in [0,2] . sin(x) - 1 + {} = 0",
                   "exists x in [2,4] . cos(x) + 1 - {} = 0")


def poly_eval(p: Poly, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(p):
        out = out * x + c
    return out


def poly_bracket(p: Poly, lo: Fraction, hi: Fraction) -> Bracket:
    """An enclosure of p on [lo, hi] by interval Horner."""
    x = rival(lo, hi)
    out = rival(0)
    for c in reversed(p):
        out = add(mul(out, x), rival(c))
    return out.lo, out.hi


def _trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_derivative(p: Poly) -> Poly:
    return tuple(i * c for i, c in enumerate(p))[1:]


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """The quotient and the remainder of a by b."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        k, shift = a[-1] / b[-1], len(a) - len(b)
        q[shift] = k
        for i, c in enumerate(b):
            a[shift + i] -= k * c
        a.pop()  # its leading term is now zero
        _trim(a)
    return q, a


def sturm_chain(p: Poly) -> list[list[Fraction]]:
    """The Sturm chain of the square-free part s = p / gcd(p, p') of p:
    s, s' and the negated remainders down to the last nonzero one.  s has
    the roots of p, each simple, so no point makes every member of the
    chain vanish, as a multiple root of p would."""
    p = _trim(list(p))
    gcd, r = p, _trim(list(poly_derivative(p)))
    while r:
        gcd, r = r, _poly_divmod(gcd, r)[1]
    s = _poly_divmod(p, gcd)[0]
    chain = [s, _trim(list(poly_derivative(s)))]
    while chain[-1]:
        chain.append([-c for c in _poly_divmod(chain[-2], chain[-1])[1]])
    return chain[:-1]


def _sign_changes(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = [v > 0 for v in (poly_eval(q, x) for q in chain) if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def count_roots(chain: list[list[Fraction]], a: Fraction, b: Fraction) -> int:
    """Sturm's theorem: the distinct real roots of chain[0] in (a, b]."""
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def root_brackets(p: Poly, a: Fraction, b: Fraction, bits: int = 40) -> list[Bracket]:
    """Each distinct root of p in the open (a, b), in an interval (lo, hi]
    of width at most 2^-bits that holds it alone; a rational root met on
    the way is the exact (r, r).  p is not the zero polynomial."""
    if len(_trim(list(p))) < 2:
        return []  # a constant
    chain, tol, out = sturm_chain(p), Fraction(1, 2 ** bits), []
    stack = [(a, b, count_roots(chain, a, b) - (poly_eval(p, b) == 0))]
    while stack:
        lo, hi, n = stack.pop()  # n roots in the open (lo, hi)
        if n == 0:
            continue
        if n == 1 and hi - lo <= tol:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if poly_eval(p, mid) == 0:
            out.append((mid, mid))
            left = count_roots(chain, lo, mid) - 1
            stack += ((lo, mid, left), (mid, hi, n - 1 - left))
        else:
            left = count_roots(chain, lo, mid)
            stack += ((lo, mid, left), (mid, hi, n - left))
    return sorted(out)


def poly_extrema(p: Poly, a: Fraction, b: Fraction) -> tuple[Bracket, Bracket]:
    """Brackets of min p and max p on [a, b]: over the ends and the roots
    of p', each root's value enclosed on its isolating interval."""
    values = [(poly_eval(p, a),) * 2, (poly_eval(p, b),) * 2]
    dp = poly_derivative(p)
    if any(dp):
        values += [poly_bracket(p, lo, hi) for lo, hi in root_brackets(dp, a, b)]
    return ((min(lo for lo, _ in values), min(hi for _, hi in values)),
            (max(lo for lo, _ in values), max(hi for _, hi in values)))


def signed_margin(shape: str, p: Poly, a: Fraction, b: Fraction) -> Bracket:
    """A bracket of the signed robustness margin of one polynomial
    sentence over x in [a, b]: positive for a TRUE sentence, negative for
    a FALSE one, and its magnitude the exact infimum, in the sup norm, of
    the perturbations of p that flip the verdict.

    - exists p = 0: TRUE margin min(max p, -min p), FALSE margin min |p|,
      so min(max p, -min p) in both cases;
    - exists p >= 0: max p;
    - forall p >= 0: min p."""
    (min_lo, min_hi), (max_lo, max_hi) = poly_extrema(p, a, b)
    if shape == "exists_eq":
        return min(max_lo, -min_hi), min(max_hi, -min_lo)
    if shape == "exists_geq":
        return max_lo, max_hi
    if shape == "forall_geq":
        return min_lo, min_hi
    raise ValueError(f"unknown shape {shape!r}")


def combine_margins(word: str, left: Bracket, right: Bracket) -> Bracket:
    """The signed margin of `left word right` over disjoint variables: an
    `and` flips when its least side flips, so a TRUE one takes the least
    margin and a FALSE one the largest over its FALSE sides, the least
    signed margin either way; an `or` takes the largest."""
    pick = min if word == "and" else max
    return pick(left[0], right[0]), pick(left[1], right[1])


def poly_text(p: Poly, var: str) -> str:
    """p as a term of the parser's language, highest power first."""
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if c == 0:
            continue
        mag = str(abs(c))
        power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
        mono = mag if not power else power if abs(c) == 1 else f"{mag}*{power}"
        parts.append(("- " if c < 0 else "+ ") + mono)
    if not parts:
        return "0"
    text = " ".join(parts)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def poly_sentence_text(shape: str, p: Poly, a: Fraction, b: Fraction, var: str = "x") -> str:
    quantifier = "forall" if shape == "forall_geq" else "exists"
    relation = "=" if shape == "exists_eq" else ">="
    return f"{quantifier} {var} in [{a},{b}] . {poly_text(p, var)} {relation} 0"


def hoisted_sentence_text(form: str, word: str, shape: str, p: Poly, a: Fraction, b: Fraction,
                          q: Poly, c: Fraction, d: Fraction) -> str:
    """The sentence `shape` of p in x over [a, b], `word`, and
    `forall y in [c,d] . q(y) >= 0`, with universals above the `word`:
    "hoist" moves `forall y` up, `forall y in [c,d] . ((x side) word
    (q(y) >= 0))`, and "split" moves both for the x side
    `forall x in [a,b] . p(x) >= 0` (whatever `shape` is),
    `forall x in [a,b] . forall y in [c,d] . ((p(x) >= 0) word (q(y) >= 0))`.
    Either has the atoms of the side-by-side sentence, hence its
    perturbations and its margin (`combine_margins`)."""
    right = f"({poly_text(q, 'y')} >= 0)"
    if form == "hoist":
        return f"forall y in [{c},{d}] . (({poly_sentence_text(shape, p, a, b)}) {word} {right})"
    return (f"forall x in [{a},{b}] . forall y in [{c},{d}] . "
            f"(({poly_text(p, 'x')} >= 0) {word} {right})")
