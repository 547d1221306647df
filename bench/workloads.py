"""Seeded workload generators and the label self-check.

Every item is a sentence text with a fixed iteration budget and a label
(TRUE, FALSE or UNKNOWN) that comes from how the sentence was built or
from the corpus `.expect` file, never from the solver.  `self_check`
re-derives each label from the construction parameters: exact `Fraction`
arithmetic for polynomials and linear systems, mpmath at 60 digits for
transcendental terms.

Each workload is a fixed catalog of sentences.  The seed translates
every variable of every catalog sentence by a nonzero integer and draws
the sign of each distance perturbation, so the texts differ from seed to
seed while the work stays the same, which the benchmark's bounds rely on.

`sin`/`cos` arguments stop at 2^20: near 2^60 the current argument
reduction loops for a very long time, and a run that never ends
measures nothing.
"""
from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import mpmath

# budgets are fixed per family so that the work does not depend on the seed
NONROBUST_BUDGET = 11
ROBUST_1D_BUDGET = 14
ROBUST_ND_BUDGET = 6
PLANAR_BUDGET = 12
TANGENCY_2D_BUDGET = 4

DISTANCE_TOL = Fraction(1, 1024)
DISTANCE_D = Fraction(3, 64)
ARG_LIMIT = 2 ** 20

CORPUS_TRIO = ("sin_one", "double_zero", "touching_ineq")


@dataclass
class Item:
    id: str
    family: str
    text: str
    budget: int
    label: str  # "TRUE" | "FALSE" | "UNKNOWN"
    perturbed: str = ""
    distance_ref: Fraction = Fraction(0)
    # re-derives the label from the construction, without the solver
    check: Optional[Callable[[], str]] = field(default=None, repr=False)

    def job(self) -> dict:
        """What the solving process receives: text and settings only."""
        return {"id": self.id, "text": self.text, "budget": self.budget,
                "perturbed": self.perturbed,
                "tol": fmt(DISTANCE_TOL)}


# ---------------------------------------------------------------------------
# text helpers


def fmt(q: Fraction) -> str:
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def shift(var: str, c: Fraction) -> str:
    """The text of var - c."""
    c = Fraction(c)
    if c == 0:
        return var
    return f"{var} - {fmt(c)}" if c > 0 else f"{var} + {fmt(-c)}"


def linear(terms: list[tuple[Fraction, str]], const: Fraction) -> str:
    """The text of sum(k * v) + const, with signs folded in."""
    out = ""
    for k, v in terms + [(Fraction(const), "")]:
        k = Fraction(k)
        if k == 0:
            continue
        mag = abs(k)
        if v:
            body = v if mag == 1 else f"{fmt(mag)}*{v}"
        else:
            body = fmt(mag)
        if not out:
            out = body if k > 0 else f"-{body}"
        else:
            out += f" + {body}" if k > 0 else f" - {body}"
    return out or "0"


def interval(lo: Fraction, hi: Fraction) -> str:
    return f"[{fmt(lo)},{fmt(hi)}]"


_BINDER = re.compile(r"(?:exists|forall)\s+(\w+)\s+in\s+\[([^,\]]+),([^\]]+)\]")
_RELATION = re.compile(r"\s(<=|>=|=)\s")


def perturb(text: str, d: Fraction) -> tuple[str, Fraction]:
    """The sentence with `+ d*x` added to the left side of its first atom,
    x being the first quantified variable, and the exact distance
    |d| * max(|a|, |b|) for x in [a, b]."""
    m = _BINDER.search(text)
    rel = _RELATION.search(text, m.end())
    var, lo, hi = m.group(1), Fraction(m.group(2)), Fraction(m.group(3))
    term = f"{fmt(d)}*{var}" if d > 0 else f"{fmt(-d)}*{var}"
    sign = " + " if d > 0 else " - "
    out = text[:rel.start()] + sign + term + text[rel.start():]
    return out, abs(d) * max(abs(lo), abs(hi))


def with_distance(item: Item, rng: random.Random) -> Item:
    # a fixed |d|: the depth of the distance search grows with |d|
    d = DISTANCE_D * rng.choice((-1, 1))
    item.perturbed, item.distance_ref = perturb(item.text, d)
    return item


_BOUND = re.compile(r"\b([xyz])\s+in\s+\[([^,\]]+),([^\]]+)\]")
_VAR = re.compile(r"\b([xyz])\b(?!\s+in\s)")


def offset(rng: random.Random) -> Fraction:
    """A nonzero integer shift.  Integers keep Fraction arithmetic on the
    fast path whatever the seed: a shift with denominator 4 made some
    sentences 60% slower than an integer one."""
    return Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))


def translate(item: Item, rng: random.Random) -> Item:
    """Move every variable v by a random t, in the sentence and in its
    perturbed copy alike: its box by +t, and each use of v in a term
    becomes (v - t).  The subtraction is exact, so every interval the
    solver computes is the same as for the untranslated sentence: the
    label, the distance and the work stay the same, the text changes."""
    shifts: dict[str, Fraction] = {}

    def bound(m: re.Match) -> str:
        t = shifts.setdefault(m.group(1), offset(rng))
        return f"{m.group(1)} in {interval(Fraction(m.group(2)) + t, Fraction(m.group(3)) + t)}"

    def move(text: str) -> str:
        text = _BOUND.sub(bound, text)
        return _VAR.sub(lambda m: f"({shift(m.group(1), shifts[m.group(1)])})", text)
    item.text, item.perturbed = move(item.text), move(item.perturbed)
    return item


def dyadic(rng: random.Random, lo: Fraction, hi: Fraction, den: int = 64) -> Fraction:
    """A random multiple of 1/den in [lo, hi]."""
    a, b = math.ceil(lo * den), math.floor(hi * den)
    return Fraction(rng.randint(a, b), den)


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


# ---------------------------------------------------------------------------
# corpus


def corpus_items(root: Path, names: Optional[tuple[str, ...]], budget: Optional[int],
                 decided_only: bool) -> list[Item]:
    out = []
    for sent in sorted((root / "corpus").glob("*.sent")):
        name = sent.stem
        expect = sent.with_suffix(".expect").read_text().split()
        label, _, expect_budget = expect[1].partition("@")
        if names is not None and name not in names:
            continue
        if decided_only and label == "UNKNOWN":
            continue
        b = budget if budget is not None else int(expect_budget or 20)
        # a corpus label is checked against its .expect file only
        out.append(Item(f"corpus/{name}", "corpus", sent.read_text().strip(), b,
                        label, check=lambda label=label: label))
    if names is not None and len(out) != len(names):
        raise FileNotFoundError(f"corpus is missing some of {names}")
    return out


# ---------------------------------------------------------------------------
# nonrobust_1d: every item has a tangential or duplicated zero


def _tangent(rng: random.Random, kind: str) -> Item:
    # sin(x) = 1 touches at pi/2 + 2k pi, cos(x) = 1 at 2k pi, cos(x) = -1
    # at (2k+1) pi; all with k >= 1 so every argument needs reduction
    k = rng.randint(1, 3)
    with mpmath.workdps(60):
        t = {"sin=1": mpmath.pi / 2 + 2 * k * mpmath.pi,
             "cos=1": 2 * k * mpmath.pi,
             "cos=-1": (2 * k + 1) * mpmath.pi}[kind]
        lo = Fraction(int(mpmath.floor((t - mpmath.mpf(rng.randint(16, 48)) / 64) * 64)), 64)
    hi = lo + 1
    fn, rhs = kind.split("=")
    text = f"exists x in {interval(lo, hi)} . {fn}(x) = {rhs}"

    def check() -> str:
        with mpmath.workdps(60):
            inside = _mp(lo) + mpmath.mpf(1) / 8 < t < _mp(hi) - mpmath.mpf(1) / 8
            f = mpmath.sin if fn == "sin" else mpmath.cos
            touches = abs(f(t) - int(rhs)) < mpmath.mpf(10) ** -50
        # a zero where f - rhs has a double root: non-robust
        return "UNKNOWN" if inside and touches else "BAD"
    return Item("", f"tangent_{fn}", text, NONROBUST_BUDGET, "UNKNOWN", check=check)


def _double_root(rng: random.Random) -> Item:
    lo = dyadic(rng, Fraction(-3), Fraction(2), 16)
    c = lo + dyadic(rng, Fraction(1, 4), Fraction(3, 4), 64)
    hi = lo + 1
    text = f"exists x in {interval(lo, hi)} . ({shift('x', c)})^2 = 0"

    def check() -> str:
        return "UNKNOWN" if lo + Fraction(1, 4) <= c <= hi - Fraction(1, 4) else "BAD"
    return Item("", "double_root", text, NONROBUST_BUDGET, "UNKNOWN", check=check)


def _duplicated(rng: random.Random) -> Item:
    lo = dyadic(rng, Fraction(-3), Fraction(2), 16)
    c = lo + dyadic(rng, Fraction(1, 2), Fraction(3, 2), 64)
    hi = lo + 2
    k = rng.randint(1, 3)
    text = (f"exists x in {interval(lo, hi)} . {shift('x', c)} = 0 and "
            f"{linear([(k, 'x')], -k * c)} = 0")

    def check() -> str:
        # two equations in one unknown: shifting one of them removes the zero
        return "UNKNOWN" if lo + Fraction(1, 4) <= c <= hi - Fraction(1, 4) else "BAD"
    return Item("", "duplicated_eq", text, NONROBUST_BUDGET, "UNKNOWN", check=check)


def _touching(rng: random.Random) -> Item:
    c = dyadic(rng, Fraction(-2), Fraction(2), 64)
    lo = c - dyadic(rng, Fraction(1, 32), Fraction(3, 32), 256)
    hi = lo + Fraction(1, 8)
    text = f"exists x in {interval(lo, hi)} . ({shift('x', c)})^2 <= 0"

    def check() -> str:
        return "UNKNOWN" if lo + Fraction(1, 64) <= c <= hi - Fraction(1, 64) else "BAD"
    return Item("", "touching_ineq", text, NONROBUST_BUDGET, "UNKNOWN", check=check)


def _nonrobust_catalog(rng: random.Random) -> list[Item]:
    items = [_tangent(rng, kind) for kind in ("sin=1", "cos=1", "cos=-1")]
    for make in (_double_root, _duplicated, _touching):
        items.extend(make(rng) for _ in range(3))
    return items


def nonrobust_1d(root: Path, seed: int) -> list[Item]:
    return _seeded("nonrobust_1d", seed, _nonrobust_catalog,
                   corpus_items(root, CORPUS_TRIO, NONROBUST_BUDGET, decided_only=False))


# ---------------------------------------------------------------------------
# robust_mix: robust sentences, labels known by construction


def _poly_coeffs(roots: list[Fraction]) -> list[Fraction]:
    """Integer coefficients (highest degree first) of prod(q x - p)."""
    coeffs = [Fraction(1)]
    for r in roots:
        p, q = r.numerator, r.denominator
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c * q
            nxt[i + 1] -= c * p
        coeffs = nxt
    return coeffs


def _poly_text(coeffs: list[Fraction], var: str = "x") -> str:
    deg = len(coeffs) - 1
    terms = []
    for i, c in enumerate(coeffs[:-1]):
        e = deg - i
        terms.append((c, var if e == 1 else f"{var}^{e}"))
    return linear(terms, coeffs[-1])


def _poly_eval(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_block(rng: random.Random, want_true: bool, var: str = "x",
                ) -> tuple[str, Callable[[], str]]:
    margin = Fraction(1, 8)
    while True:
        deg = rng.randint(2, 3)
        roots = sorted({Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                        for _ in range(deg)})
        if len(roots) != deg or any(b - a < Fraction(1, 4) for a, b in zip(roots, roots[1:])):
            continue
        width = dyadic(rng, Fraction(1, 2), Fraction(3, 2), 8)
        if want_true:
            lo = rng.choice(roots) - dyadic(rng, Fraction(1, 8), width - Fraction(1, 8), 16)
        else:
            lo = dyadic(rng, Fraction(-4), Fraction(3), 8)
        hi = lo + width
        if any(abs(r - lo) < margin or abs(r - hi) < margin for r in roots):
            continue
        if any(lo < r < hi for r in roots) != want_true:
            continue
        break
    coeffs = _poly_coeffs(roots)
    text = f"exists {var} in {interval(lo, hi)} . {_poly_text(coeffs, var)} = 0"

    def check() -> str:
        # deg distinct exact roots of a degree-deg polynomial are all its roots
        if len(coeffs) - 1 != len(roots) or any(_poly_eval(coeffs, r) != 0 for r in roots):
            return "BAD"
        if any(abs(r - lo) < margin or abs(r - hi) < margin for r in roots):
            return "BAD"
        return "TRUE" if any(lo < r < hi for r in roots) else "FALSE"
    return text, check


def _poly(rng: random.Random, want_true: bool) -> Item:
    text, check = _poly_block(rng, want_true)
    return Item("", "poly", text, ROBUST_1D_BUDGET, "TRUE" if want_true else "FALSE",
                check=check)


def _monotone_check(f, lo: Fraction, hi: Fraction, rhs) -> str:
    """Label of exists x in [lo, hi] . f(x) = rhs for f monotone on the box:
    TRUE on an endpoint sign change, FALSE when both ends miss rhs by 1/16."""
    with mpmath.workdps(60):
        a, b = f(_mp(lo)) - rhs, f(_mp(hi)) - rhs
        if a * b < 0 and min(abs(a), abs(b)) > mpmath.mpf(1) / 64:
            return "TRUE"
        if a * b > 0 and min(abs(a), abs(b)) > mpmath.mpf(1) / 16:
            return "FALSE"
    return "BAD"


def _exp(rng: random.Random, want_true: bool) -> Item:
    k = rng.choice((-2, -1, 1, 2))
    lo = dyadic(rng, Fraction(-1), Fraction(1, 2), 8)
    hi = lo + 1
    while True:
        c = dyadic(rng, Fraction(1, 8), Fraction(8), 32)
        label = _monotone_check(lambda x: mpmath.exp(k * x), lo, hi, _mp(c))
        if label == ("TRUE" if want_true else "FALSE"):
            break
    text = f"exists x in {interval(lo, hi)} . exp({linear([(k, 'x')], 0)}) - {fmt(c)} = 0"
    return Item("", "exp", text, ROBUST_1D_BUDGET, label,
                check=lambda: _monotone_check(lambda x: mpmath.exp(k * x), lo, hi, _mp(c)))


def _sqrt(rng: random.Random, want_true: bool) -> Item:
    k = rng.randint(1, 4)
    lo = dyadic(rng, Fraction(0), Fraction(2), 8)
    hi = lo + 1
    m = dyadic(rng, Fraction(0), Fraction(2), 8)
    while True:
        c = dyadic(rng, Fraction(1, 4), Fraction(4), 16)
        label = _sqrt_label(k, m, c, lo, hi)
        if label == ("TRUE" if want_true else "FALSE"):
            break
    text = f"exists x in {interval(lo, hi)} . sqrt({linear([(k, 'x')], m)}) - {fmt(c)} = 0"
    return Item("", "sqrt", text, ROBUST_1D_BUDGET, label,
                check=lambda: _sqrt_label(k, m, c, lo, hi))


def _sqrt_label(k: int, m: Fraction, c: Fraction, lo: Fraction, hi: Fraction) -> str:
    # sqrt(k x + m) = c with c > 0 has the single rational root (c^2 - m) / k
    root = (c * c - m) / k
    if k * lo + m < 0 or c <= 0:
        return "BAD"
    if lo + Fraction(1, 8) <= root <= hi - Fraction(1, 8):
        return "TRUE"
    if root < lo - Fraction(1, 4) or root > hi + Fraction(1, 4):
        return "FALSE"
    return "BAD"


def _sin_label(arg_shift: int, lo: Fraction, hi: Fraction, c: Fraction) -> str:
    """Label of exists x in [lo, hi] . sin(x + arg_shift) = c, after
    checking that the box lies 1/8 inside a monotone piece of sin."""
    with mpmath.workdps(60):
        a, b = _mp(lo) + arg_shift, _mp(hi) + arg_shift
        j = mpmath.floor((a + mpmath.pi / 2) / mpmath.pi)
        eighth = mpmath.mpf(1) / 8
        if not (-mpmath.pi / 2 + j * mpmath.pi + eighth < a
                and b < mpmath.pi / 2 + j * mpmath.pi - eighth):
            return "BAD"
    return _monotone_check(lambda x: mpmath.sin(x + arg_shift), lo, hi, _mp(c))


def _sin(rng: random.Random, want_true: bool, big: bool) -> Item:
    arg_shift = rng.randint(ARG_LIMIT // 2, ARG_LIMIT - 8) if big else 0
    want = "TRUE" if want_true else "FALSE"
    with mpmath.workdps(60):
        # a unit box 1/8 to 5/8 inside the piece (-pi/2 + j pi, pi/2 + j pi)
        # of the argument, where sin is monotone
        j = rng.randint(0, 3) + math.floor(arg_shift / math.pi)
        start = -mpmath.pi / 2 + j * mpmath.pi - arg_shift
        lo = Fraction(int(mpmath.ceil((start + mpmath.mpf(1) / 8) * 64)), 64)
    lo += dyadic(rng, Fraction(0), Fraction(1, 2), 64)
    hi = lo + 1
    while True:
        c = dyadic(rng, Fraction(-7, 8), Fraction(7, 8), 64)
        if _sin_label(arg_shift, lo, hi, c) == want:
            break
    arg = f"x + {arg_shift}" if arg_shift else "x"
    text = f"exists x in {interval(lo, hi)} . {linear([(1, f'sin({arg})')], -c)} = 0"
    return Item("", "sin_big_arg" if big else "sin", text, ROBUST_1D_BUDGET, want,
                check=lambda: _sin_label(arg_shift, lo, hi, c))


def _box2(rng: random.Random) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    ax = dyadic(rng, Fraction(-2), Fraction(1), 8)
    ay = dyadic(rng, Fraction(-2), Fraction(1), 8)
    wx = dyadic(rng, Fraction(1), Fraction(2), 4)
    wy = dyadic(rng, Fraction(1), Fraction(2), 4)
    return ax, ax + wx, ay, ay + wy


def _where(p: tuple[Fraction, Fraction], bx, margin: Fraction) -> str:
    """'in' or 'out' with the margin, 'near' when too close to the box."""
    (x0, x1, y0, y1), (x, y) = bx, p
    if x0 + margin <= x <= x1 - margin and y0 + margin <= y <= y1 - margin:
        return "in"
    if x < x0 - margin or x > x1 + margin or y < y0 - margin or y > y1 + margin:
        return "out"
    return "near"


def _lin2d(rng: random.Random, want_true: bool) -> Item:
    margin = Fraction(1, 4)
    while True:
        bx = _box2(rng)
        a, b, c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(4))
        # well-conditioned: the lines cross at more than about 37 degrees
        if (a * d - b * c) ** 2 < Fraction(9, 25) * (a * a + b * b) * (c * c + d * d):
            continue
        sol = (dyadic(rng, bx[0] - 1, bx[1] + 1, 8), dyadic(rng, bx[2] - 1, bx[3] + 1, 8))
        if _where(sol, bx, margin) == ("in" if want_true else "out"):
            break
    e1 = linear([(a, "x"), (b, "y")], -(a * sol[0] + b * sol[1]))
    e2 = linear([(c, "x"), (d, "y")], -(c * sol[0] + d * sol[1]))
    text = (f"exists x in {interval(bx[0], bx[1])}, y in {interval(bx[2], bx[3])} . "
            f"{e1} = 0 and {e2} = 0")

    def check() -> str:
        det = Fraction(a * d - b * c)
        r1, r2 = a * sol[0] + b * sol[1], c * sol[0] + d * sol[1]
        x, y = (r1 * d - b * r2) / det, (a * r2 - c * r1) / det  # Cramer
        return {"in": "TRUE", "out": "FALSE"}.get(_where((x, y), bx, margin), "BAD")
    return Item("", "lin2d", text, ROBUST_ND_BUDGET, "TRUE" if want_true else "FALSE",
                check=check)


def _circle_point(cx: Fraction, cy: Fraction, r: Fraction, t: Fraction):
    # rational parametrization of the circle
    return (cx + r * (1 - t * t) / (1 + t * t), cy + r * 2 * t / (1 + t * t))


def _circle_line(rng: random.Random, want_true: bool) -> Item:
    margin = Fraction(1, 4)
    while True:
        bx = _box2(rng)
        r = Fraction(rng.randint(2, 6), 4)
        cx = dyadic(rng, bx[0] - r, bx[1] + r, 8)
        cy = dyadic(rng, bx[2] - r, bx[3] + r, 8)
        t1, t2 = (Fraction(rng.randint(-16, 16), 8) for _ in range(2))
        p1, p2 = _circle_point(cx, cy, r, t1), _circle_point(cx, cy, r, t2)
        # a chord of length >= r sqrt(2) crosses the circle at >= 45 degrees
        if (p1[0] - p2[0]) ** 2 + (p1[1] - p2[1]) ** 2 < 2 * r * r:
            continue
        w = (_where(p1, bx, margin), _where(p2, bx, margin))
        if "near" in w or ("in" in w) != want_true:
            continue
        break
    u, v = p2[1] - p1[1], -(p2[0] - p1[0])  # normal of the chord
    scale = math.lcm(u.denominator, v.denominator)
    u, v = u * scale, v * scale
    circle = f"({shift('x', cx)})^2 + ({shift('y', cy)})^2 - {fmt(r * r)} = 0"
    line = f"{linear([(u, 'x'), (v, 'y')], -(u * p1[0] + v * p1[1]))} = 0"
    text = (f"exists x in {interval(bx[0], bx[1])}, y in {interval(bx[2], bx[3])} . "
            f"{circle} and {line}")

    def check() -> str:
        # a line meets a circle in at most two points; both are p1 and p2
        for p in (p1, p2):
            if (p[0] - cx) ** 2 + (p[1] - cy) ** 2 != r * r:
                return "BAD"
            if u * (p[0] - p1[0]) + v * (p[1] - p1[1]) != 0:
                return "BAD"
        w = (_where(p1, bx, margin), _where(p2, bx, margin))
        if p1 == p2 or "near" in w:
            return "BAD"
        return "TRUE" if "in" in w else "FALSE"
    return Item("", "circle_line", text, ROBUST_ND_BUDGET, "TRUE" if want_true else "FALSE",
                check=check)


def _forall_exists(rng: random.Random, want_true: bool, cubic: bool) -> Item:
    # forall x in [a, b] . exists y in [c, d] . g(y) - k x - m = 0 with g
    # increasing (y or y^3 + y), so the block holds exactly when
    # g(c) <= k x + m <= g(d), and k x + m is linear in x
    margin = Fraction(1, 4)
    g = (lambda y: y ** 3 + y) if cubic else (lambda y: y)
    while True:
        a = dyadic(rng, Fraction(-1), Fraction(1), 4)
        b = a + 1
        c = dyadic(rng, Fraction(-2), Fraction(0), 4)
        d = c + dyadic(rng, Fraction(3, 2), Fraction(3), 4)
        k = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2)))
        m = dyadic(rng, g(c) - 1, g(d) + 1, 8)
        label = _forall_label(g, a, b, c, d, k, m, margin)
        if label == ("TRUE" if want_true else "FALSE"):
            break
    ys = [(1, "y^3"), (1, "y")] if cubic else [(1, "y")]
    text = (f"forall x in {interval(a, b)} . exists y in {interval(c, d)} . "
            f"{linear(ys + [(-k, 'x')], -m)} = 0")
    return Item("", "forall_exists_cubic" if cubic else "forall_exists_line", text,
                ROBUST_1D_BUDGET, label,
                check=lambda: _forall_label(g, a, b, c, d, k, m, margin))


def _forall_label(g, a, b, c, d, k, m, margin) -> str:
    vals = (k * a + m, k * b + m)
    if all(g(c) + margin <= v <= g(d) - margin for v in vals):
        return "TRUE"
    if any(v < g(c) - margin or v > g(d) + margin for v in vals):
        return "FALSE"
    return "BAD"


def _andor(rng: random.Random, op: str, labels: tuple[bool, bool]) -> Item:
    t1, c1 = _poly_block(rng, labels[0], "x")
    t2, c2 = _poly_block(rng, labels[1], "y")
    text = f"({t1}) {op} ({t2})"
    combine = (lambda u, v: u and v) if op == "and" else (lambda u, v: u or v)

    def check() -> str:
        got = (c1(), c2())
        if "BAD" in got:
            return "BAD"
        return "TRUE" if combine(got[0] == "TRUE", got[1] == "TRUE") else "FALSE"
    label = "TRUE" if combine(*labels) else "FALSE"
    return Item("", f"{op}_blocks", text, ROBUST_1D_BUDGET, label, check=check)


def _robust_catalog(rng: random.Random) -> list[Item]:
    items = []
    for want in (True,) * 80 + (False,) * 40:
        items.append(_poly(rng, want))
    for want in (True,) * 24 + (False,) * 16:
        items.append(_exp(rng, want))
        items.append(_sqrt(rng, want))
        items.append(_sin(rng, want, big=False))
    for want in (True, False) * 4:
        items.append(_sin(rng, want, big=True))
    for want in (True,) * 24 + (False,) * 16:
        items.append(_lin2d(rng, want))
        items.append(_circle_line(rng, want))
    for want in (True,) * 20 + (False,) * 12:
        items.append(_forall_exists(rng, want, cubic=False))
        items.append(_forall_exists(rng, want, cubic=True))
    for op in ("and", "or"):
        for labels in ((True, True), (True, False), (False, True), (False, False)) * 8:
            items.append(_andor(rng, op, labels))
    return items


def robust_mix(root: Path, seed: int) -> list[Item]:
    return _seeded("robust_mix", seed, _robust_catalog,
                   corpus_items(root, None, None, decided_only=True))


# ---------------------------------------------------------------------------
# planar_refine: 2-D and 3-D blocks that need several halvings


def _chord(j: int, vertical: bool) -> Item:
    # the unit circle against the line at 1 - 2^-j from its centre: two
    # transversal zeros, closer to each other for larger j
    h = 1 - Fraction(1, 2 ** j)
    half, lo_h, hi_h = {3: (Fraction(3, 4), Fraction(1, 4), Fraction(5, 4)),
                        4: (Fraction(1, 2), Fraction(3, 4), Fraction(5, 4))}[j]
    free, fixed = (-half, half), (lo_h, hi_h)
    bx = fixed + free if vertical else free + fixed
    line = shift("x" if vertical else "y", h)
    text = (f"exists x in {interval(bx[0], bx[1])}, y in {interval(bx[2], bx[3])} . "
            f"x^2 + y^2 - 1 = 0 and {line} = 0")

    def check() -> str:
        m = Fraction(1, 16)
        with mpmath.workdps(60):
            s = mpmath.sqrt(1 - _mp(h) ** 2)
            ok = fixed[0] + m < h < fixed[1] - m and all(
                _mp(free[0] + m) < t < _mp(free[1] - m) for t in (s, -s))
        # both zeros of a secant line lie inside the box
        return "TRUE" if ok else "BAD"
    return Item("", f"chord_j{j}", text, PLANAR_BUDGET, "TRUE", check=check)


def _tangency_2d(kind: str) -> Item:
    if kind == "point":  # x^2 + y^2 = 0 meets x - y = 0 only in a double zero
        eqs, zero = "x^2 + y^2 = 0 and x - y = 0", (0, 0)
    else:  # the line touches the circle of radius 1/2
        eqs, zero = "x^2 + y^2 - 1/4 = 0 and y - 1/2 = 0", (0, Fraction(1, 2))
    text = f"exists x in [-1,1], y in [-1,1] . {eqs}"

    def check() -> str:
        # the only common zero is a tangency strictly inside the box
        return "UNKNOWN" if _where(zero, (-1, 1, -1, 1), Fraction(1, 4)) == "in" else "BAD"
    return Item("", f"tangency_{kind}", text, TANGENCY_2D_BUDGET, "UNKNOWN", check=check)


def _sphere(h: Fraction) -> Item:
    # the unit sphere cut by x = y and z = h: one transversal zero in the
    # box, at (s, s, h) with s = sqrt((1 - h^2)/2); the other has x = -s
    bx = {Fraction(3, 4): ((0, 1), (0, 1), (0, 1)),
          Fraction(7, 8): ((0, Fraction(1, 2)), (0, Fraction(1, 2)), (Fraction(1, 2), 1))}[h]
    text = (f"exists x in {interval(*bx[0])}, y in {interval(*bx[1])}, z in {interval(*bx[2])} . "
            f"x^2 + y^2 + z^2 - 1 = 0 and x - y = 0 and {shift('z', h)} = 0")

    def check() -> str:
        m = Fraction(1, 16)
        with mpmath.workdps(60):
            s = mpmath.sqrt((1 - _mp(h) ** 2) / 2)
            ok = all(_mp(lo + m) < z < _mp(hi - m)
                     for z, (lo, hi) in zip((s, s, _mp(h)), bx))
        return "TRUE" if ok else "BAD"
    return Item("", "sphere_3d", text, PLANAR_BUDGET, "TRUE", check=check)


def _planar_catalog(rng: random.Random) -> list[Item]:
    items = [_chord(j, vertical) for j in (3, 4) for vertical in (False, True)]
    items += [_tangency_2d(kind) for kind in ("point", "point", "circle", "circle")]
    items += [_sphere(h) for h in (Fraction(3, 4), Fraction(3, 4), Fraction(7, 8), Fraction(7, 8))]
    return items


def planar_refine(root: Path, seed: int) -> list[Item]:
    return _seeded("planar_refine", seed, _planar_catalog, [])


# ---------------------------------------------------------------------------


def _seeded(name: str, seed: int, catalog: Callable[[random.Random], list[Item]],
            corpus: list[Item]) -> list[Item]:
    """The corpus items and the workload's fixed catalog; the seed draws
    each distance perturbation and translates every catalog sentence."""
    move = random.Random(f"{name}:{seed}")
    items = corpus + catalog(random.Random(f"{name}:catalog"))
    for i, item in enumerate(items):
        item.id = item.id or f"{item.family}/{i}"
        with_distance(item, move)
        if item.family != "corpus":
            translate(item, move)
    return items


WORKLOADS = {
    "nonrobust_1d": nonrobust_1d,
    "robust_mix": robust_mix,
    "planar_refine": planar_refine,
}


def self_check(items: list[Item]) -> list[str]:
    """Ids of items whose re-derived label differs from the stored one."""
    return [it.id for it in items if it.check is None or it.check() != it.label]
