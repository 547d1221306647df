"""Structural distance between sentences: max over aligned atom positions
of sup |f_i - g_i| over the quantification box, enclosed by bisecting
`Ival` cells (see `geometry`).  Equal aligned terms add 0 with no
difference built; the others are expanded by `terms.expand_normal`,
whose coefficients stay integer pairs until it builds its `Const`s, and
bounded by `sup_abs_enclosure`, whose bounds stay integer pairs until it
builds its `RatInterval`.  A supremum evaluates at most `MAX_CELLS`
cells, so every query ends: with a bracket that is sound but may be
wider than the tolerance, or with DomainError when no depth bounds the
difference."""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from collections.abc import Sequence

from .evaluation import Ival, compile_term
from .intervals import DomainError, RatInterval, rat
from .formulas import Formula, aligned_terms
from .geometry import bisect_box
from . import terms as T


class _Infinite:
    """Distance of structurally different sentences."""
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = _Infinite()
MAX_CELLS = 1 << 14  # cells that one `sup_abs_enclosure` call may evaluate
_ZERO = RatInterval(0, 0)


def sup_abs_enclosure(
    t: T.Term, names: Sequence[str], box: Sequence[Ival], tol: Fraction
) -> RatInterval:
    """Enclosure of sup |t| over the box, of width <= tol unless the work
    cap stops it first.

    Iterative deepening over uniform grids of `Ival` cells (the active
    cells of a depth share their denominators, see `geometry`).  The
    bracket is the best lower and the least upper bound so far, so a
    tighter tolerance yields a sub-interval of a looser one's result.  An
    upper bound is the largest |t| over a depth's active cells; a lower
    bound is the largest mignitude of |t| over those cells and their
    corners, as any point value bounds the supremum from below.  So an
    expanded affine t closes at depth 0.  Axes that t does not mention
    are dropped; a variable of t not in `names` raises ValueError.  A
    cell where t leaves its domain (DomainError) has no upper bound, so
    its depth gives none and it is kept; such a corner gives no lower
    bound.  A call evaluates at most `MAX_CELLS` cells: when the next
    depth would pass that, the bracket of the depths done is returned,
    sound but possibly wider than tol, and DomainError is raised when no
    depth gave an upper bound.  Bounds are integer pairs (num, den),
    compared by cross-multiplication, until the result is built."""
    tn, td = rat(tol).as_integer_ratio()
    if tn <= 0:
        raise ValueError("tolerance must be positive")
    used = T.free_vars(t)
    # an axis the term does not mention only multiplies the cells
    kept = [i for i, v in enumerate(names) if v in used]
    if not used.issubset(names):
        unbound = sorted(used.difference(names))
        raise ValueError(f"free variables bound by no quantifier: {unbound}")
    evaluate = compile_term(t, [names[i] for i in kept])
    active = [tuple(box[i] for i in kept)]
    best_lo = 0, 1  # (num, den) of the best lower bound on sup |t| so far
    best_hi = 1, 0  # and of the least upper bound, 1/0 until a depth gives one
    depth, cells = 0, 1  # cells: those of the depths done and of the next
    while cells <= MAX_CELLS:
        p = depth + 10
        scored = []  # (cell, num, den) of each cell's upper bound on |t|; den 0: none
        hi = 0, 1  # the largest upper bound, (1, 0) when some cell has none
        for cell in active:
            try:
                a, b, d = _abs(evaluate(cell, p))
            except DomainError:
                a, b, d = 0, 1, 0
            scored.append((cell, b, d))
            if a * best_lo[1] > best_lo[0] * d:
                best_lo = a, d
            if b * hi[1] > hi[0] * d:
                hi = b, d
        first = active[0]  # the active cells share their denominators
        corners = {c for cell in active for c in product(*(iv[:2] for iv in cell))}
        for corner in corners:  # degenerate cells: point values of |t|
            try:
                a, _, d = _abs(evaluate([(c, c, iv[2]) for c, iv in zip(corner, first)], p))
            except DomainError:
                continue
            if a * best_lo[1] > best_lo[0] * d:
                best_lo = a, d
        if hi[1]:  # a depth with an upper bound ends when the bracket is narrow
            if hi[0] * best_hi[1] < best_hi[0] * hi[1]:
                best_hi = hi
            (ln, ld), (hn, hd) = best_lo, best_hi
            if (hn * ld - ln * hd) * td <= tn * hd * ld:
                break
        # keep only cells that can still carry the supremum, then bisect
        active = []
        for cell, b, d in scored:
            if b * best_lo[1] >= best_lo[0] * d:
                active.extend(bisect_box(cell))
        cells += len(active)
        depth += 1
    (ln, ld), (hn, hd) = best_lo, best_hi
    if not hd:
        raise DomainError(f"no upper bound on |t| within {MAX_CELLS} cells")
    return RatInterval(Fraction(ln, ld), Fraction(hn, hd))


def _abs(x: Ival) -> Ival:
    """|x| of an integer interval (lo, hi, den)."""
    lo, hi, d = x
    if lo >= 0:
        return x
    if hi <= 0:
        return -hi, -lo, d
    return 0, max(-lo, hi), d


def distance_enclosure(
    f: Formula, g: Formula, tol: Fraction
) -> RatInterval | _Infinite:
    """Interval of width <= tol around d(f, g); INFINITE when the two
    sentences do not share a structure.  An aligned pair of equal terms
    adds 0; the others are bounded by `sup_abs_enclosure`, so when its
    work cap stops one, the interval is sound but may be wider than tol,
    and a difference that no depth bounds raises DomainError."""
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    pairs = aligned_terms(f, g)
    if pairs is None:
        return INFINITE
    lo = hi = _ZERO  # the enclosures with the largest lower and upper bound so far
    for tf, tg, names, box in pairs:
        if tf == tg:
            continue
        diff = T.expand_normal(T.Sub(tf, tg))
        if diff.__class__ is T.Const:
            v = abs(diff.value)
            enc = RatInterval(v, v)
        else:
            enc = sup_abs_enclosure(diff, names, box, tol)
        if enc.lo >= lo.lo:
            lo = enc
        if enc.hi >= hi.hi:
            hi = enc
    return lo if lo is hi else RatInterval(lo.lo, hi.hi)
