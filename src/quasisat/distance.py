"""Structural distance between sentences: max over aligned atom positions
of sup |f_i - g_i| over the quantification box."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .evaluation import eval_env
from .intervals import Precision, RatBox, RatInterval, ival, rat
from .formulas import Formula, aligned_terms, same_structure
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


def sup_abs_enclosure(
    t: T.Term, names: Sequence[str], box: RatBox, tol: Fraction
) -> RatInterval:
    """Enclosure of sup |t| over the box, of width <= tol.

    Iterative deepening over uniform grids: the bracket sequence depends
    only on the term and the box, and successive brackets are
    intersected, so a tighter tolerance always yields a sub-interval of
    a looser one's result.
    """
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    names = tuple(names)
    bracket: RatInterval | None = None
    active = [box]
    best_lo = Fraction(0) if box.dim else None  # |t| >= 0 somewhere
    depth = 0
    while True:
        prec = Precision(depth + 10)
        scored = []
        for cell in active:
            env = dict(zip(names, cell.intervals))
            enc = eval_env(t, env, prec).abs()
            scored.append((cell, enc))
            if best_lo is None or enc.lo > best_lo:
                best_lo = enc.lo
        hi = max(enc.hi for _, enc in scored)
        step = ival(min(best_lo, hi), hi)
        bracket = step if bracket is None else _intersect(bracket, step)
        if bracket.width <= tol or box.dim == 0:
            return bracket
        # keep only cells that can still carry the supremum, then bisect
        active = []
        for cell, enc in scored:
            if enc.hi >= best_lo:
                active.extend(bisect_box(cell))
        depth += 1


def _intersect(a: RatInterval, b: RatInterval) -> RatInterval:
    return ival(max(a.lo, b.lo), min(a.hi, b.hi))


def distance_enclosure(
    f: Formula, g: Formula, tol: Fraction
) -> Union[RatInterval, _Infinite]:
    """Interval of width <= tol around d(f, g); INFINITE when the two
    sentences do not share a structure."""
    tol = rat(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not same_structure(f, g):
        return INFINITE
    pairs = list(aligned_terms(f, g))
    lo = hi = Fraction(0)
    for tf, tg, names, box in pairs:
        diff = T.expand_normal(T.Sub(tf, tg))
        if isinstance(diff, T.Const):
            lo = max(lo, abs(diff.value))
            hi = max(hi, abs(diff.value))
            continue
        # drop variables the difference no longer mentions
        used = T.free_vars(diff)
        kept = [i for i, v in enumerate(names) if v in used]
        sub_names = tuple(names[i] for i in kept)
        sub_box = RatBox(tuple(box[i] for i in kept))
        enc = sup_abs_enclosure(diff, sub_names, sub_box, tol)
        lo = max(lo, enc.lo)
        hi = max(hi, enc.hi)
    return ival(lo, hi)
