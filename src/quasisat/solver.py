"""The three-valued satisfiability check and the epsilon-halving driver.

`checksat` returns a nonempty subset of {True, False}: a singleton is a
proven verdict for every parameter value in P, while {True, False} means
the current refinement cannot decide.  The driver halves the refinement
parameter until a singleton appears or the iteration budget runs out;
non-robust sentences stay undecided forever, which is the honest answer.

An existential block is checked on the grid `grid_cover(bounds, r)`
without visiting all of it.  Index blocks of cells are refuted top-down:
a block whose interval evaluation excludes a solution is dropped whole
(its bound enters the FALSE separation), and any other block is halved
along its longest index range until single plausible cells remain.  The
zero-face merge then walks outward from the plausible cells only, so the
work of an iteration follows the cells still in play, not the grid size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .evaluation import eval_env, positive_lower_bound
from .formulas import (And, Atom, Eq, Exists, ForAll, Formula, Or, block_parts,
                       free_vars, validate_class_b)
from .geometry import (Block, BoxComplex, CellIndex, Face, Grid, grid_cover,
                       halve_block)
from .intervals import EMPTY_BOX, Precision, RatBox, box, ival, rat
from .degree import degree
from . import terms as T

TriValue = frozenset
TRI_T: TriValue = frozenset((True,))
TRI_F: TriValue = frozenset((False,))
TRI_TF: TriValue = frozenset((True, False))


def tri_and(u: TriValue, v: TriValue) -> TriValue:
    return frozenset(a and b for a in u for b in v)


def tri_or(u: TriValue, v: TriValue) -> TriValue:
    return frozenset(a or b for a in u for b in v)


def prec_for(r: Fraction) -> Precision:
    """Precision with transcendental slack <= r/8."""
    need = Fraction(8) / r
    p = 1
    while (1 << p) < need:
        p += 1
    return Precision(p)


@dataclass
class IterationRecord:
    iteration: int
    eps: Fraction
    result: TriValue
    complexes: int = 0
    cells_evaluated: int = 0  # grid blocks and cells given the refutation test
    faces_evaluated: int = 0  # cell faces given the zero-face test
    degrees: list[Optional[int]] = field(default_factory=list)


@dataclass
class Verdict:
    outcome: str  # "TRUE" | "FALSE" | "UNKNOWN"
    iterations: int
    final_eps: Fraction
    certificate: Optional[Fraction]
    trace: list[IterationRecord]


class _Context:
    def __init__(self, degree_budget: int = 1000):
        self.degree_budget = degree_budget
        self.record = IterationRecord(0, Fraction(0), TRI_TF)  # replaced per iteration


def _min_cert(a: Optional[Fraction], b: Optional[Fraction]) -> Optional[Fraction]:
    if a is None or b is None:
        return None
    return min(a, b)


def _checksat(
    s: Formula, pnames: tuple[str, ...], p_box: RatBox, r: Fraction, ctx: _Context
) -> tuple[TriValue, Optional[Fraction]]:
    if isinstance(s, (Exists, Atom)):
        return _soei(s, pnames, p_box, r, ctx)
    if isinstance(s, ForAll):
        return _univ(s, pnames, p_box, r, ctx)
    if isinstance(s, And):
        return _combine(s, pnames, p_box, r, ctx, tri_and)
    assert isinstance(s, Or)
    return _combine(s, pnames, p_box, r, ctx, tri_or)


def checksat(s: Formula, p_box: RatBox, r, pnames: Sequence[str] = ()) -> TriValue:
    """Three-valued check of s over the parameter box (free variables in
    quantification order); a singleton answer holds for every parameter
    value in the box."""
    r = rat(r)
    if r <= 0:
        raise ValueError("refinement parameter must be positive")
    report = validate_class_b(s)
    if not report.in_class:
        raise ValueError("; ".join(report.violations))
    return _checksat(s, tuple(pnames), p_box, r, _Context())[0]


# ---------------------------------------------------------------------------
# existential blocks


def _soei(
    s: Formula, pnames: tuple[str, ...], p_box: RatBox, r: Fraction, ctx: _Context
) -> tuple[TriValue, Optional[Fraction]]:
    if isinstance(s, Atom):  # a ground atom is a block with no variables
        s = Exists((), EMPTY_BOX, s)
    eqs, ineqs = block_parts(s)
    names = pnames + s.vars
    m, n = len(s.vars), len(eqs)
    prec = prec_for(r)
    grid = grid_cover(s.bounds, r)

    plausible, separation = _plausible_cells(eqs, ineqs, names, p_box, grid,
                                             prec, ctx)
    if not plausible:
        return TRI_F, separation
    if n == 0:
        for idx in plausible:
            full = p_box.product(grid.cell(idx))
            lb = positive_lower_bound(ineqs, full, names, prec)
            if lb is not None:  # every inequality strictly positive here
                return TRI_T, lb
    if n == 0 or n != m:  # n = 0 undecided, or underdetermined n > m
        return TRI_TF, None
    return _soei_degree_phase(s, eqs, ineqs, pnames, p_box, prec, grid,
                              plausible, ctx)


def _plausible_cells(
    eqs, ineqs, names, p_box: RatBox, grid: Grid, prec: Precision,
    ctx: _Context,
) -> tuple[list[CellIndex], Optional[Fraction]]:
    """Refute the grid top-down: a refuted index block drops all of its
    cells, a plausible one is halved until single cells remain.  Returns
    the plausible cells in index order and the least separation bound of
    the refuted blocks."""
    separation: Optional[Fraction] = None
    plausible: list[CellIndex] = []
    blocks: list[Block] = [((0,) * grid.dim, grid.counts)]
    while blocks:
        lo, hi = blocks.pop()
        full = p_box.product(grid.block(lo, hi))
        bound = _refutation_bound(eqs, ineqs, dict(zip(names, full.intervals)),
                                  prec)
        ctx.record.cells_evaluated += 1
        if bound is not None:
            separation = bound if separation is None else min(separation, bound)
            continue
        halves = halve_block(lo, hi)
        if halves is None:
            plausible.append(lo)
        else:
            blocks.extend(halves)
    return sorted(plausible), separation


def _refutation_bound(
    eqs: Sequence[T.Term], ineqs: Sequence[T.Term],
    env: dict, prec: Precision,
) -> Optional[Fraction]:
    """A positive separation bound when the box admits no solution;
    None when the box stays plausible."""
    for f in eqs:
        enc = eval_env(f, env, prec)
        if enc.lo > 0:
            return enc.lo
        if enc.hi < 0:
            return -enc.hi
    for g in ineqs:
        enc = eval_env(g, env, prec)
        if enc.hi < 0:
            return -enc.hi
    return None


def _candidate_complexes(
    eqs, names, p_box: RatBox, grid: Grid, prec: Precision,
    plausible: list[CellIndex], ctx: _Context,
) -> list[list[CellIndex]]:
    """The cells of each zero-face component that holds a plausible cell
    and no zero face on the grid boundary.

    The components are grown outward from the plausible cells; one made
    of refuted cells only has no zero, hence degree 0, and is skipped."""
    members = set(plausible)
    walk = list(plausible)
    tested: set[tuple] = set()
    joins: list[Face] = []
    doomed: set[CellIndex] = set()
    while walk:
        idx = walk.pop()
        for face in grid.cell_faces(idx):
            key = (face.axis, face.lower_cell, face.upper_cell)
            if key in tested:
                continue
            tested.add(key)
            ctx.record.faces_evaluated += 1
            full = p_box.product(face.box)
            if not _zero_face(eqs, dict(zip(names, full.intervals)), prec):
                continue
            if face.on_boundary:
                doomed.add(idx)
                continue
            joins.append(face)
            other = face.upper_cell if face.lower_cell == idx else face.lower_cell
            if other not in members:
                members.add(other)
                walk.append(other)

    parent: dict[CellIndex, CellIndex] = {}

    def find(i):
        while parent.get(i, i) != i:
            parent[i] = parent.get(parent[i], parent[i])  # path halving
            i = parent[i]
        return i

    # union in `Grid.faces()` order (axis, plane, cell), so that each
    # component's root, and with it the order of the complexes, is fixed
    for face in sorted(joins, key=lambda f: (f.axis, f.upper_cell[f.axis],
                                             f.upper_cell)):
        parent[find(face.lower_cell)] = find(face.upper_cell)
    doomed_roots = {find(i) for i in doomed}
    candidates: dict[CellIndex, list[CellIndex]] = {}
    for idx in sorted(members):
        if find(idx) not in doomed_roots:
            candidates.setdefault(find(idx), []).append(idx)
    return [candidates[root] for root in sorted(candidates)]


def _soei_degree_phase(
    s: Exists, eqs, ineqs, pnames, p_box: RatBox, prec: Precision,
    grid: Grid, plausible: list[CellIndex], ctx: _Context,
) -> tuple[TriValue, Optional[Fraction]]:
    """Zero-face merging plus the degree test on candidate complexes."""
    names = pnames + s.vars
    p0 = dict(zip(pnames, p_box.center))
    fs = [T.substitute(f, p0) for f in eqs] if pnames else list(eqs)
    for cells in _candidate_complexes(eqs, names, p_box, grid, prec,
                                      plausible, ctx):
        complex = BoxComplex(tuple(grid.cell(i) for i in cells))
        result = degree(fs, s.vars, complex, prec, ctx.degree_budget)
        ctx.record.complexes += 1
        ctx.record.degrees.append(None if result is None else result.value)
        if result is None or result.value == 0:
            continue
        cert = result.boundary_min_lb
        for idx in cells if ineqs else ():
            full = p_box.product(grid.cell(idx))
            lb = positive_lower_bound(ineqs, full, names, prec)
            if lb is None:  # an inequality may fail inside this complex
                break
            cert = min(cert, lb)
        else:
            return TRI_T, cert
    return TRI_TF, None


def _zero_face(eqs: Sequence[T.Term], env: dict, prec: Precision) -> bool:
    return all(eval_env(f, env, prec).contains_zero for f in eqs)


# ---------------------------------------------------------------------------
# universal quantification and connectives


def _univ(
    s: ForAll, pnames: tuple[str, ...], p_box: RatBox, r: Fraction, ctx: _Context
) -> tuple[TriValue, Optional[Fraction]]:
    count = max(1, math.ceil(s.bound.width / r))
    acc = TRI_T
    cert: Optional[Fraction] = None
    first = True
    for i in range(count):
        lo = s.bound.lo + s.bound.width * i / count
        hi = s.bound.lo + s.bound.width * (i + 1) / count
        sub, sub_cert = _checksat(s.body, pnames + (s.var,),
                                  p_box.product(box(ival(lo, hi))), r, ctx)
        acc = tri_and(acc, sub)
        if acc == TRI_F:
            # one definitely-false slice falsifies the universal
            return TRI_F, sub_cert if sub == TRI_F else None
        cert = sub_cert if first else _min_cert(cert, sub_cert)
        first = False
    return acc, cert if acc == TRI_T else None


def _combine(
    s, pnames: tuple[str, ...], p_box: RatBox, r: Fraction, ctx: _Context, op
) -> tuple[TriValue, Optional[Fraction]]:
    results = []
    certs = []
    for side in (s.left, s.right):
        fv = free_vars(side)
        keep = [i for i, nm in enumerate(pnames) if nm in fv]
        sub_names = tuple(pnames[i] for i in keep)
        sub_box = RatBox(tuple(p_box[i] for i in keep))
        res, cert = _checksat(side, sub_names, sub_box, r, ctx)
        results.append(res)
        certs.append(cert)
    combined = op(results[0], results[1])
    if len(combined) != 1:
        return combined, None
    # the verdict's certificate combines the sides that forced it
    decisive = [c for res, c in zip(results, certs) if res == combined]
    if not decisive or any(c is None for c in decisive):
        return combined, None
    return combined, min(decisive)


# ---------------------------------------------------------------------------
# driver


def quasi_decide(
    s: Formula,
    budget: int = 20,
    eps: Fraction = Fraction(1),
    degree_budget: int = 1000,
) -> Verdict:
    """Halve the refinement parameter until checksat returns a singleton;
    report UNKNOWN when the iteration budget runs out."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    eps = rat(eps)
    if eps <= 0:
        raise ValueError("initial epsilon must be positive")
    if free_vars(s):
        raise ValueError(
            f"not a sentence; free variables: {sorted(free_vars(s))}")
    report = validate_class_b(s)
    if not report.in_class:
        raise ValueError("; ".join(report.violations))

    ctx = _Context(degree_budget=degree_budget)
    trace: list[IterationRecord] = []
    for i in range(1, budget + 1):
        record = IterationRecord(i, eps, TRI_TF)
        ctx.record = record
        result, cert = _checksat(s, (), EMPTY_BOX, eps, ctx)
        record.result = result
        trace.append(record)
        if len(result) == 1:
            outcome = "TRUE" if True in result else "FALSE"
            return Verdict(outcome, i, eps, cert, trace)
        eps = eps / 2
    return Verdict("UNKNOWN", budget, eps * 2, None, trace)
