"""Topological degree deg(f, A°, 0) of an interval-evaluable map over a
box complex, by recursive boundary reduction.

The boundary of the complex is a cycle of oriented (m-1)-cells.  Every
cell is certified to carry a nonzero component (s * f_i > 0 via interval
evaluation, subdividing congruently until this succeeds); the cells
certified positive for the most frequently certified component i* form a
region whose own boundary carries the same degree for the map with
component i* removed, up to the sign (-1)**(i*-1).  Dimension 0 counts
signs directly.  Orientation conventions follow `geometry.oriented_boundary`
and are cross-checked against independent oracles in the test suite.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .evaluation import Evaluator, box_env, compile_term
from .geometry import BoxComplex, _add_cell_boundary, bisect_box, oriented_boundary
from .intervals import Precision, RatBox
from . import terms as T

_MAX_PREC = 4096


@dataclass(frozen=True)
class DegreeResult:
    value: int
    boundary_min_lb: Fraction  # verified lower bound on min over the boundary of |f|
    subdivisions: int

    def __post_init__(self) -> None:
        if self.boundary_min_lb <= 0:
            raise ValueError("degree result requires a positive boundary bound")


class _Budget:
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
    complex: BoxComplex,
    prec: Precision,
    budget: int = 1000,
) -> Optional[DegreeResult]:
    """Degree of fs over the complex, or None when the boundary cannot be
    certified nonzero within the subdivision budget."""
    if len(fs) != complex.dim:
        raise ValueError("map and complex dimension differ")
    state = _Budget(budget)
    bounds: list[Fraction] = []
    cycle = oriented_boundary(complex.cells)
    evals = [compile_term(f, names) for f in fs]
    value = _deg_cycle(evals, cycle, prec.p, state, bounds)
    if value is None:
        return None
    return DegreeResult(value, min(bounds), state.used)

