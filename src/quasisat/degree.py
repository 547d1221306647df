"""Topological degree deg(f, A°, 0) of an interval-evaluable map over a
box complex, by boundary reduction: a loop of at most m passes, each one
dimension lower.

The boundary of the complex is a cycle of oriented (m-1)-cells.  Every
cell is certified to carry a nonzero component (s * f_i > 0 via interval
evaluation, subdividing congruently until this succeeds); the cells
certified positive for the most frequently certified component i* form a
region whose own boundary, the next pass's cycle, carries the same degree
for the map with component i* removed, up to the sign (-1)**(i*-1).
Dimension 0 counts signs directly, raising the precision at a point that
does not certify.  Orientation conventions follow `geometry.oriented_boundary`
and are cross-checked against independent oracles in the test suite.

Cells are the `Ival` cells of `geometry`: a cycle is a dict keyed by
cells that share one `den` per axis, and each refinement bisects every
cell, doubling every `den`.  The evaluator runs on `env + cell` as it
stands; the least certificate bound is found on integers, and one
`Fraction` is built for it.

The map comes as the solver's compiled tapes, with `env`, the intervals
of the variables before the complex's own, prepended to every cell (the
solver passes the slice centre as degenerate intervals); an `env` of
another length than the tapes' names before the complex's own raises
ValueError from the tapes.  Certificates a
caller already holds for boundary cells (the solver's face walk) seed
the first pass: a cell found there is not evaluated again.  The solver
calls `degree` for every candidate complex in every iteration, often on
one or two cells, so the input checks are one pass over the cells.
"""
from __future__ import annotations

from fractions import Fraction
from collections.abc import Mapping, Sequence

from .evaluation import Cert, Evaluator, Ival, certify
from .geometry import Cell, add_cell_boundary, bisect_box, oriented_boundary
from .record import Frozen, init_field

_MAX_PREC = 4096


class DegreeResult(Frozen):
    __slots__ = _fields = ("value", "boundary_min_lb", "subdivisions")

    def __init__(self, value: int, boundary_min_lb: Fraction, subdivisions: int) -> None:
        # boundary_min_lb: verified lower bound on min over the boundary of |f|
        if boundary_min_lb <= 0:
            raise ValueError("degree result requires a positive boundary bound")
        init_field(self, "value", value)
        init_field(self, "boundary_min_lb", boundary_min_lb)
        init_field(self, "subdivisions", subdivisions)


def _deg_cycle(
    fs: list[Evaluator], cycle: dict[Cell, int], p: int, env: tuple[Ival, ...], budget: int,
    known: Mapping[Cell, Cert] = {},
) -> tuple[int, list[Cert], int] | None:
    """The degree of fs over an oriented cycle of (len(fs)-1)-cells, each
    evaluated on `env` + the cell, as (degree, the certificates of the
    first pass, on the cycle's cells or their refinements, work spent);
    None when the work would exceed `budget`.  The cells in `known` come
    certified.  Each pass certifies the cycle, refining it as needed, and
    makes the boundary of the region where i* is positive the next cycle,
    for the map without i*, one dimension lower; a cycle that cancels
    out entirely has degree 0."""
    sign, used, top = 1, 0, []
    while cycle:
        cells = list(cycle.items())
        certs: list[Cert | None] = [known.get(cell) for cell, _ in cells]
        known = {}
        if len(fs) == 1:
            total = 0
            for k, (cell, coef) in enumerate(cells):
                q = p  # escalate the precision at the point, also past a DomainError
                while certs[k] is None:
                    if q > _MAX_PREC or used > budget:
                        return None
                    certs[k] = certify(fs, env + cell, q)
                    used += certs[k] is None  # a failed try spends one unit
                    q *= 2
                total += coef * certs[k][1]
            if total % 2:  # an odd sum means the cycle was not closed
                return None
            return sign * total // 2, top or certs, used

        # how often each component certifies a cell, summed over every level
        # of refinement: a cell certified before it was split still counts,
        # and its halves, which inherit its certificate, count again.  This is
        # the count of the `RatBox` reference in tests/oracles.py, whose certs
        # dict keeps refined-away cells; the same i* keeps `value`,
        # `boundary_min_lb` and `subdivisions` identical to it.
        counts: dict[int, int] = {}
        while True:
            for k, (cell, _) in enumerate(cells):
                if certs[k] is None:
                    certs[k] = certify(fs, env + cell, p)
                if certs[k] is not None:
                    counts[certs[k][0]] = counts.get(certs[k][0], 0) + 1
            if None not in certs:
                break
            # congruent refinement: split every cell so that shared sub-faces
            # of the region boundary still cancel by key equality
            used += len(cells)
            if used > budget:
                return None
            # each child keeps its cell's coefficient and certificate (a
            # subset keeps the bound)
            refined = [((child, coef), cert) for (cell, coef), cert in zip(cells, certs)
                       for child in bisect_box(cell)]
            cells, certs = [pair for pair, _ in refined], [cert for _, cert in refined]
            p += 2

        top = top or certs  # every certificate made lives on in a child
        i_star = min(counts, key=lambda i: (-counts[i], i))
        cycle = {}
        for (cell, coef), (ci, cs, _, _) in zip(cells, certs):
            if ci == i_star and cs == 1:
                add_cell_boundary(cycle, cell, coef)
        fs = fs[:i_star] + fs[i_star + 1:]
        sign = -sign if i_star % 2 else sign
    return 0, top, used


def degree(
    fs: Sequence[Evaluator],
    cells: Sequence[Cell],
    p: int,
    env: Sequence[Ival] = (),
    budget: int = 1000,
    certs: Mapping[Cell, Cert] = {},
) -> DegreeResult | None:
    """Degree of fs over the complex of `cells` at precision p, with `env`
    before each cell's intervals; None when the boundary cannot be
    certified nonzero within the subdivision budget.  `certs` maps
    boundary cells to certificates that hold for fs.  Cells of another
    dimension than len(fs), or without one shared `den` per axis (their
    shared faces would not cancel), raise ValueError, and so does a
    complex whose boundary is empty (every cell degenerate), which has
    no boundary bound."""
    if p < 1:
        raise ValueError("precision must be >= 1")
    m, first = len(fs), cells[0] if cells else ()
    for cell in cells:
        if len(cell) != m:
            raise ValueError("map and complex dimension differ")
        for (_, _, d), (_, _, e) in zip(cell, first):
            if d != e:
                raise ValueError("the cells do not share one denominator per axis")
    cycle = oriented_boundary(cells)
    if not cycle:
        raise ValueError("the complex has an empty boundary (its cells are degenerate), "
                         "so no bound on the boundary exists")
    got = _deg_cycle(list(fs), cycle, p, tuple(env), budget, certs)
    if got is None:
        return None
    value, bounds, used = got
    _, _, num, den = bounds[0]
    for _, _, n, d in bounds:
        if n * den < num * d:
            num, den = n, d
    return DegreeResult(value, Fraction(num, den), used)
