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
the top level: a cell found there is not evaluated again.  The solver
calls `degree` for every candidate complex in every iteration, often on
one or two cells, so the input checks are one pass over the cells.
"""
from __future__ import annotations

from fractions import Fraction
from collections.abc import Mapping, Sequence

from .evaluation import Cert, Evaluator, Ival, certify
from .geometry import Cell, _add_cell_boundary, bisect_box, oriented_boundary
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


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, n: int) -> bool:
        self.used += n
        return self.used <= self.limit


def _sign_at_point(
    f: Evaluator, env: tuple[Ival, ...], p: int, budget: _Budget
) -> Cert | None:
    """Sign of f at a degenerate cell, escalating precision (also past a DomainError)."""
    while p <= _MAX_PREC:
        cert = certify((f,), env, p)
        if cert is not None or not budget.spend(1):
            return cert
        p *= 2
    return None


def _deg_cycle(
    fs: list[Evaluator],
    cycle: dict[Cell, int],
    p: int,
    env: tuple[Ival, ...],
    budget: _Budget,
    top_bounds: list[Cert] | None,
    known: Mapping[Cell, Cert] = {},
) -> int | None:
    """Degree of fs over an oriented cycle of (len(fs)-1)-cells, evaluated
    on `env` + the cell; the cells in `known` come certified."""
    if not cycle:  # e.g. a region boundary that cancelled out entirely
        return 0
    if len(fs) == 1:
        total = 0
        for cell, coef in cycle.items():
            cert = known.get(cell) or _sign_at_point(fs[0], env + cell, p, budget)
            if cert is None:
                return None
            total += coef * cert[1]
            if top_bounds is not None:
                top_bounds.append(cert)
        if total % 2:  # an odd sum means the cycle was not closed
            return None
        return total // 2

    cells: list[tuple[Cell, int]] = list(cycle.items())
    certs: list[Cert | None] = [known.get(cell) for cell, _ in cells]
    # how often each component certifies a cell, summed over every level
    # of refinement: a cell certified before it was split still counts,
    # and its halves, which inherit its certificate, count again.  This is
    # the count of the `RatBox` reference in tests/oracles.py, whose certs
    # dict keeps refined-away cells; the same i* keeps `value`,
    # `boundary_min_lb` and `subdivisions` identical to it.
    counts: dict[int, int] = {}
    while True:
        for k, (cell, _) in enumerate(cells):
            cert = certs[k]
            if cert is None:
                cert = certs[k] = certify(fs, env + cell, p)
            if cert is not None:
                counts[cert[0]] = counts.get(cert[0], 0) + 1
        if None not in certs:
            break
        # congruent refinement: split every cell so that shared sub-faces
        # of the region boundary still cancel by key equality
        if not budget.spend(len(cells)):
            return None
        refined: list[tuple[Cell, int]] = []
        inherited: list[Cert | None] = []
        for (cell, coef), cert in zip(cells, certs):
            for child in bisect_box(cell):
                refined.append((child, coef))
                inherited.append(cert)  # a subset keeps the bound
        cells, certs = refined, inherited
        p += 2

    if top_bounds is not None:  # every certificate made lives on in a child
        top_bounds.extend(certs)
    i_star = min(counts, key=lambda i: (-counts[i], i))

    gamma: dict[Cell, int] = {}
    for (cell, coef), (ci, cs, _, _) in zip(cells, certs):
        if ci == i_star and cs == 1:
            _add_cell_boundary(gamma, cell, coef)

    reduced = fs[:i_star] + fs[i_star + 1:]
    sub = _deg_cycle(reduced, gamma, p, env, budget, None)
    if sub is None:
        return None
    return sub if i_star % 2 == 0 else -sub


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
    state = _Budget(budget)
    bounds: list[Cert] = []
    value = _deg_cycle(list(fs), cycle, p, tuple(env), state, bounds, certs)
    if value is None:
        return None
    _, _, num, den = bounds[0]
    for _, _, n, d in bounds:
        if n * den < num * d:
            num, den = n, d
    return DegreeResult(value, Fraction(num, den), state.used)
