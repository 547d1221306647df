"""Uniform grids, the halving of grid blocks, and oriented boundaries of
box complexes.

A cell is a tuple of `Ival`s, one `(lo, hi, den)` per axis (an axis
with lo == hi is degenerate), and every cell of a grid or complex has
the same `den` on each axis.  A block of grid cells, a single cell and
a face are all cells of this one form: a face has `(end, end, den)` on
its axis.  Bisecting a cell doubles every `den`, so cells refined
together stay on shared denominators, equal faces have equal keys and
cells compare in the order of their numerators.  `grid_cover` cuts each
axis into the least power of two of cells no wider than ε, so every grid,
block and slab is a node of one bisection tree of the bound, and the grid
of a smaller ε refines the grid of a larger one.  The solver calls
`grid_cover`, `halve_block` and `covering_cells` for every block in
every iteration, so each is one loop over the axes.
"""
from __future__ import annotations

from math import prod
from collections.abc import Iterable, Sequence
from itertools import product

from .intervals import Ival, rat
from .record import Frozen, init_field

Cell = tuple[Ival, ...]  # one (lo, hi, den) per axis


class Grid(Frozen):
    """Uniform grid over `base`: axis i is cut into counts[i] equal parts.

    Its integer form is `whole`, the grid as one cell, and `steps`, the
    width of a cell on each axis over the `den` of `whole` there: cut i
    of axis a is whole[a][0] + steps[a]*i over whole[a][2].  An axis
    (lo, hi, d) cut into c parts is (lo*c, hi*c, d*c) with step hi - lo,
    unreduced, so the cells of a grid of 2^k cells per axis are the nodes
    of depth k of the bound's bisection tree, and its `den` is a multiple
    of the `den` of every coarser such grid.  Cells are made on demand,
    so a grid with millions of cells costs nothing to build.  Grids are
    equal when their `base` and `counts` are.
    """
    __slots__ = ("base", "counts", "whole", "steps")
    _fields = ("base", "counts")

    def __init__(self, base: tuple[Ival, ...], counts: tuple[int, ...]) -> None:
        if len(counts) != len(base):
            raise ValueError("counts and box dimension differ")
        if any(c < 1 for c in counts):
            raise ValueError("each axis needs at least one cell")
        init_field(self, "base", base)
        init_field(self, "counts", counts)
        # lo + (hi - lo)*i/c over the common denominator d*c
        init_field(self, "whole", tuple((lo * c, hi * c, d * c)
                                        for (lo, hi, d), c in zip(base, counts)))
        init_field(self, "steps", tuple(hi - lo for lo, hi, _ in base))

    @property
    def n_cells(self) -> int:
        return prod(self.counts)


def halve_block(block: Cell, steps: Sequence[int]) -> tuple[Cell, Cell] | None:
    """Split a block of grid cells in half along the axis that holds the
    most cells (the first such axis); None when the block is one cell.
    An axis of step 0 is degenerate and holds one cell."""
    axis, n, a = 0, 1, 0  # n cells along `axis`; a counts the axes
    for (lo, hi, _), s in zip(block, steps):
        if s and hi - lo > n * s:  # more than n cells along axis a
            axis, n = a, (hi - lo) // s
        a += 1
    if n == 1:
        return None
    lo, hi, d = block[axis]
    mid = lo + n // 2 * steps[axis]
    return (block[:axis] + ((lo, mid, d),) + block[axis + 1:],
            block[:axis] + ((mid, hi, d),) + block[axis + 1:])


def covering_cells(cells: Sequence[Cell], grid: Grid) -> list[Cell]:
    """The cells of `grid` inside each of `cells`, cell after cell, each
    one's in grid order.  `cells` are disjoint cells or blocks of a
    coarser grid of `grid_cover` over the same base, whose `den` divides
    the `den` of `grid` on every axis: each is a node of the bound's
    bisection tree, and its cells of `grid` are its descendants there, so
    no cell comes twice."""
    out: list[Cell] = []
    for cell in cells:
        axes = []
        for (lo, hi, d), (_, _, e), step in zip(cell, grid.whole, grid.steps):
            k = e // d  # lo/d is lo*k/e
            axes.append([(at, at + step, e) for at in range(lo * k, hi * k, step)]
                        if step else ((lo * k, hi * k, e),))
        out += product(*axes)  # in grid order
    return out


def faces_around(cell: Cell, grid: Grid) -> list[tuple[Cell, Cell | None]]:
    """The 2*dim faces of a grid cell, lower before upper on each axis, as
    (face, neighbour).  A face is the cell with `(end, end, den)` on its
    axis; the neighbour across it is the cell shifted by one step along
    the axis, None when `end` is an end of the grid (a degenerate axis
    gives the same boundary face twice)."""
    out = []
    for axis, ((lo, hi, d), step, (first, last, _)) in enumerate(
            zip(cell, grid.steps, grid.whole)):
        head, tail = cell[:axis], cell[axis + 1:]
        for end, shift in ((lo, -step), (hi, step)):
            out.append((head + ((end, end, d),) + tail, None if end == first or end == last
                        else head + ((lo + shift, hi + shift, d),) + tail))
    return out


def grid_cover(b: tuple[Ival, ...], r) -> Grid:
    """Uniform grid over b with every cell width <= r: each axis is cut
    into the least power of two of cells that is at least ceil(w/r), so
    the grid of r/2 refines the grid of r."""
    r = rat(r)
    num, den = r.numerator, r.denominator
    if num <= 0:
        raise ValueError("grid width must be positive")
    counts = []
    for lo, hi, d in b:
        c = -((lo - hi) * den // (d * num))  # ceil((hi - lo)/d / r) on integers
        counts.append(1 << max(c - 1, 0).bit_length())  # the least power of two >= c
    return Grid(b, tuple(counts))


def oriented_boundary(cells: Iterable[Cell]) -> dict[Cell, int]:
    """Outward-oriented boundary of a union of congruent aligned cells on
    shared denominators, as face -> integer coefficient.

    Each cell contributes its faces with the induced orientation of the
    standard frame: on the t-th non-degenerate axis (1-based), the upper
    face gets (-1)**(t-1) and the lower face (-1)**t.  Faces shared by
    two cells receive opposite signs and cancel exactly.
    """
    out: dict[Cell, int] = {}
    for cell in cells:
        _add_cell_boundary(out, cell, 1)
    return out


def _add_cell_boundary(acc: dict[Cell, int], cell: Cell, coef: int) -> None:
    """Add coef times the oriented boundary of `cell` to `acc`, dropping
    faces whose coefficient cancels to zero."""
    sign = coef  # of the upper face on the t-th non-degenerate axis: (-1)**(t-1)*coef
    for axis, (lo, hi, d) in enumerate(cell):
        if lo == hi:
            continue
        head, tail = cell[:axis], cell[axis + 1:]
        for face, s in ((head + ((hi, hi, d),) + tail, sign),
                        (head + ((lo, lo, d),) + tail, -sign)):
            got = acc.get(face, 0) + s
            if got:
                acc[face] = got
            else:
                acc.pop(face, None)
        sign = -sign


def bisect_box(cell: Cell) -> list[Cell]:
    """Split a cell in half along every non-degenerate axis.  The halves
    are over the doubled denominators: (lo, hi, d) becomes (2lo, lo+hi, 2d)
    and (lo+hi, 2hi, 2d), a degenerate (c, c, d) becomes (2c, 2c, 2d)."""
    out: list[Cell] = [()]
    for lo, hi, d in cell:
        pieces = (((2 * lo, lo + hi, 2 * d), (lo + hi, 2 * hi, 2 * d)) if lo != hi
                  else ((2 * lo, 2 * lo, 2 * d),))
        out = [combo + (piece,) for combo in out for piece in pieces]
    return out
