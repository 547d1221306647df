"""Uniform grids, the one split rule, and oriented boundaries of box
complexes.

A cell is a tuple of `Ival`s, one `(lo, hi, den)` per axis (an axis
with lo == hi is degenerate).  A grid's base box, a block of its cells,
a single cell and a face are all cells of this one form: a face has
`(end, end, den)` on its axis.  One rule refines every box: `split`
turns (lo, hi, d) into (2lo, lo+hi, 2d) and (lo+hi, 2hi, 2d), so every
node of an axis's bisection tree has the width hi - lo of the bound over
its own den.  `halve_block` applies it on one axis of a block of grid
cells, `bisect_box` on every axis of a cell of the degree or the
distance.  `grid_cover` cuts each axis into the least power of two of
cells no wider than ε, so every grid, block and slab is a node of the
bound's tree, the grid of a smaller ε refines the grid of a larger one,
the cells of a grid share one den per axis, equal faces have equal keys
and cells compare in the order of their numerators.  The solver calls
`grid_cover`, `halve_block` and `covering_cells` for every block in
every iteration, so each makes one pass over the axes.
"""
from __future__ import annotations

from math import prod
from collections.abc import Iterable, Sequence
from itertools import product

from .intervals import Ival, rat
from .record import Frozen, init_field

Cell = tuple[Ival, ...]  # one (lo, hi, den) per axis


class Grid(Frozen):
    """Uniform grid over `base`: axis i is cut into counts[i] equal parts,
    a power of two (one on a degenerate axis), so its cells are the nodes
    of depth log2(counts[i]) of the bisection tree of that axis (`split`),
    over the leaf denominators `dens`.  Cells are made on demand, so a
    grid with millions of cells costs nothing to build.  Grids are equal
    when their `base` and `counts` are.
    """
    __slots__ = ("base", "counts", "dens")
    _fields = ("base", "counts")

    def __init__(self, base: tuple[Ival, ...], counts: tuple[int, ...]) -> None:
        if len(counts) != len(base):
            raise ValueError("counts and box dimension differ")
        for (lo, hi, _), c in zip(base, counts):
            if c < 1 or c & (c - 1) or (lo == hi and c > 1):
                raise ValueError("each axis needs a power of two of cells, one if degenerate")
        init_field(self, "base", base)
        init_field(self, "counts", counts)
        init_field(self, "dens", tuple(d * c for (_, _, d), c in zip(base, counts)))

    @property
    def n_cells(self) -> int:
        return prod(self.counts)


def split(axis: Ival) -> tuple[Ival, Ival]:
    """The two halves of an axis over the doubled denominator: (lo, hi, d)
    becomes (2lo, lo+hi, 2d) and (lo+hi, 2hi, 2d).  This is the one rule
    that refines a box, so every node of a bound's bisection tree keeps
    the bound's width hi - lo over its own denominator, and a degenerate
    (c, c, d) gives (2c, 2c, 2d) twice."""
    lo, hi, d = axis
    return (2 * lo, lo + hi, 2 * d), (lo + hi, 2 * hi, 2 * d)


def halve_block(block: Cell, grid: Grid) -> tuple[Cell, Cell] | None:
    """Split a block of grid cells in half along the axis that holds the
    most cells, grid.dens[a] // den (the first such axis); None when the
    block is one cell."""
    axis, n, a = 0, 1, 0  # n cells along `axis`; a counts the axes
    for (_, _, d), e in zip(block, grid.dens):
        if e > n * d:  # more than n cells along axis a
            axis, n = a, e // d
        a += 1
    if n == 1:
        return None
    head, tail = block[:axis], block[axis + 1:]
    low, high = split(block[axis])
    return head + (low,) + tail, head + (high,) + tail


def covering_cells(cells: Sequence[Cell], grid: Grid) -> list[Cell]:
    """The cells of `grid` inside each of `cells`, cell after cell, each
    one's in grid order.  `cells` are disjoint nodes of the bisection trees
    of the grid's base, such as the cells or blocks of a coarser grid of
    `grid_cover`: the descendants of a node (lo, hi, d) on the grid are
    its k = dens/d cuts of width hi - lo over the grid's den, so no cell
    comes twice."""
    out: list[Cell] = []
    for cell in cells:
        axes = []
        for (lo, hi, d), e in zip(cell, grid.dens):
            k, w = e // d, hi - lo  # lo/d is lo*k/e
            axes.append([(at, at + w, e) for at in range(lo * k, hi * k, w)]
                        if w else ((lo * k, hi * k, e),))
        out += product(*axes)  # in grid order
    return out


def faces_around(cell: Cell, grid: Grid) -> list[tuple[Cell, Cell | None]]:
    """The 2*dim faces of a grid cell, lower before upper on each axis, as
    (face, neighbour).  A face is the cell with `(end, end, den)` on its
    axis; the neighbour across it is the cell shifted by its own width
    along the axis, None when `end` is an end of the grid's base (a
    degenerate axis gives the same boundary face twice)."""
    out = []
    for axis, ((lo, hi, d), (first, last, b)) in enumerate(zip(cell, grid.base)):
        head, tail, w = cell[:axis], cell[axis + 1:], hi - lo
        # lo/d is the base's first/b when lo*b == first*d, and hi/d its last/b
        below = None if lo * b == first * d else head + ((lo - w, lo, d),) + tail
        above = None if hi * b == last * d else head + ((hi, hi + w, d),) + tail
        out += (head + ((lo, lo, d),) + tail, below), (head + ((hi, hi, d),) + tail, above)
    return out


def grid_cover(b: tuple[Ival, ...], r) -> Grid:
    """Uniform grid over b with every cell width <= r: each axis is cut
    into the least power of two of cells that is at least ceil(w/r), so
    the grid of r/2 refines the grid of r."""
    num, den = rat(r).as_integer_ratio()
    if num <= 0:
        raise ValueError("grid width must be positive")
    cs = (-((lo - hi) * den // (d * num)) for lo, hi, d in b)  # ceil((hi - lo)/d / r)
    return Grid(b, tuple(1 << max(c - 1, 0).bit_length() for c in cs))  # least 2^k >= c


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
        add_cell_boundary(out, cell, 1)
    return out


def add_cell_boundary(acc: dict[Cell, int], cell: Cell, coef: int) -> None:
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
    """Split a cell in half along every axis by `split`; a degenerate axis,
    whose two halves are one, stays one piece."""
    out: list[Cell] = [()]
    for axis in cell:
        pieces = split(axis) if axis[0] != axis[1] else split(axis)[:1]
        out = [combo + (piece,) for combo in out for piece in pieces]
    return out
