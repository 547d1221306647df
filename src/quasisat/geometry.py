"""Uniform grids over boxes, index blocks, face adjacency, and oriented
boundaries of box complexes.

A box complex lives on integers: a cell is one `(lo, hi)` pair of
numerators per axis over per-axis denominators `dens` shared by every
cell of the complex (an axis with lo == hi is degenerate).  Bisecting a
cell doubles every denominator, so cells refined together stay on one
`dens` and equal faces have equal keys, with no `Fraction` built.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .intervals import RatBox, rat

CellIndex = tuple[int, ...]
Block = tuple[CellIndex, CellIndex]  # cells lo <= idx < hi on every axis
Cell = tuple[tuple[int, int], ...]  # (lo, hi) numerators, one pair per axis


@dataclass(frozen=True)
class Grid:
    """Uniform grid over `base`: axis i is cut into counts[i] equal parts.

    Cells are addressed by multi-index and materialized on demand, so a
    grid with millions of cells costs nothing to build.  Cut i of axis a
    is (offset + step*i)/den for `axes[a] == (offset, step, den)`, so
    integer intervals of index ranges need no `Fraction`.
    """
    base: RatBox
    counts: tuple[int, ...]
    axes: tuple[tuple[int, int, int], ...] = field(init=False, repr=False,
                                                   compare=False)

    def __post_init__(self) -> None:
        if len(self.counts) != self.base.dim:
            raise ValueError("counts and box dimension differ")
        if any(c < 1 for c in self.counts):
            raise ValueError("each axis needs at least one cell")
        axes = []
        for iv, c in zip(self.base.intervals, self.counts):
            d = math.lcm(iv.lo.denominator, iv.hi.denominator)
            lo, hi = int(iv.lo * d), int(iv.hi * d)
            # lo + (hi - lo)*i/c over the common denominator d*c
            offset, step, den = lo * c, hi - lo, d * c
            g = math.gcd(offset, step, den)
            axes.append((offset // g, step // g, den // g))
        object.__setattr__(self, "axes", tuple(axes))

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def n_cells(self) -> int:
        return math.prod(self.counts)

    def complex(self, cells: Iterable[CellIndex]) -> "BoxComplex":
        """The cells at the indices `cells`, on the grid's integer axes."""
        return BoxComplex(
            tuple(tuple((o + s * i, o + s * (i + 1)) for (o, s, _), i in zip(self.axes, idx))
                  for idx in cells),
            tuple(d for _, _, d in self.axes))

    def face(self, axis: int, plane: int, rest: CellIndex) -> "Face":
        """The (dim-1)-face at cut `plane` of `axis`; `rest` indexes the
        cells along the remaining axes."""
        at = _insert(rest, axis, plane)
        lower = _insert(rest, axis, plane - 1) if plane > 0 else None
        upper = at if plane < self.counts[axis] else None
        return Face(axis, at, lower, upper)

    def cell_faces(self, idx: CellIndex) -> Iterator["Face"]:
        """The 2*dim faces of cell `idx`, lower before upper on each axis."""
        for axis in range(self.dim):
            rest = idx[:axis] + idx[axis + 1:]
            for plane in (idx[axis], idx[axis] + 1):
                yield self.face(axis, plane, rest)


def halve_block(lo: CellIndex, hi: CellIndex) -> Optional[tuple[Block, Block]]:
    """Split the index block [lo, hi) in half along its longest index
    range (the first such axis); None when the block is a single cell."""
    widths = [j - i for i, j in zip(lo, hi)]
    if all(w == 1 for w in widths):
        return None
    axis = widths.index(max(widths))
    mid = (lo[axis] + widths[axis] // 2,)
    return ((lo, hi[:axis] + mid + hi[axis + 1:]),
            (lo[:axis] + mid + lo[axis + 1:], hi))


def _insert(idx: CellIndex, axis: int, value: int) -> CellIndex:
    return idx[:axis] + (value,) + idx[axis:]


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


def grid_cover(b: RatBox, r) -> Grid:
    """Uniform grid over b with every cell width <= r."""
    r = rat(r)
    if r <= 0:
        raise ValueError("grid width must be positive")
    counts = tuple(max(1, math.ceil(iv.width / r)) for iv in b.intervals)
    return Grid(b, counts)


@dataclass(frozen=True)
class BoxComplex:
    """A face-connected union of congruent aligned grid cells: integer
    cells over the per-axis denominators `dens`."""
    cells: tuple[Cell, ...]
    dens: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.dens)


def oriented_boundary(cells: Iterable[Cell]) -> dict[Cell, int]:
    """Outward-oriented boundary of a union of congruent aligned cells on
    one `dens`, as face -> integer coefficient.

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
    t = 0
    for axis, (lo, hi) in enumerate(cell):
        if lo == hi:
            continue
        t += 1
        sign = -coef if t % 2 == 0 else coef
        for end, s in ((hi, sign), (lo, -sign)):
            face = cell[:axis] + ((end, end),) + cell[axis + 1:]
            got = acc.get(face, 0) + s
            if got:
                acc[face] = got
            else:
                acc.pop(face, None)


def bisect_box(cell: Cell) -> list[Cell]:
    """Split a cell in half along every non-degenerate axis.  The halves
    are over the doubled denominators: (lo, hi) becomes (2lo, lo+hi) and
    (lo+hi, 2hi), a degenerate (c, c) becomes (2c, 2c)."""
    out: list[Cell] = [()]
    for lo, hi in cell:
        pieces = ((2 * lo, lo + hi), (lo + hi, 2 * hi)) if lo != hi else ((2 * lo, 2 * lo),)
        out = [combo + (piece,) for combo in out for piece in pieces]
    return out
