"""Uniform grids over boxes, index blocks, face adjacency, and oriented
boundaries of box complexes."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .intervals import RatBox, RatInterval, ival, rat

CellIndex = tuple[int, ...]
Block = tuple[CellIndex, CellIndex]  # cells lo <= idx < hi on every axis


@dataclass(frozen=True)
class Grid:
    """Uniform grid over `base`: axis i is cut into counts[i] equal parts.

    Cells are addressed by multi-index and materialized on demand, so a
    grid with millions of cells costs nothing to build.
    """
    base: RatBox
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.base.dim:
            raise ValueError("counts and box dimension differ")
        if any(c < 1 for c in self.counts):
            raise ValueError("each axis needs at least one cell")

    @property
    def dim(self) -> int:
        return self.base.dim

    @property
    def n_cells(self) -> int:
        return math.prod(self.counts)

    def cut(self, axis: int, i: int) -> Fraction:
        iv = self.base[axis]
        return iv.lo + iv.width * i / self.counts[axis]

    def cell_interval(self, axis: int, i: int) -> RatInterval:
        return ival(self.cut(axis, i), self.cut(axis, i + 1))

    def cell(self, idx: CellIndex) -> RatBox:
        return RatBox(tuple(self.cell_interval(a, i) for a, i in enumerate(idx)))

    def cells(self) -> Iterator[tuple[CellIndex, RatBox]]:
        for idx in _multi_range(list(self.counts)):
            yield idx, self.cell(idx)

    def block(self, lo: CellIndex, hi: CellIndex) -> RatBox:
        """The box covering the cells with lo <= idx < hi on every axis."""
        return RatBox(tuple(ival(self.cut(a, i), self.cut(a, j))
                            for a, (i, j) in enumerate(zip(lo, hi))))

    def face(self, axis: int, plane: int, rest: CellIndex) -> "Face":
        """The (dim-1)-face at cut `plane` of `axis`; `rest` indexes the
        cells along the remaining axes."""
        at = _insert(rest, axis, plane)
        face_box = RatBox(tuple(
            ival(self.cut(a, i)) if a == axis else self.cell_interval(a, i)
            for a, i in enumerate(at)))
        lower = _insert(rest, axis, plane - 1) if plane > 0 else None
        upper = at if plane < self.counts[axis] else None
        return Face(face_box, axis, lower, upper)

    def faces(self) -> Iterator["Face"]:
        """All grid faces, each degenerate in exactly one axis, ordered by
        axis, then plane, then the cell index along the other axes."""
        for axis in range(self.dim):
            other = [c for a, c in enumerate(self.counts) if a != axis]
            for plane in range(self.counts[axis] + 1):
                for rest in _multi_range(other):
                    yield self.face(axis, plane, rest)

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


def _multi_range(counts: list[int]) -> Iterator[CellIndex]:
    if not counts:
        yield ()
        return
    for i in range(counts[0]):
        for rest in _multi_range(counts[1:]):
            yield (i,) + rest


def _insert(idx: CellIndex, axis: int, value: int) -> CellIndex:
    return idx[:axis] + (value,) + idx[axis:]


@dataclass(frozen=True)
class Face:
    """A grid face: degenerate in `axis`, between the two incident cells
    (None on the side that falls outside the grid)."""
    box: RatBox
    axis: int
    lower_cell: Optional[CellIndex]
    upper_cell: Optional[CellIndex]

    @property
    def on_boundary(self) -> bool:
        return self.lower_cell is None or self.upper_cell is None

    @property
    def incident_cells(self) -> tuple[CellIndex, ...]:
        return tuple(c for c in (self.lower_cell, self.upper_cell)
                     if c is not None)


def grid_cover(b: RatBox, r) -> Grid:
    """Uniform grid over b with every cell width <= r."""
    r = rat(r)
    if r <= 0:
        raise ValueError("grid width must be positive")
    counts = tuple(max(1, math.ceil(iv.width / r)) for iv in b.intervals)
    return Grid(b, counts)


@dataclass(frozen=True)
class BoxComplex:
    """A face-connected union of congruent aligned grid cells."""
    cells: tuple[RatBox, ...]

    @property
    def dim(self) -> int:
        return self.cells[0].dim


def oriented_boundary(cells: Iterable[RatBox]) -> dict[RatBox, int]:
    """Outward-oriented boundary of a union of congruent aligned cells,
    as face-box -> integer coefficient.

    Each cell contributes its faces with the induced orientation of the
    standard frame: on the t-th non-degenerate axis (1-based), the upper
    face gets (-1)**(t-1) and the lower face (-1)**t.  Faces shared by
    two cells receive opposite signs and cancel exactly.
    """
    out: dict[RatBox, int] = {}
    for cell in cells:
        _add_cell_boundary(out, cell, 1)
    return {b: c for b, c in out.items() if c}


def _add_cell_boundary(acc: dict[RatBox, int], cell: RatBox, coef: int) -> None:
    t = 0
    for axis, iv in enumerate(cell.intervals):
        if iv.is_degenerate:
            continue
        t += 1
        sign = -1 if t % 2 == 0 else 1
        hi_face = cell.replace(axis, ival(iv.hi))
        lo_face = cell.replace(axis, ival(iv.lo))
        for face, s in ((hi_face, sign * coef), (lo_face, -sign * coef)):
            got = acc.get(face, 0) + s
            if got:
                acc[face] = got
            else:
                acc.pop(face, None)


def boundary(complex: BoxComplex) -> list[tuple[RatBox, int]]:
    """Boundary faces of the complex with outward orientation signs."""
    acc = oriented_boundary(complex.cells)
    return sorted(acc.items(), key=lambda kv: _box_key(kv[0]))


def _box_key(b: RatBox):
    return tuple((iv.lo, iv.hi) for iv in b.intervals)


def subdivide_face(face: Face, r) -> list[Face]:
    """Split a face uniformly to width <= r along its free axes; the
    fixed axis, incident cells and boundary status are inherited."""
    r = rat(r)
    if r <= 0:
        raise ValueError("width must be positive")
    return [Face(b, face.axis, face.lower_cell, face.upper_cell)
            for b in split_box(face.box, r)]


def split_box(b: RatBox, r: Fraction) -> list[RatBox]:
    """Uniform refinement of a box to width <= r (degenerate axes kept)."""
    parts: list[list[RatInterval]] = []
    for iv in b.intervals:
        n = max(1, math.ceil(iv.width / r))
        cuts = [iv.lo + iv.width * i / n for i in range(n)] + [iv.hi]
        parts.append([ival(a, c) for a, c in zip(cuts, cuts[1:])])
    out = [()]
    for axis_parts in parts:
        out = [combo + (piece,) for combo in out for piece in axis_parts]
    return [RatBox(combo) for combo in out]


def bisect_box(b: RatBox) -> list[RatBox]:
    """Split a box in half along every non-degenerate axis."""
    out = [()]
    for iv in b.intervals:
        pieces = iv.split() if not iv.is_degenerate else (iv,)
        out = [combo + (piece,) for combo in out for piece in pieces]
    return [RatBox(combo) for combo in out]
