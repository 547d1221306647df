"""Grids, index blocks, cell faces, and oriented boundaries of box complexes."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quasisat.geometry import (BoxComplex, Grid, bisect_box, grid_cover,
                               halve_block, oriented_boundary)
from quasisat.intervals import RatBox, box, ival
from quasisat.solver import _block_env

from oracles import face_box, grid_cells, grid_cut, grid_faces

UNIT2 = box(ival(0, 1), ival(0, 1))


def test_grid_cover_cell_widths():
    g = grid_cover(box(ival(0, 1), ival(0, 3)), Fraction(1, 2))
    assert g.counts == (2, 6)
    for _, cell in grid_cells(g):
        assert all(iv.width <= Fraction(1, 2) for iv in cell.intervals)
    assert g.n_cells == 12


def test_grid_cells_tile_the_base_box():
    g = grid_cover(box(ival(-1, 2)), Fraction(1, 4))
    cells = [cell for _, cell in grid_cells(g)]
    assert cells[0][0].lo == -1 and cells[-1][0].hi == 2
    for a, b in zip(cells, cells[1:]):
        assert a[0].hi == b[0].lo  # contiguous, no gaps or overlaps
    total = sum(c[0].width for c in cells)
    assert total == 3


def test_face_count_and_boundary_flags():
    g = Grid(UNIT2, (2, 2))
    faces = list(grid_faces(g))
    # 3 vertical planes * 2 rows + 3 horizontal planes * 2 columns
    assert len(faces) == 12
    boundary_faces = [f for f in faces if f.on_boundary]
    assert len(boundary_faces) == 8
    for f in faces:
        cells = [c for c in (f.lower_cell, f.upper_cell) if c is not None]
        assert 1 <= len(cells) <= 2
        assert f.on_boundary == (len(cells) == 1)


bounds = st.fractions(min_value=-5, max_value=5, max_denominator=12)


@given(st.lists(st.tuples(bounds, bounds, st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_integer_axes_reproduce_the_cuts(spec):
    """Cut i of every axis, (offset + step*i)/den, is the `Fraction` cut,
    also for non-dyadic and degenerate bounds, and the cells agree."""
    g = Grid(RatBox(tuple(ival(min(a, b), max(a, b)) for a, b, _ in spec)),
             tuple(c for _, _, c in spec))
    for axis, (offset, step, den) in enumerate(g.axes):
        assert den > 0
        for i in range(g.counts[axis] + 1):
            assert Fraction(offset + step * i, den) == grid_cut(g, axis, i)
    for idx, cell in grid_cells(g):
        assert g.cell(idx) == cell


def test_integer_axes_of_a_non_dyadic_box():
    g = Grid(box(ival(Fraction(1, 3), Fraction(5, 7)), ival(-1, 1)), (3, 4))
    assert g.axes == ((21, 8, 63), (-2, 1, 2))
    assert g.cell((2, 3)) == box(ival(Fraction(37, 63), Fraction(5, 7)),
                                 ival(Fraction(1, 2), 1))


def test_block_box_spans_its_cells():
    """The integer intervals the solver builds for an index block span
    exactly the cells lo..hi of the grid."""
    g = Grid(box(ival(0, 3), ival(-1, 1)), (3, 4))

    def block(lo, hi):
        return RatBox(tuple(ival(Fraction(a, d), Fraction(b, d))
                            for a, b, d in _block_env([], g, lo, hi)))

    assert block((1, 0), (3, 2)) == box(ival(1, 3), ival(-1, 0))
    assert block((2, 3), (3, 4)) == g.cell((2, 3))
    assert block((0, 0), g.counts) == g.base


def test_halve_block_splits_the_longest_index_range():
    assert halve_block((0, 0), (3, 4)) == (((0, 0), (3, 2)), ((0, 2), (3, 4)))
    assert halve_block((0, 0), (4, 4)) == (((0, 0), (2, 4)), ((2, 0), (4, 4)))
    assert halve_block((2, 5), (5, 6)) == (((2, 5), (3, 6)), ((3, 5), (5, 6)))
    assert halve_block((5, 1), (6, 2)) is None
    assert halve_block((), ()) is None


def test_repeated_halving_reaches_every_cell_once():
    g = Grid(box(ival(0, 1), ival(0, 1), ival(0, 1)), (3, 2, 5))
    blocks, cells = [((0, 0, 0), g.counts)], []
    while blocks:
        lo, hi = blocks.pop()
        halves = halve_block(lo, hi)
        if halves is None:
            cells.append(lo)
        else:
            blocks.extend(halves)
    assert sorted(cells) == [idx for idx, _ in grid_cells(g)]


def test_cell_faces_are_the_grid_faces_around_a_cell():
    g = Grid(box(ival(0, 1), ival(0, 2), ival(0, 3)), (3, 2, 1))
    seen = []
    for idx, cell in grid_cells(g):
        faces = list(g.cell_faces(idx))
        assert len(faces) == 2 * g.dim
        for f in faces:
            assert idx in (f.lower_cell, f.upper_cell)
            fb = face_box(g, f)
            assert fb[f.axis].is_degenerate
            assert all(fb[a] == cell[a] for a in range(g.dim) if a != f.axis)
        seen.extend(faces)
    assert set(seen) == set(grid_faces(g))


def test_boundary_face_counts():
    one = BoxComplex((UNIT2,))
    assert len(oriented_boundary(one.cells)) == 4
    g = Grid(UNIT2, (2, 1))
    two = BoxComplex(tuple(c for _, c in grid_cells(g)))
    assert len(oriented_boundary(two.cells)) == 6  # shared face cancels
    # L-shape of three cells: 8 boundary edges
    g = Grid(UNIT2, (2, 2))
    ell = BoxComplex((g.cell((0, 0)), g.cell((1, 0)), g.cell((0, 1))))
    assert len(oriented_boundary(ell.cells)) == 8


def test_boundary_of_3d_cube():
    cube = box(ival(0, 1), ival(0, 1), ival(0, 1))
    faces = oriented_boundary([cube])
    assert len(faces) == 6
    assert all(c in (-1, 1) for c in faces.values())


def _signed_edge_measure(face: RatBox, coef: int, axis: int) -> Fraction:
    """coef * (length along `axis`), 0 when the face is degenerate there."""
    return coef * face[axis].width


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=50, deadline=None)
def test_boundary_telescopes_to_zero(nx, ny, drop):
    """The oriented boundary of any cell union is a cycle: for each axis,
    the signed lengths of its edges sum to zero."""
    g = Grid(UNIT2, (nx, ny))
    cells = [c for _, c in grid_cells(g)]
    if drop and len(cells) > 1:
        cells = cells[:-(drop % len(cells)) or None]
    faces = oriented_boundary(cells)
    for axis in range(2):
        total = sum(_signed_edge_measure(f, c, axis) for f, c in faces.items())
        assert total == 0


def test_shared_faces_cancel_exactly():
    g = Grid(UNIT2, (2, 2))
    whole = oriented_boundary(c for _, c in grid_cells(g))
    outer = oriented_boundary([UNIT2])
    # the union's boundary covers exactly the outer rim, subdivided
    assert sum(f[0].width + f[1].width for f in whole) == \
        sum(f[0].width + f[1].width for f in outer)
    assert all(not (f[0].is_degenerate and f[1].is_degenerate) for f in whole)


def test_bisect_box_halves_every_free_axis():
    b = box(ival(0, 1), ival(0, Fraction(1, 2)))
    halves = bisect_box(b)
    assert len(halves) == 4
    assert sum(p[0].width * p[1].width for p in halves) == Fraction(1, 2)
    # degenerate axes are preserved, not split
    flat = box(ival(0, 1), ival(Fraction(1, 2)))
    assert len(bisect_box(flat)) == 2


def test_grid_lazy_scaling():
    g = grid_cover(box(ival(0, 1)), Fraction(1, 2 ** 20))
    assert g.n_cells == 2 ** 20  # constructing the grid is O(1)
    idx, cell = next(iter(grid_cells(g)))
    assert cell[0].lo == 0 and cell[0].width == Fraction(1, 2 ** 20)
