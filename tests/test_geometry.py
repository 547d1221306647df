"""Grids, index blocks, cell faces, and oriented boundaries of box complexes."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from quasisat.geometry import (BoxComplex, Grid, boundary, bisect_box,
                               grid_cover, halve_block, oriented_boundary,
                               split_box, subdivide_face)
from quasisat.intervals import RatBox, box, ival

UNIT2 = box(ival(0, 1), ival(0, 1))


def test_grid_cover_cell_widths():
    g = grid_cover(box(ival(0, 1), ival(0, 3)), Fraction(1, 2))
    assert g.counts == (2, 6)
    for _, cell in g.cells():
        assert all(iv.width <= Fraction(1, 2) for iv in cell.intervals)
    assert g.n_cells == 12


def test_grid_cells_tile_the_base_box():
    g = grid_cover(box(ival(-1, 2)), Fraction(1, 4))
    cells = [cell for _, cell in g.cells()]
    assert cells[0][0].lo == -1 and cells[-1][0].hi == 2
    for a, b in zip(cells, cells[1:]):
        assert a[0].hi == b[0].lo  # contiguous, no gaps or overlaps
    total = sum(c[0].width for c in cells)
    assert total == 3


def test_face_count_and_boundary_flags():
    g = Grid(UNIT2, (2, 2))
    faces = list(g.faces())
    # 3 vertical planes * 2 rows + 3 horizontal planes * 2 columns
    assert len(faces) == 12
    boundary_faces = [f for f in faces if f.on_boundary]
    assert len(boundary_faces) == 8
    for f in faces:
        cells = f.incident_cells
        assert 1 <= len(cells) <= 2
        assert f.on_boundary == (len(cells) == 1)


def test_block_box_spans_its_cells():
    g = Grid(box(ival(0, 3), ival(-1, 1)), (3, 4))
    assert g.block((1, 0), (3, 2)) == box(ival(1, 3), ival(-1, 0))
    assert g.block((2, 3), (3, 4)) == g.cell((2, 3))
    assert g.block((0, 0), g.counts) == g.base


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
    assert sorted(cells) == [idx for idx, _ in g.cells()]


def test_cell_faces_are_the_grid_faces_around_a_cell():
    g = Grid(box(ival(0, 1), ival(0, 2), ival(0, 3)), (3, 2, 1))
    seen = []
    for idx, cell in g.cells():
        faces = list(g.cell_faces(idx))
        assert len(faces) == 2 * g.dim
        for f in faces:
            assert idx in f.incident_cells
            assert f.box[f.axis].is_degenerate
            assert all(f.box[a] == cell[a] for a in range(g.dim) if a != f.axis)
        seen.extend(faces)
    assert set(seen) == set(g.faces())


def test_boundary_face_counts():
    one = BoxComplex((UNIT2,))
    assert len(boundary(one)) == 4
    g = Grid(UNIT2, (2, 1))
    two = BoxComplex(tuple(c for _, c in g.cells()))
    assert len(boundary(two)) == 6  # shared face cancels
    # L-shape of three cells: 8 boundary edges
    g = Grid(UNIT2, (2, 2))
    ell = BoxComplex((g.cell((0, 0)), g.cell((1, 0)), g.cell((0, 1))))
    assert len(boundary(ell)) == 8


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
    cells = [c for _, c in g.cells()]
    if drop and len(cells) > 1:
        cells = cells[:-(drop % len(cells)) or None]
    faces = oriented_boundary(cells)
    for axis in range(2):
        total = sum(_signed_edge_measure(f, c, axis) for f, c in faces.items())
        assert total == 0


def test_shared_faces_cancel_exactly():
    g = Grid(UNIT2, (2, 2))
    whole = oriented_boundary(c for _, c in g.cells())
    outer = oriented_boundary([UNIT2])
    # the union's boundary covers exactly the outer rim, subdivided
    assert sum(f[0].width + f[1].width for f in whole) == \
        sum(f[0].width + f[1].width for f in outer)
    assert all(not (f[0].is_degenerate and f[1].is_degenerate) for f in whole)


def test_subdivide_face_inherits_adjacency():
    g = Grid(UNIT2, (2, 1))
    face = next(f for f in g.faces() if not f.on_boundary)
    parts = subdivide_face(face, Fraction(1, 4))
    assert len(parts) == 4
    for p in parts:
        assert p.axis == face.axis
        assert p.lower_cell == face.lower_cell
        assert p.upper_cell == face.upper_cell
    assert sum(p.box[1].width for p in parts) == face.box[1].width


def test_split_and_bisect_box():
    b = box(ival(0, 1), ival(0, Fraction(1, 2)))
    parts = split_box(b, Fraction(1, 2))
    assert len(parts) == 2
    halves = bisect_box(b)
    assert len(halves) == 4
    assert sum(p[0].width * p[1].width for p in halves) == Fraction(1, 2)
    # degenerate axes are preserved, not split
    flat = box(ival(0, 1), ival(Fraction(1, 2)))
    assert len(bisect_box(flat)) == 2


def test_grid_lazy_scaling():
    g = grid_cover(box(ival(0, 1)), Fraction(1, 2 ** 20))
    assert g.n_cells == 2 ** 20  # constructing the grid is O(1)
    idx, cell = next(iter(g.cells()))
    assert cell[0].lo == 0 and cell[0].width == Fraction(1, 2 ** 20)
