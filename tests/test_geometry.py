"""Grids, the one split rule and the halving and bisection made of it,
cell faces, and oriented boundaries of box complexes, against the
index-space references of `oracles`."""
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasisat.geometry import (Grid, bisect_box, covering_cells, faces_around, grid_cover,
                               halve_block, oriented_boundary, split)
from quasisat.intervals import ival

import oracles
from oracles import (IndexGrid, RatBox, box, box_issubset, complex_of, face_box, grid_cells,
                     grid_cut, grid_faces, halve_index_block, index_block, index_cell,
                     index_cell_faces, least_power_of_two, ratbox, ratboxes, rival, single_box,
                     width)

UNIT2 = (ival(0, 1), ival(0, 1))


def test_grid_cover_cell_widths():
    g = grid_cover((ival(0, 1), ival(0, 3)), Fraction(1, 2))
    assert g.counts == (2, 8)  # 6 cells of width 1/2 round up to 8
    for _, cell in grid_cells(g):
        assert all(width(iv) <= Fraction(1, 2) for iv in cell.intervals)
    assert g.n_cells == 16


def test_grid_cells_tile_the_base_box():
    g = grid_cover((ival(-1, 2),), Fraction(1, 4))
    cells = [cell for _, cell in grid_cells(g)]
    assert cells[0][0].lo == -1 and cells[-1][0].hi == 2
    for a, b in zip(cells, cells[1:]):
        assert a[0].hi == b[0].lo  # contiguous, no gaps or overlaps
    total = sum(width(c[0]) for c in cells)
    assert total == 3


@given(st.lists(st.tuples(st.fractions(min_value=-50, max_value=50, max_denominator=1000),
                          st.fractions(min_value=0, max_value=50, max_denominator=1000)),
                min_size=1, max_size=3),
       st.fractions(min_value=Fraction(1, 10 ** 6), max_value=60, max_denominator=10 ** 6))
@settings(max_examples=200, deadline=None)
def test_grid_cover_counts_by_integer_ceil_division(axes, r):
    """`grid_cover` counts the cells of each axis on integers; the counts
    are the least powers of two at least ceil(width / r) on `Fraction`s,
    and 1 on a degenerate axis."""
    g = grid_cover(tuple(ival(lo, lo + w) for lo, w in axes), r)
    assert g.counts == tuple(least_power_of_two(math.ceil(w / r)) for _, w in axes)


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


def specs(max_log: int):
    """(bound, bound, cells) per axis, with non-dyadic bounds and a power
    of two of cells up to 2**max_log; about one axis in three is
    degenerate, with the one cell `grid_cover` gives it."""
    def axis(a, b, log, flat):
        return (a, a, 1) if flat == 0 or a == b else (a, b, 1 << log)

    return st.lists(st.builds(axis, bounds, bounds, st.integers(min_value=0, max_value=max_log),
                              st.integers(min_value=0, max_value=2)),
                    min_size=1, max_size=3)


def grid_of(spec, kind=Grid):
    """The grid of a spec: a `Grid`, or an `IndexGrid` for any counts."""
    return kind(tuple(ival(min(a, b), max(a, b)) for a, b, _ in spec),
                tuple(c for _, _, c in spec))


@given(st.lists(st.tuples(bounds, bounds, st.integers(min_value=1, max_value=9)),
                min_size=1, max_size=3))
@settings(max_examples=60, deadline=None)
def test_integer_axes_reproduce_the_cuts(spec):
    """The index cells the oracles build for any counts, odd ones
    included, are the `Fraction` cuts, also for non-dyadic and degenerate
    bounds, each over d*c on an axis (a, b, d) of c cells."""
    g = grid_of(spec, IndexGrid)
    for idx, cell in grid_cells(g):
        (got,) = complex_of(g, [idx])
        assert ratboxes([got]) == (cell,)
        assert [d for _, _, d in got] == [d * c for (_, _, d), c in zip(g.base, g.counts)]


def test_integer_axes_of_a_non_dyadic_box():
    """An axis (lo, hi, d) splits into (2lo, lo+hi, 2d) and (lo+hi, 2hi, 2d),
    not reduced, so its cells on a grid of c cells are over d*c, each of
    width hi - lo."""
    g = Grid((ival(Fraction(1, 3), Fraction(5, 7)), ival(-1, 1)), (4, 4))
    assert g.base == ((7, 15, 21), (-1, 1, 1)) and g.dens == (84, 4)
    assert split(g.base[0]) == ((14, 22, 42), (22, 30, 42))
    assert covering_cells([g.base], g)[-1] == complex_of(g, [(3, 3)])[0] == (
        (52, 60, 84), (2, 4, 4))
    assert ratboxes(complex_of(g, [(3, 3)])) == (box(rival(Fraction(13, 21), Fraction(5, 7)),
                                                     rival(Fraction(1, 2), 1)),)
    flat = Grid((ival(Fraction(1, 3)), ival(0, 1)), (1, 2))
    assert flat.dens == (3, 2)
    assert covering_cells([flat.base], flat) == [((1, 1, 3), (0, 1, 2)), ((1, 1, 3), (1, 2, 2))]


def test_block_box_spans_its_cells():
    """The index block lo..hi of the oracles spans exactly the cells
    lo..hi of the grid, for odd counts too."""
    g = IndexGrid((ival(0, 3), ival(-1, 1)), (3, 4))

    def block(lo, hi):
        return ratbox(index_block(g, lo, hi))

    assert block((1, 0), (3, 2)) == box(rival(1, 3), rival(-1, 0))
    assert (block((2, 3), (3, 4)),) == ratboxes(complex_of(g, [(2, 3)]))
    assert block((0, 0), g.counts) == ratbox(g.base)


def test_halve_block_splits_the_longest_index_range():
    """The axis with the most cells left, grid.dens[a] // den, is split,
    the first on ties; a degenerate axis holds one cell."""
    # widths 2/5 and 3/7, cut into 4 and 8 cells
    g = Grid(((0, 2, 5), (0, 3, 7)), (4, 8))
    assert halve_block(g.base, g) == (((0, 2, 5), (0, 3, 14)), ((0, 2, 5), (3, 6, 14)))
    assert halve_block(((0, 2, 5), (3, 6, 14)), g) == (((0, 2, 10), (3, 6, 14)),
                                                       ((2, 4, 10), (3, 6, 14)))
    assert halve_block(((2, 4, 10), (9, 12, 28)), g) == (((4, 6, 20), (9, 12, 28)),
                                                         ((6, 8, 20), (9, 12, 28)))
    assert halve_block(((6, 8, 20), (51, 54, 56)), g) is None
    assert halve_block((), Grid((), ())) is None
    flat = Grid(((0, 1, 1), (3, 3, 2)), (4, 1))
    assert halve_block(flat.base, flat) == (((0, 1, 2), (3, 3, 2)), ((1, 2, 2), (3, 3, 2)))
    assert halve_block(((1, 2, 4), (3, 3, 2)), flat) is None


@given(specs(3))
@settings(max_examples=60, deadline=None)
def test_halve_block_follows_the_index_halving(spec):
    """Halving the base and the index block of all cells side by side
    gives blocks that span the same cells at every step, down to every
    cell once, each equal to its index cell; non-dyadic and degenerate
    bounds included."""
    g = grid_of(spec)
    pairs, cells = [(g.base, ((0,) * len(g.counts), g.counts))], []
    while pairs:
        block, (lo, hi) = pairs.pop()
        assert ratbox(block) == ratbox(index_block(g, lo, hi)) == RatBox(tuple(
            rival(grid_cut(g, a, i), grid_cut(g, a, j)) for a, (i, j) in enumerate(zip(lo, hi))))
        halves, want = halve_block(block, g), halve_index_block(lo, hi)
        assert (halves is None) == (want is None)
        if halves is None:
            assert block == index_block(g, lo, hi)
            cells.append(block)
        else:
            pairs.extend(zip(halves, want))
    assert sorted(cells) == [index_cell(g, idx) for idx, _ in grid_cells(g)]


def test_repeated_halving_reaches_every_cell_once():
    g = Grid((ival(0, 1), ival(0, 1), ival(0, 1)), (4, 2, 8))
    blocks, cells = [g.base], []
    while blocks:
        block = blocks.pop()
        halves = halve_block(block, g)
        if halves is None:
            cells.append(block)
        else:
            blocks.extend(halves)
    assert sorted(cells) == [index_cell(g, idx) for idx, _ in grid_cells(g)]


axes = st.builds(lambda lo, w, flat: ival(lo, lo if flat == 0 else lo + w),
                 st.fractions(min_value=-5, max_value=5, max_denominator=30),
                 st.fractions(min_value=0, max_value=3, max_denominator=30),
                 st.integers(min_value=0, max_value=3))


@given(st.lists(st.tuples(axes, st.integers(min_value=0, max_value=3)), min_size=1, max_size=3),
       st.integers(min_value=-4, max_value=40).filter(lambda c: c < 1 or c & (c - 1)))
@settings(max_examples=200, deadline=None)
def test_one_split_rule_makes_the_grid_halving_and_bisection(spec, bad):
    """Over non-dyadic, negative and degenerate axes and power-of-two
    counts: halving the base with `halve_block` down to single cells
    gives exactly `covering_cells([base])`, in grid order once sorted,
    each cell over `grid.dens`; `bisect_box` of a cell without a
    degenerate axis is `covering_cells` of it on its grid of two cells
    per axis; and a count that is not a power of two raises."""
    base = tuple(iv for iv, _ in spec)
    counts = tuple(1 if lo == hi else 1 << log for (lo, hi, _), log in spec)
    with pytest.raises(ValueError, match="power of two"):
        Grid(base, (bad,) + counts[1:])
    g = Grid(base, counts)
    blocks, cells = [g.base], []
    while blocks:
        block = blocks.pop()
        halves = halve_block(block, g)
        if halves is None:
            cells.append(block)
        else:
            blocks.extend(halves)
    want = covering_cells([g.base], g)
    assert sorted(cells) == want and len(want) == g.n_cells
    assert all(tuple(d for _, _, d in cell) == g.dens for cell in want)
    for cell in want:
        if all(lo != hi for lo, hi, _ in cell):
            assert bisect_box(cell) == covering_cells([cell], Grid(cell, (2,) * len(cell)))



NINE_EIGHTHS = ival(0, Fraction(9, 8))  # 2, 4, 8, 16 and 32 cells at widths 1 to 1/16


def halving_blocks(g: Grid) -> list:
    """Every block that repeated halving reaches from the base."""
    out, blocks = [], [g.base]
    while blocks:
        block = blocks.pop()
        out.append(block)
        blocks.extend(halve_block(block, g) or ())
    return out


def meeting_cells(block, g: Grid) -> list:
    """The cells of g, in index order, whose interiors meet the interior
    of `block`, found from the `Fraction` cuts of `grid_cut`; a
    degenerate axis meets itself."""
    b = ratbox(block)
    return [index_cell(g, idx) for idx, cell in grid_cells(g)
            if all(c.lo == c.hi or (c.lo < iv.hi and iv.lo < c.hi) for c, iv in zip(cell, b))]


@pytest.mark.parametrize("base, finest", [
    ((NINE_EIGHTHS,), 4),
    ((NINE_EIGHTHS, ival(Fraction(-1, 3), 1)), 2),
    ((ival(Fraction(1, 3)), NINE_EIGHTHS), 4),
])
def test_covering_cells_take_the_cells_that_meet_blocks_of_another_grid(base, finest):
    """From every block of one grid to every finer grid of widths 1 to
    2^-finest over a box 9/8 wide, `covering_cells` gives exactly the
    cells whose interiors meet the block's; for a list of disjoint cells,
    the cells that meet any of them, each once."""
    grids = [grid_cover(base, Fraction(1, 2 ** k)) for k in range(finest + 1)]
    for i, old in enumerate(grids):
        blocks = halving_blocks(old)
        cells = sorted(index_cell(old, idx) for idx, _ in grid_cells(old))[::3]
        for new in grids[i:]:
            for block in blocks:
                assert covering_cells([block], new) == meeting_cells(block, new)
            assert sorted(covering_cells(cells, new)) == sorted(
                {c for cell in cells for c in meeting_cells(cell, new)})


def test_covering_cells_leave_out_a_cell_that_touches_on_a_face():
    two, eight = (grid_cover((NINE_EIGHTHS,), Fraction(1, 2 ** k)) for k in (0, 2))
    assert (two.counts, eight.counts) == ((2,), (8,))
    # cell [9/16, 9/8] of two: the cell [27/64, 9/16] of eight touches it
    # on a face only
    assert ratboxes(covering_cells([index_cell(two, (1,))], eight)) == tuple(
        box(rival(Fraction(9 * k, 64), Fraction(9 * (k + 1), 64))) for k in (4, 5, 6, 7))
    # cell [0, 9/16] of two: [9/16, 45/64] touches it on a face only
    assert ratboxes(covering_cells([index_cell(two, (0,))], eight)) == tuple(
        box(rival(Fraction(9 * k, 64), Fraction(9 * (k + 1), 64))) for k in (0, 1, 2, 3))


@given(st.lists(st.tuples(st.fractions(min_value=-5, max_value=5, max_denominator=30),
                          st.fractions(min_value=0, max_value=2, max_denominator=30),
                          st.integers(min_value=0, max_value=3)),
                min_size=1, max_size=3),
       st.fractions(min_value=Fraction(1, 2), max_value=3, max_denominator=50), st.data())
@settings(max_examples=80, deadline=None)
def test_grids_of_halved_widths_nest(spec, r, data):
    """Over bounds with non-dyadic widths, negative ends and degenerate
    axes (about one in four): the grid of r/2 refines the grid of r and
    has no cell wider than r/2, each axis count c has ceil(w/r) <= c <
    2*ceil(w/r), and `covering_cells` of a cell of the coarser grid tiles
    the cell exactly with cells of the finer one, in grid order; of
    several cells, it is the concatenation of their children."""
    base = tuple(ival(lo, lo if flat == 0 else lo + w) for lo, w, flat in spec)
    coarse, fine = grid_cover(base, r), grid_cover(base, r / 2)
    for g, r_ in ((coarse, r), (fine, r / 2)):
        for (lo, hi, d), c in zip(base, g.counts):
            n = max(1, math.ceil(Fraction(hi - lo, d) / r_))
            assert n <= c < 2 * n
    cells = sorted(index_cell(coarse, idx) for idx, _ in grid_cells(coarse))
    children = []
    for cell, outer in zip(cells, ratboxes(cells)):
        got = covering_cells([cell], fine)
        assert got == sorted(got)
        # distinct cells of one grid meet in a face at most, so children
        # inside the cell whose volumes sum to the cell's tile it
        assert all(box_issubset(b, outer) and all(width(iv) <= r / 2 for iv in b.intervals)
                   for b in ratboxes(got))
        assert sum(volume(c) for c in got) == volume(cell)
        children += got
    assert sorted(children) == sorted(index_cell(fine, idx) for idx, _ in grid_cells(fine))
    picked = sorted(data.draw(st.sets(st.sampled_from(cells), max_size=4)))
    assert covering_cells(picked, fine) == [c for cell in picked
                                            for c in covering_cells([cell], fine)]


def volume(cell) -> Fraction:
    """The product of the widths of the non-degenerate axes."""
    return math.prod(Fraction(hi - lo, d) for lo, hi, d in cell if lo != hi)


def check_faces_around(g: Grid) -> None:
    """Each integer face of a cell is the box of the index-space face in
    the same place, and its neighbour the other incident cell."""
    seen = []
    for idx, cell in grid_cells(g):
        got = list(faces_around(index_cell(g, idx), g))
        faces = list(index_cell_faces(g, idx))
        assert len(got) == len(faces) == 2 * len(g.counts)
        for (face, other), f in zip(got, faces):
            assert idx in (f.lower_cell, f.upper_cell)
            fb = face_box(g, f)
            assert fb[f.axis].lo == fb[f.axis].hi
            assert all(fb[a] == cell[a] for a in range(len(g.counts)) if a != f.axis)
            assert ratboxes([face]) == (fb,)
            assert face[f.axis][0] == face[f.axis][1]
            assert (other is None) == f.on_boundary
            if other is not None:
                neighbour = f.upper_cell if f.lower_cell == idx else f.lower_cell
                assert other == index_cell(g, neighbour)
        seen.extend(faces)
    assert set(seen) == set(grid_faces(g))


def test_cell_faces_are_the_grid_faces_around_a_cell():
    check_faces_around(Grid((ival(0, 1), ival(0, 2), ival(0, 3)), (4, 2, 1)))


@given(specs(2))
@settings(max_examples=40, deadline=None)
def test_faces_around_match_the_index_faces(spec):
    """Also for non-dyadic bounds, and degenerate ones, whose two faces
    are one and the same boundary face."""
    check_faces_around(grid_of(spec))


def test_boundary_face_counts():
    one = single_box(UNIT2)
    assert len(oriented_boundary(one)) == 4
    g = Grid(UNIT2, (2, 1))
    two = complex_of(g, [(0, 0), (1, 0)])
    assert len(oriented_boundary(two)) == 6  # shared face cancels
    # L-shape of three cells: 8 boundary edges
    g = Grid(UNIT2, (2, 2))
    ell = complex_of(g, [(0, 0), (1, 0), (0, 1)])
    assert len(oriented_boundary(ell)) == 8


def test_boundary_of_3d_cube():
    cube = single_box((ival(0, 1), ival(0, 1), ival(0, 1)))
    faces = oriented_boundary(cube)
    assert len(faces) == 6
    assert all(c in (-1, 1) for c in faces.values())
    # each face is degenerate in exactly one axis, at the cube's ends
    assert {f for f in faces} == {
        tuple((e, e, 1) if a == axis else (0, 1, 1) for a in range(3))
        for axis in range(3) for e in (0, 1)}


def _signed_edge_measure(face, coef: int, axis: int) -> Fraction:
    """coef * (length along `axis`), 0 when the face is degenerate there."""
    lo, hi, den = face[axis]
    return coef * Fraction(hi - lo, den)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=0, max_value=8))
@settings(max_examples=50, deadline=None)
def test_boundary_telescopes_to_zero(nx, ny, drop):
    """The oriented boundary of any cell union is a cycle: for each axis,
    the signed lengths of its edges sum to zero."""
    g = IndexGrid(UNIT2, (nx, ny))
    cells = [idx for idx, _ in grid_cells(g)]
    if drop and len(cells) > 1:
        cells = cells[:-(drop % len(cells)) or None]
    faces = oriented_boundary(complex_of(g, cells))
    for axis in range(2):
        total = sum(_signed_edge_measure(f, c, axis)
                    for f, c in faces.items())
        assert total == 0


def test_shared_faces_cancel_exactly():
    g = Grid(UNIT2, (2, 2))
    whole = complex_of(g, [idx for idx, _ in grid_cells(g)])
    outer = single_box(UNIT2)

    def rim(cells):
        return sum(Fraction(hi - lo, d) for face in oriented_boundary(cells)
                   for lo, hi, d in face)

    # the union's boundary covers exactly the outer rim, subdivided
    assert rim(whole) == rim(outer)
    assert all(any(lo != hi for lo, hi, _ in f) for f in oriented_boundary(whole))
    assert len(oriented_boundary(whole)) == 8


def test_bisect_box_halves_every_free_axis():
    b = single_box((ival(0, 1), ival(0, Fraction(1, 2))))
    assert b == [((0, 1, 1), (0, 1, 2))]
    halves = bisect_box(b[0])  # over the doubled denominators 2 and 4
    assert halves == [((0, 1, 2), (0, 1, 4)), ((0, 1, 2), (1, 2, 4)),
                      ((1, 2, 2), (0, 1, 4)), ((1, 2, 2), (1, 2, 4))]
    assert sum(Fraction((x1 - x0) * (y1 - y0), dx * dy)
               for (x0, x1, dx), (y0, y1, dy) in halves) == Fraction(1, 2)
    # degenerate axes are preserved, not split
    (flat,) = single_box((ival(0, 1), ival(Fraction(1, 2))))
    assert bisect_box(flat) == [((0, 1, 2), (2, 2, 4)), ((1, 2, 2), (2, 2, 4))]


@given(st.lists(st.tuples(bounds, bounds, st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=3),
       st.lists(st.booleans(), min_size=27, max_size=27))
@settings(max_examples=60, deadline=None)
def test_boundary_and_bisection_equal_the_ratbox_reference(spec, keep):
    """On any union of grid cells, non-dyadic and degenerate axes included,
    the integer boundary and bisection are the `RatBox` ones, face for
    face, coefficient for coefficient and in the same order."""
    g = grid_of(spec, IndexGrid)
    idxs = [idx for (idx, _), k in zip(grid_cells(g), keep) if k] or [(0,) * len(g.counts)]
    cells = complex_of(g, idxs)
    got = oriented_boundary(cells)
    want = oracles.oriented_boundary(ratboxes(cells))
    faces = ratboxes(got)
    assert list(zip(faces, got.values())) == list(want.items())
    for cell, ref in zip(cells, ratboxes(cells)):
        assert list(ratboxes(bisect_box(cell))) == oracles.bisect_box(ref)


def test_grid_lazy_scaling():
    g = grid_cover((ival(0, 1),), Fraction(1, 2 ** 20))
    assert g.n_cells == 2 ** 20  # constructing the grid is O(1)
    idx, cell = next(iter(grid_cells(g)))
    assert cell[0].lo == 0 and width(cell[0]) == Fraction(1, 2 ** 20)


def test_grid_checks_its_counts_and_compares_by_base_and_counts():
    g = Grid(UNIT2, (2, 4))
    assert g == Grid(UNIT2, (2, 4)) and hash(g) == hash(Grid(UNIT2, (2, 4)))
    assert g != Grid(UNIT2, (4, 2))
    assert (g.dens, g.n_cells) == ((2, 4), 8)
    assert repr(g) == "Grid(base=((0, 1, 1), (0, 1, 1)), counts=(2, 4))"
    with pytest.raises(AttributeError):
        g.counts = (1, 1)
    with pytest.raises(ValueError, match="dimension"):
        Grid(UNIT2, (2,))
    with pytest.raises(ValueError, match="power of two"):
        Grid(UNIT2, (2, 0))
    with pytest.raises(ValueError, match="one if degenerate"):
        Grid((ival(0, 1), ival(1)), (2, 2))
