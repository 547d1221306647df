"""The top-down refutation and the face walk of `solver` against a sweep
over every cell and every face of the same grid in index space, each
index mapped to its `Ival` cell.

The blocks are polynomial, where interval evaluation is inclusion-isotone:
a block whose box is refuted has every cell refuted, so the pruned search
must find exactly the plausible cells of the full sweep.
"""
from fractions import Fraction

import pytest

from quasisat import terms as T
from quasisat.degree import degree
from quasisat.formulas import And, Eq, Exists, ForAll, Geq, Or
from quasisat.geometry import grid_cover
from quasisat.parser import parse
from quasisat.evaluation import compile_term
from quasisat.solver import (TRI_TF, IterationRecord, _candidate_complexes,
                             _plausible_cells, prec_for, quasi_decide)

from conftest import corpus_entries
from oracles import (block_parts, eval_env, face_box, grid_cells, grid_faces, index_cell,
                     is_polynomial, ratbox, substitute, tapes)

EXTRA_BLOCKS = {
    "sphere_3d": "exists x in [-1,1], y in [-1,1], z in [-1,1] . "
                 "x^2 + y^2 + z^2 - 1 = 0 and x - y = 0 and x + y - z - 1/4 = 0",
    # cells refuted by the inequality join a component through zero
    # faces, in 1-D as a chain of two past the last plausible cell
    "ineq_refuted_1d": "exists x in [-1,1] . x*(x - 1/8) = 0 and -x - 1/64 >= 0",
    "ineq_refuted_2d": "exists x in [-1,1], y in [-1,1] . "
                       "x = 0 and y = 0 and x + y - 1/16 >= 0",
    # two conics whose complexes come out in another order when they are
    # ordered by union-find root, not by their least plausible cell
    "two_conics": "exists x in [-2,2], y in [-2,2] . "
                  "2*x^2 + y^2 + 2*x*y + x + 2*y - 2/3 = 0 and "
                  "-x^2 + y^2 + x*y - x + 1/2 = 0",
    # a box 9/8 wide, not a dyadic multiple of any grid width: the grids
    # of widths 1, 1/2, 1/4 and 1/8 have 2, 4, 8 and 16 cells
    "non_nesting_1d": "exists x in [0,9/8] . x*x - 1/2 = 0",
    # a parameterized planar block whose faces often have a second
    # component of larger mignitude than the first
    "param_planar": "forall p in [0,1] . exists x in [-1,1], y in [-1,1] . "
                    "x - p/2 = 0 and 4*y - x = 0",
}


def env_of(names, p_box, b):
    """The `Fraction` intervals of the `Ival` parameter box and the box b."""
    return dict(zip(names, ratbox(p_box).product(b).intervals))


def holds_zero(e) -> bool:
    return e.lo <= 0 <= e.hi


def sweep_plausible(eqs, ineqs, names, p_box, grid, p):
    """Every cell, in index order, whose `Fraction` enclosures leave a
    solution possible: each equation's holds zero, no inequality's is
    negative."""
    return [idx for idx, cell in grid_cells(grid)
            if all(holds_zero(eval_env(f, env_of(names, p_box, cell), p)) for f in eqs)
            and all(eval_env(g, env_of(names, p_box, cell), p).hi >= 0
                    for g in ineqs)]


def sweep_complexes(eqs, names, p_box, grid, p, plausible):
    """Union-find over every grid face: the components that hold a
    plausible cell and no zero face on the grid boundary, in the index
    order of their least plausible cell."""
    parent = {}

    def find(i):
        while parent.get(i, i) != i:
            i = parent[i]
        return i

    doomed = set()
    for face in grid_faces(grid):
        env = env_of(names, p_box, face_box(grid, face))
        if not all(holds_zero(eval_env(f, env, p)) for f in eqs):
            continue
        if face.on_boundary:
            doomed.update(c for c in (face.lower_cell, face.upper_cell)
                          if c is not None)
        else:
            parent[find(face.lower_cell)] = find(face.upper_cell)
    doomed_roots = {find(i) for i in doomed}
    groups = {}
    for idx, _ in grid_cells(grid):
        groups.setdefault(find(idx), []).append(idx)
    keep = set(plausible)
    return sorted((cells for root, cells in groups.items()
                   if root not in doomed_roots and keep.intersection(cells)),
                  key=lambda cells: min(keep.intersection(cells)))


def existential_blocks(f, pnames=(), p_box=()):
    """(block, parameter names, parameter box) for each existential
    block, with a universal variable ranging over its whole bound."""
    if isinstance(f, Exists):
        yield f, pnames, p_box
    elif isinstance(f, ForAll):
        yield from existential_blocks(f.body, pnames + (f.var,),
                                      p_box + (f.bound,))
    elif isinstance(f, (And, Or)):
        yield from existential_blocks(f.left, pnames, p_box)
        yield from existential_blocks(f.right, pnames, p_box)


def polynomial_blocks():
    out = []
    for name, text, _, _ in corpus_entries():
        for i, blk in enumerate(existential_blocks(parse(text))):
            eqs, ineqs = block_parts(blk[0])
            if all(is_polynomial(t) for t in eqs + ineqs):
                out.append(pytest.param(blk, id=f"{name}-{i}"))
    out += [pytest.param(blk, id=name) for name, text in EXTRA_BLOCKS.items()
            for blk in existential_blocks(parse(text))]
    return out


@pytest.mark.parametrize("block", polynomial_blocks())
def test_pruning_matches_full_sweep(block):
    s, pnames, p_box = block
    eqs, ineqs = block_parts(s)
    names = pnames + s.vars
    fs = [compile_term(f, names) for f in eqs]
    gs = [compile_term(g, names) for g in ineqs]
    finest = {1: 7, 2: 4, 3: 3}[len(s.vars)]  # 2^-k widths per dimension
    last = []
    for k in range(finest + 1):
        r = Fraction(1, 2 ** k)
        grid, p = grid_cover(s.bounds, r), prec_for(r)
        record = IterationRecord(0, r, TRI_TF, precision=p)
        plausible, _ = _plausible_cells(fs, gs, p_box, grid, record)
        want = sweep_plausible(eqs, ineqs, names, p_box, grid, p)
        assert plausible == [index_cell(grid, idx) for idx in want]
        if last:  # a pass from the last grid's plausible cells finds the same
            assert _plausible_cells(fs, gs, p_box, grid, record,
                                    carried=last)[0] == plausible
        last = plausible
        if len(eqs) == len(s.vars):
            certs = {}
            got = _candidate_complexes(fs, p_box, grid, record, plausible, certs)
            assert got == [[index_cell(grid, idx) for idx in cells]
                           for cells in sweep_complexes(eqs, names, p_box, grid, p, want)]
            check_face_certificates(eqs, names, p_box, grid, p, certs)
            check_seeded_degree(fs, eqs, s.vars, pnames, p_box, grid, p, got, certs)


def check_face_certificates(eqs, names, p_box, grid, p, certs):
    """Each certificate of the walk names the first component whose
    `Fraction` enclosure on the face, over the whole slice, excludes
    zero, with its sign and its exact mignitude."""
    for cell, (i, sign, num, den) in certs.items():
        encs = [eval_env(f, env_of(names, p_box, ratbox(cell)), p) for f in eqs]
        migs = [e.lo if e.lo > 0 else -e.hi if e.hi < 0 else 0 for e in encs]
        want = next(k for k, m in enumerate(migs) if m)
        assert (i, sign, Fraction(num, den)) == (want, 1 if encs[want].lo > 0 else -1,
                                                 migs[want])


def check_seeded_degree(fs, eqs, names, pnames, p_box, grid, p, complexes, certs):
    """The degree on the solver's tapes with the slice centre as point
    intervals, as the solver takes it, is the degree of the terms with
    the centre substituted, seeded with the walk's certificates or not.
    The certificates change no degree value or subdivision count;
    without parameters they change nothing at all."""
    centre = tuple((lo + hi, lo + hi, 2 * d) for lo, hi, d in p_box)
    p0 = {nm: (iv.lo + iv.hi) / 2 for nm, iv in zip(pnames, ratbox(p_box).intervals)}
    f0 = tapes([substitute(f, p0) for f in eqs], names)
    for cells in complexes:
        seeded = degree(fs, cells, p, centre, certs=certs)
        fresh = degree(fs, cells, p, centre)
        assert seeded == degree(f0, cells, p, certs=certs)
        assert fresh == degree(f0, cells, p)
        if pnames:
            assert (seeded is None) == (fresh is None)
            if fresh is not None:
                assert (seeded.value, seeded.subdivisions) == (fresh.value,
                                                               fresh.subdivisions)
        else:
            assert seeded == fresh


def test_complexes_come_in_the_grid_order_of_their_least_plausible_cell():
    """A hand-built block on the 4 x 4 grid of width 1/2 over [0,2]^2: one
    equation, a product of squared distances, whose enclosure on a box
    holds zero exactly when the box holds one of three points.  (1, 5/4)
    lies on the face between cells (1,2) and (2,2), (5/4, 1/2) on the face
    between (2,0) and (2,1), and (3/4, 2) on the top face of (1,3), on
    the grid boundary.  Each two-cell component is returned once, the one
    of the least plausible cell first, though a union-find rooted at the
    upper cell of each join would put it second; the doomed component
    (1,3) lies between the two in grid order and is dropped."""
    s = parse("exists x in [0,2], y in [0,2] . "
              "((x - 1)^2 + (y - 5/4)^2) * ((x - 5/4)^2 + (y - 1/2)^2)"
              " * ((x - 3/4)^2 + (y - 2)^2) = 0")
    fs = [compile_term(f, s.vars) for f in block_parts(s)[0]]
    r = Fraction(1, 2)
    grid, p = grid_cover(s.bounds, r), prec_for(r)
    record = IterationRecord(0, r, TRI_TF, precision=p)
    plausible, _ = _plausible_cells(fs, [], (), grid, record)

    def cells(*idxs):
        return [index_cell(grid, idx) for idx in idxs]

    assert plausible == cells((1, 2), (1, 3), (2, 0), (2, 1), (2, 2))
    got = _candidate_complexes(fs, (), grid, record, plausible, {})
    assert got == [cells((1, 2), (2, 2)), cells((2, 0), (2, 1))]
    # five cells with 16 faces, four of them shared; one zero face each
    assert (record.faces_evaluated, record.zero_faces) == (16, 3)


# ---------------------------------------------------------------------------
# certificates are margins: a shift below the certificate never gives the
# opposite verdict

MULTI_CELL_FALSE = [
    # two lines crossing at (9/8, 3/8), just outside the box
    "exists x in [0,1], y in [0,1] . x + y - 3/2 = 0 and x - y - 3/4 = 0",
    # (x - 1)^3 - 1/8 has its only root at 3/2
    "exists x in [0,1] . x^3 - 3*x^2 + 3*x - 9/8 = 0",
]


def shift_atom(f, k, delta):
    """f with the term of its k-th atom (depth first) shifted by delta,
    and the number of atoms of f."""
    count = 0

    def go(g):
        nonlocal count
        if isinstance(g, (Eq, Geq)):
            count += 1
            return type(g)(T.Add(g.term, T.Const(delta))) if count == k + 1 else g
        if isinstance(g, Exists):
            return Exists(g.vars, g.bounds, go(g.body))
        if isinstance(g, ForAll):
            return ForAll(g.var, g.bound, go(g.body))
        return type(g)(go(g.left), go(g.right))

    return go(f), count


def decided_sentences():
    out = [pytest.param(text, label, id=name)
           for name, text, label, _ in corpus_entries()
           if label in ("TRUE", "FALSE")]
    return out + [pytest.param(t, "FALSE", id=f"multi_cell_{i}")
                  for i, t in enumerate(MULTI_CELL_FALSE)]


@pytest.mark.parametrize("text, label", decided_sentences())
def test_false_certificate_is_a_separation_margin(text, label):
    """Shifting one atom by 99/100 of the certificate, either way, never
    gives the opposite verdict; for TRUE the certificate is a robustness
    margin, for FALSE a separation bound."""
    f = parse(text)
    v = quasi_decide(f, budget=20)
    assert v.outcome == label and v.certificate > 0
    opposite = "FALSE" if label == "TRUE" else "TRUE"
    _, atoms = shift_atom(f, -1, 0)
    for k in range(atoms):
        for sign in (1, -1):
            g, _ = shift_atom(f, k, sign * v.certificate * Fraction(99, 100))
            assert quasi_decide(g, budget=12).outcome != opposite, (k, sign)


def test_multi_cell_false_blocks_need_several_cells():
    for text in MULTI_CELL_FALSE:
        v = quasi_decide(parse(text), budget=20)
        assert v.outcome == "FALSE" and v.trace[-1].cells_evaluated > 1
