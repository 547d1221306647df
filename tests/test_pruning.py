"""The top-down refutation and the face walk of `solver` against a sweep
over every cell and every face of the same grid.

The blocks are polynomial, where interval evaluation is inclusion-isotone:
a block whose box is refuted has every cell refuted, so the pruned search
must find exactly the plausible cells of the full sweep.
"""
from fractions import Fraction

import pytest

from quasisat import terms as T
from quasisat.formulas import And, Eq, Exists, ForAll, Geq, Or, block_parts
from quasisat.geometry import grid_cover
from quasisat.intervals import EMPTY_BOX, box
from quasisat.parser import parse
from quasisat.solver import (_Context, _candidate_complexes, _plausible_cells,
                             _refutation_bound, _zero_face, prec_for,
                             quasi_decide)

from conftest import corpus_entries

EXTRA_BLOCKS = {
    "sphere_3d": "exists x in [-1,1], y in [-1,1], z in [-1,1] . "
                 "x^2 + y^2 + z^2 - 1 = 0 and x - y = 0 and x + y - z - 1/4 = 0",
    # cells refuted by the inequality join a component through zero
    # faces, in 1-D as a chain of two past the last plausible cell
    "ineq_refuted_1d": "exists x in [-1,1] . x*(x - 1/8) = 0 and -x - 1/64 >= 0",
    "ineq_refuted_2d": "exists x in [-1,1], y in [-1,1] . "
                       "x = 0 and y = 0 and x + y - 1/16 >= 0",
    # two conics whose complexes come out in another order when the zero
    # faces are not united in grid sweep order
    "two_conics": "exists x in [-2,2], y in [-2,2] . "
                  "2*x^2 + y^2 + 2*x*y + x + 2*y - 2/3 = 0 and "
                  "-x^2 + y^2 + x*y - x + 1/2 = 0",
}


def sweep_plausible(eqs, ineqs, names, p_box, grid, prec):
    """Every cell, in index order, that the refutation test keeps."""
    return [idx for idx, cell in grid.cells()
            if _refutation_bound(eqs, ineqs,
                                 dict(zip(names, p_box.product(cell).intervals)),
                                 prec) is None]


def sweep_complexes(eqs, names, p_box, grid, prec, plausible):
    """Union-find over every grid face: the components that hold a
    plausible cell and no zero face on the grid boundary."""
    parent = {}

    def find(i):
        while parent.get(i, i) != i:
            i = parent[i]
        return i

    doomed = set()
    for face in grid.faces():
        env = dict(zip(names, p_box.product(face.box).intervals))
        if not _zero_face(eqs, env, prec):
            continue
        if face.on_boundary:
            doomed.update(face.incident_cells)
        else:
            parent[find(face.lower_cell)] = find(face.upper_cell)
    doomed_roots = {find(i) for i in doomed}
    groups = {}
    for idx, _ in grid.cells():
        groups.setdefault(find(idx), []).append(idx)
    keep = set(plausible)
    return [cells for root, cells in sorted(groups.items())
            if root not in doomed_roots and keep.intersection(cells)]


def existential_blocks(f, pnames=(), p_box=EMPTY_BOX):
    """(block, parameter names, parameter box) for each existential
    block, with a universal variable ranging over its whole bound."""
    if isinstance(f, Exists):
        yield f, pnames, p_box
    elif isinstance(f, ForAll):
        yield from existential_blocks(f.body, pnames + (f.var,),
                                      p_box.product(box(f.bound)))
    elif isinstance(f, (And, Or)):
        yield from existential_blocks(f.left, pnames, p_box)
        yield from existential_blocks(f.right, pnames, p_box)


def polynomial_blocks():
    out = []
    for name, text, _, _ in corpus_entries():
        for i, blk in enumerate(existential_blocks(parse(text))):
            eqs, ineqs = block_parts(blk[0])
            if all(T.is_polynomial(t) for t in eqs + ineqs):
                out.append(pytest.param(blk, id=f"{name}-{i}"))
    out += [pytest.param((parse(text), (), EMPTY_BOX), id=name)
            for name, text in EXTRA_BLOCKS.items()]
    return out


@pytest.mark.parametrize("block", polynomial_blocks())
def test_pruning_matches_full_sweep(block):
    s, pnames, p_box = block
    eqs, ineqs = block_parts(s)
    names = pnames + s.vars
    finest = {1: 7, 2: 4, 3: 3}[len(s.vars)]  # 2^-k widths per dimension
    for k in range(finest + 1):
        r = Fraction(1, 2 ** k)
        grid, prec, ctx = grid_cover(s.bounds, r), prec_for(r), _Context()
        plausible, _ = _plausible_cells(eqs, ineqs, names, p_box, grid, prec, ctx)
        assert plausible == sweep_plausible(eqs, ineqs, names, p_box, grid, prec)
        if len(eqs) == len(s.vars):
            got = _candidate_complexes(eqs, names, p_box, grid, prec,
                                       plausible, ctx)
            assert got == sweep_complexes(eqs, names, p_box, grid, prec,
                                          plausible)


# ---------------------------------------------------------------------------
# FALSE certificates are margins

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


def false_sentences():
    texts = [pytest.param(text, id=name)
             for name, text, label, _ in corpus_entries() if label == "FALSE"]
    return texts + [pytest.param(t, id=f"multi_cell_{i}")
                    for i, t in enumerate(MULTI_CELL_FALSE)]


@pytest.mark.parametrize("text", false_sentences())
def test_false_certificate_is_a_separation_margin(text):
    f = parse(text)
    v = quasi_decide(f, budget=20)
    assert v.outcome == "FALSE" and v.certificate > 0
    _, atoms = shift_atom(f, -1, 0)
    for k in range(atoms):
        for sign in (1, -1):
            g, _ = shift_atom(f, k, sign * v.certificate * Fraction(99, 100))
            assert quasi_decide(g, budget=12).outcome != "TRUE", (k, sign)


def test_multi_cell_false_blocks_need_several_cells():
    for text in MULTI_CELL_FALSE:
        v = quasi_decide(parse(text), budget=20)
        assert v.outcome == "FALSE" and v.trace[-1].cells_evaluated > 1
