"""Topological degree over box complexes, cross-checked against
independent oracles: the exact 1D sign formula and a float winding count."""
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from quasisat import terms as T
from quasisat.degree import DegreeResult, _deg_cycle, degree
from quasisat.evaluation import certify, compile_term
from quasisat.geometry import Grid, oriented_boundary
from quasisat.intervals import ival
from quasisat.parser import parse

import oracles
from oracles import (IndexGrid, block_parts, complex_of, grid_cells, ratboxes, single_box,
                     substitute, tapes, width, winding_oracle_2d)

X, Y = T.Var("x"), T.Var("y")
P20 = 20


def c(v) -> T.Const:
    return T.Const(Fraction(v))


def poly_1d(coeffs) -> T.Term:
    t = c(coeffs[0])
    for k in coeffs[1:]:
        t = T.Add(T.Mul(t, X), c(k))
    return t


def term_of(text: str) -> T.Term:
    return parse(f"exists x in [-9,9], y in [-9,9] . {text} = 0").body.term


def test_identity_map_degree_one_when_origin_interior():
    res = degree(tapes([X], ("x",)), single_box((ival(-1, 1),)), P20)
    assert res.value == 1
    assert res.boundary_min_lb == 1


def test_degree_zero_when_no_root():
    res = degree(tapes([T.Sub(T.Pow(X, 2), c(2))], ("x",)),
                 single_box((ival(0, 1),)), P20)
    assert res.value == 0


def test_planar_identity_degree_one():
    res = degree(tapes([X, Y], ("x", "y")),
                 single_box((ival(-1, 1), ival(-1, 1))), P20)
    assert res.value == 1


def test_planar_origin_exterior_degree_zero():
    res = degree(tapes([X, Y], ("x", "y")),
                 single_box((ival(1, 2), ival(1, 2))), P20)
    assert res.value == 0


def test_complex_squaring_has_degree_two():
    fs = [term_of("x^2 - y^2"), term_of("2*x*y")]
    res = degree(tapes(fs, ("x", "y")), single_box((ival(-1, 1), ival(-1, 1))), P20)
    assert res.value == 2
    assert res.subdivisions > 0
    assert winding_oracle_2d(fs, ("x", "y"),
                             single_box((ival(-1, 1), ival(-1, 1)))) == 2


def test_degree_on_l_shaped_complex():
    g = Grid((ival(-1, 1), ival(-1, 1)), (2, 2))
    ell = complex_of(g, [(0, 0), (1, 0), (0, 1)])
    shifted = [T.Sub(X, c(Fraction(-1, 2))), T.Sub(Y, c(Fraction(-1, 2)))]
    res = degree(tapes(shifted, ("x", "y")), ell, P20)
    assert res.value == 1
    assert winding_oracle_2d(shifted, ("x", "y"), ell) == 1


def test_uncertifiable_boundary_returns_none():
    # x vanishes on the boundary: no budget can certify it away
    res = degree(tapes([X], ("x",)), single_box((ival(0, 1),)), P20, budget=50)
    assert res is None


def test_a_point_that_leaves_the_domain_raises_the_precision():
    """At p = 3 the enclosure of sin(1/1000) holds zero, so 1/sin(x)
    leaves its domain at that boundary point: the sign is sought at a
    higher precision, and each raise counts as a subdivision."""
    f = parse("exists x in [1/1000,1] . 1/sin(x) - 2 = 0").body.term
    res = degree(tapes([f], ("x",)), single_box((ival(Fraction(1, 1000), 1),)), 3)
    assert (res.value, res.subdivisions) == (-1, 2)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        degree(tapes([X, Y], ("x", "y")), single_box((ival(0, 1),)), P20)


def test_cells_of_another_dimension_rejected():
    # one cell of the complex is planar, the map is one-dimensional
    with pytest.raises(ValueError, match="dimension"):
        degree(tapes([X], ("x",)), [((0, 1, 1),), ((1, 2, 1), (0, 1, 1))], P20)


def test_cells_with_mixed_denominators_rejected():
    # [0, 1] and [1, 2] over 2 on one axis: their shared face 1 = 2/2
    # would not cancel as a key
    with pytest.raises(ValueError, match="denominator"):
        degree(tapes([T.Sub(X, c(Fraction(1, 2)))], ("x",)),
               [((0, 1, 1),), ((2, 4, 2),)], P20)


@pytest.mark.parametrize("env", [(), (ival(0, 1), ival(0, 1))])
def test_an_env_that_does_not_fit_the_tapes_is_rejected(env):
    # the tapes take one parameter before the cell's axis
    fs = tapes([T.Sub(X, T.Var("a"))], ("a", "x"))
    with pytest.raises(ValueError, match="intervals for the 2 variables"):
        degree(fs, single_box((ival(-1, 1),)), P20, env)
    assert degree(fs, single_box((ival(-1, 1),)), P20, (ival(0),)).value == 1


def test_precision_below_one_rejected():
    # at p = 0 the point sign test would double p forever
    with pytest.raises(ValueError):
        degree(tapes([X], ("x",)), single_box((ival(-1, 1),)), p=0)


def test_all_degenerate_complex_is_rejected_by_name():
    # the boundary of the point cell cancels to an empty cycle: no bound
    with pytest.raises(ValueError, match="empty boundary"):
        degree(tapes([X], ("x",)), [((0, 0, 1),)], 4)


def test_result_requires_positive_bound():
    with pytest.raises(ValueError):
        DegreeResult(1, Fraction(0), 0)


def test_identity_random_boxes_match_point_membership():
    """Degree of the identity is 1 iff the origin is interior, else 0."""
    rng = random.Random(2)
    done = 0
    while done < 100:
        los = [Fraction(rng.randint(-16, 12), 8) for _ in range(2)]
        his = [lo + Fraction(rng.randint(1, 16), 8) for lo in los]
        if any(lo == 0 or hi == 0 for lo, hi in zip(los, his)):
            continue  # origin on the boundary: degree undefined
        b = (ival(los[0], his[0]), ival(los[1], his[1]))
        interior = all(lo < 0 < hi for lo, hi in zip(los, his))
        res = degree(tapes([X, Y], ("x", "y")), single_box(b), P20)
        assert res is not None
        assert res.value == (1 if interior else 0)
        done += 1


def sign_formula_1d(coeffs, lo: Fraction, hi: Fraction) -> int:
    """Exact oracle: deg(f, (lo,hi), 0) = (sign f(hi) - sign f(lo)) / 2."""
    def ev(x):
        v = Fraction(0)
        for k in coeffs:
            v = v * x + Fraction(k)
        return (v > 0) - (v < 0)
    return (ev(hi) - ev(lo)) // 2


def test_1d_degree_matches_exact_sign_formula():
    rng = random.Random(3)
    done = 0
    while done < 200:
        deg_n = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                  for _ in range(deg_n + 1)]
        if coeffs[0] == 0:
            continue
        lo = Fraction(rng.randint(-24, 8), 8)
        hi = lo + Fraction(rng.randint(1, 24), 8)
        def ev(x):
            v = Fraction(0)
            for k in coeffs:
                v = v * x + k
            return v
        if ev(lo) == 0 or ev(hi) == 0:
            continue
        res = degree(tapes([poly_1d(coeffs)], ("x",)), single_box((ival(lo, hi),)),
                     30, budget=5000)
        if res is None:
            continue  # interior-boundary zeros exhaust any budget honestly
        assert res.value == sign_formula_1d(coeffs, lo, hi)
        done += 1


def random_poly_2d(rng) -> T.Term:
    t = c(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
    for _ in range(rng.randint(1, 4)):
        mono = c(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(0, 3)):
            mono = T.Mul(mono, rng.choice((X, Y)))
        t = T.Add(t, mono)
    return t


def test_2d_degree_matches_winding_oracle():
    rng = random.Random(11)
    b = (ival(-1, 1), ival(-1, 1))
    agree = 0
    while agree < 50:
        fs = [random_poly_2d(rng), random_poly_2d(rng)]
        res = degree(tapes(fs, ("x", "y")), single_box(b), P20, budget=800)
        if res is None:
            continue  # boundary zero or budget exhausted: no claim made
        try:
            oracle = winding_oracle_2d(fs, ("x", "y"), single_box(b), samples=256)
        except ValueError:
            continue  # float samples too close to a zero
        assert res.value == oracle
        agree += 1


def test_degree_is_additive_across_splits():
    rng = random.Random(13)
    done = 0
    while done < 100:
        # a 2x1 complex split into its two cells
        x0 = Fraction(rng.randint(-8, 4), 4)
        y0 = Fraction(rng.randint(-8, 4), 4)
        w = Fraction(rng.randint(1, 8), 4)
        g = Grid((ival(x0, x0 + 2 * w), ival(y0, y0 + w)), (2, 1))
        fs = [random_poly_2d(rng), random_poly_2d(rng)]
        parts = []
        for cells in ([(0, 0), (1, 0)], [(0, 0)], [(1, 0)]):
            parts.append(degree(tapes(fs, ("x", "y")), complex_of(g, cells), P20, budget=600))
        if any(p is None for p in parts):
            continue
        assert parts[0].value == parts[1].value + parts[2].value
        done += 1


def test_degree_stable_under_grid_refinement():
    fs = [term_of("x^2 - y^2"), term_of("2*x*y")]
    b = (ival(-1, 1), ival(-1, 1))
    for n in (1, 2):
        g = Grid(b, (n, n))
        comp = complex_of(g, [idx for idx, _ in grid_cells(g)])
        res = degree(tapes(fs, ("x", "y")), comp, P20)
        assert res is not None and res.value == 2


def test_empty_cycle_has_degree_zero():
    fs = [compile_term(term_of(text), ("x", "y", "z")) for text in ("x", "y", "x - y")]
    assert _deg_cycle(fs, {}, 20, (), 10) == (0, [], 0)


def random_map(rng, names, centre) -> list[T.Term]:
    """Random polynomial components, each led by its own variable shifted
    to vanish near `centre` (so that nonzero degrees and subdivisions
    occur), with small nonlinear terms and now and then a sine."""
    vs = [T.Var(n) for n in names]
    fs = []
    for i in range(len(names)):
        t = T.Mul(c(rng.choice((-2, -1, 1, 2))), T.Sub(vs[i], c(centre[i])))
        for _ in range(rng.randint(0, 2)):
            mono = c(Fraction(rng.randint(-3, 3), rng.randint(4, 12)))
            for _ in range(rng.randint(1, 2)):
                mono = T.Mul(mono, T.Sub(rng.choice(vs), c(centre[i])))
            t = T.Add(t, mono)
        if rng.random() < 0.15:
            t = T.Add(t, T.Mul(c(Fraction(1, 8)), T.Sin(rng.choice(vs))))
        fs.append(t)
    return fs


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=2 ** 32))
@example(3, 11)  # 14 cells, degree 1 after 46 subdivisions
@example(3, 33)  # 13 cells, out of subdivision budget: None
@example(1, 31)  # a boundary point on a zero: its precision runs out, None
@settings(max_examples=120, deadline=None)
def test_degree_equals_the_ratbox_reference(dim, seed):
    """On random 1-D/2-D/3-D multi-cell complexes with non-dyadic bounds,
    the degree on integer cells is the `RatBox` reference's result: the
    same value (or None), boundary bound and subdivision count."""
    rng = random.Random(seed)
    names = ("x", "y", "z")[:dim]
    bounds = []
    for _ in range(dim):
        lo = Fraction(rng.randint(-12, 6), rng.randint(1, 7))
        bounds.append(ival(lo, lo + Fraction(rng.randint(1, 12), rng.randint(1, 7))))
    g = IndexGrid(tuple(bounds), tuple(rng.randint(1, 3) for _ in range(dim)))
    cells = [idx for idx, _ in grid_cells(g) if rng.random() < 0.7] or [(0,) * dim]
    centre = [iv.lo + width(iv) * Fraction(rng.randint(1, 9), 10)
              for iv in oracles.ratbox(bounds)]
    fs = random_map(rng, names, centre)
    comp = complex_of(g, cells)
    got = degree(tapes(fs, names), comp, P20, budget=200)
    assert got == oracles.degree(fs, names, ratboxes(comp), P20, budget=200)


# equations over the parameters a, b and the block variables x (and y)
PARAM_MAPS = [
    ("sin(x) - a/4",),
    ("exp(a)*x - sin(b)",),
    ("x - a/3 - sin(b)/2",),
    ("sin(x*y) - 1/3", "exp(x)*y - 2"),
    ("x - a*cos(y)/3", "y - b/3 + sin(x)/2"),
    ("x^2 - y - a/3", "exp(x - b/4) - y - 1"),
]
ends = st.fractions(min_value=-3, max_value=3, max_denominator=7)
# block boxes mostly around the zeros of the maps, near the origin
los = st.fractions(min_value=-2, max_value=0, max_denominator=7)
widths = st.fractions(min_value=Fraction(1, 7), max_value=3, max_denominator=7)


@given(st.sampled_from(PARAM_MAPS), st.lists(st.tuples(ends, ends), min_size=2, max_size=2),
       st.lists(st.tuples(los, widths), min_size=2, max_size=2),
       st.lists(st.integers(min_value=1, max_value=2), min_size=2, max_size=2),
       st.lists(st.booleans(), min_size=4, max_size=4), st.integers(min_value=4, max_value=12))
@settings(max_examples=40, deadline=None)
def test_degree_on_tapes_at_the_centre_equals_the_substituted_terms(
        eqs, p_ends, block_ends, counts, keep, p):
    """With the parameters as the degenerate intervals of a non-dyadic
    slice's centre, the degree on the block's tapes is the degree of the
    terms with the centre substituted: the same value (or None),
    boundary bound and subdivision count, fresh or seeded with
    certificates that hold on the whole slice."""
    (alo, ahi), (blo, bhi) = [sorted(e) for e in p_ends]
    a, b = ival(alo, ahi), ival(blo, bhi)
    names = ("x", "y")[:len(eqs)]
    bounds = ", ".join(f"{v} in [{lo},{lo + w}]" for v, (lo, w) in zip(names, block_ends))
    block = parse(f"exists {bounds} . " + " and ".join(f"{t} = 0" for t in eqs),
                  params={"a": a, "b": b})
    terms, _ = block_parts(block)
    fs = tapes(terms, ("a", "b") + names)
    f0 = tapes([substitute(t, {"a": (alo + ahi) / 2, "b": (blo + bhi) / 2})
                for t in terms], names)
    g = Grid(block.bounds, tuple(counts[:len(names)]))
    cells = complex_of(g, [idx for (idx, _), k in zip(grid_cells(g), keep) if k]
                       or [(0,) * len(names)])
    p_env = (a, b)
    centre = tuple((lo + hi, lo + hi, 2 * d) for lo, hi, d in p_env)
    certs = {}
    for face in oriented_boundary(cells):
        cert = certify(fs, p_env + face, p)
        if cert is not None:
            certs[face] = cert
    for seeds in ({}, certs):
        got = degree(fs, cells, p, centre, budget=200, certs=seeds)
        assert got == degree(f0, cells, p, budget=200, certs=seeds)
