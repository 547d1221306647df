"""Topological degree over box complexes, cross-checked against
independent oracles: the exact 1D sign formula and a float winding count."""
import random
from fractions import Fraction

import pytest

from quasisat import terms as T
from quasisat.degree import (DegreeResult, _Budget, _deg_cycle, degree,
                             robustness_margin, winding_oracle_2d)
from quasisat.geometry import BoxComplex, Grid
from quasisat.intervals import Precision, box, ival
from quasisat.parser import parse

X, Y = T.Var("x"), T.Var("y")
P20 = Precision(20)


def c(v) -> T.Const:
    return T.Const(Fraction(v))


def poly_1d(coeffs) -> T.Term:
    t = c(coeffs[0])
    for k in coeffs[1:]:
        t = T.Add(T.Mul(t, X), c(k))
    return t


def term_of(text: str) -> T.Term:
    return parse(f"exists x in [-9,9], y in [-9,9] . {text} = 0").body.term


def single(b) -> BoxComplex:
    return BoxComplex((b,))


def test_identity_map_degree_one_when_origin_interior():
    res = degree([X], ("x",), single(box(ival(-1, 1))), P20)
    assert res.value == 1
    assert res.boundary_min_lb == 1
    assert robustness_margin(res) == 1


def test_degree_zero_when_no_root():
    res = degree([T.Sub(T.Pow(X, 2), c(2))], ("x",),
                 single(box(ival(0, 1))), P20)
    assert res.value == 0
    with pytest.raises(ValueError):
        robustness_margin(res)


def test_planar_identity_degree_one():
    res = degree([X, Y], ("x", "y"),
                 single(box(ival(-1, 1), ival(-1, 1))), P20)
    assert res.value == 1


def test_planar_origin_exterior_degree_zero():
    res = degree([X, Y], ("x", "y"),
                 single(box(ival(1, 2), ival(1, 2))), P20)
    assert res.value == 0


def test_complex_squaring_has_degree_two():
    fs = [term_of("x^2 - y^2"), term_of("2*x*y")]
    res = degree(fs, ("x", "y"), single(box(ival(-1, 1), ival(-1, 1))), P20)
    assert res.value == 2
    assert res.subdivisions > 0
    assert winding_oracle_2d(fs, ("x", "y"),
                             single(box(ival(-1, 1), ival(-1, 1)))) == 2


def test_degree_on_l_shaped_complex():
    g = Grid(box(ival(-1, 1), ival(-1, 1)), (2, 2))
    ell = BoxComplex((g.cell((0, 0)), g.cell((1, 0)), g.cell((0, 1))))
    shifted = [T.Sub(X, c(Fraction(-1, 2))), T.Sub(Y, c(Fraction(-1, 2)))]
    res = degree(shifted, ("x", "y"), ell, P20)
    assert res.value == 1
    assert winding_oracle_2d(shifted, ("x", "y"), ell) == 1


def test_uncertifiable_boundary_returns_none():
    # x vanishes on the boundary: no budget can certify it away
    res = degree([X], ("x",), single(box(ival(0, 1))), P20, budget=50)
    assert res is None


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        degree([X, Y], ("x", "y"), single(box(ival(0, 1))), P20)


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
        b = box(ival(los[0], his[0]), ival(los[1], his[1]))
        interior = all(lo < 0 < hi for lo, hi in zip(los, his))
        res = degree([X, Y], ("x", "y"), single(b), P20)
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
        res = degree([poly_1d(coeffs)], ("x",), single(box(ival(lo, hi))),
                     Precision(30), budget=5000)
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
    b = box(ival(-1, 1), ival(-1, 1))
    agree = 0
    while agree < 50:
        fs = [random_poly_2d(rng), random_poly_2d(rng)]
        res = degree(fs, ("x", "y"), single(b), P20, budget=800)
        if res is None:
            continue  # boundary zero or budget exhausted: no claim made
        try:
            oracle = winding_oracle_2d(fs, ("x", "y"), single(b), samples=256)
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
        g = Grid(box(ival(x0, x0 + 2 * w), ival(y0, y0 + w)), (2, 1))
        a1, a2 = g.cell((0,) * 2), g.cell((1, 0))
        whole = BoxComplex((a1, a2))
        fs = [random_poly_2d(rng), random_poly_2d(rng)]
        parts = []
        for comp in (whole, BoxComplex((a1,)), BoxComplex((a2,))):
            parts.append(degree(fs, ("x", "y"), comp, P20, budget=600))
        if any(p is None for p in parts):
            continue
        assert parts[0].value == parts[1].value + parts[2].value
        done += 1


def test_degree_stable_under_grid_refinement():
    fs = [term_of("x^2 - y^2"), term_of("2*x*y")]
    b = box(ival(-1, 1), ival(-1, 1))
    for n in (1, 2):
        g = Grid(b, (n, n))
        comp = BoxComplex(tuple(c for _, c in g.cells()))
        res = degree(fs, ("x", "y"), comp, P20)
        assert res is not None and res.value == 2


def test_empty_cycle_has_degree_zero():
    fs = [term_of("x"), term_of("y"), term_of("x - y")]
    assert _deg_cycle(fs, ("x", "y", "z"), {}, 20, _Budget(10), None) == 0
