"""Three-valued checks and the epsilon-halving driver."""
import itertools
from fractions import Fraction

import pytest

from quasisat.geometry import grid_cover
from quasisat.intervals import EMPTY_BOX, box, ival
from quasisat.parser import parse
from quasisat.solver import (TRI_F, TRI_T, TRI_TF, checksat, prec_for,
                             quasi_decide, tri_and, tri_or)

TRIS = (TRI_T, TRI_F, TRI_TF)


def test_tri_lattice_tables():
    assert tri_and(TRI_T, TRI_T) == TRI_T
    assert tri_and(TRI_T, TRI_TF) == TRI_TF
    assert tri_and(TRI_F, TRI_TF) == TRI_F  # false absorbs uncertainty
    assert tri_or(TRI_F, TRI_F) == TRI_F
    assert tri_or(TRI_T, TRI_TF) == TRI_T  # true absorbs uncertainty
    assert tri_or(TRI_F, TRI_TF) == TRI_TF


def test_tri_ops_are_exhaustively_lattice_like():
    for a, b, c in itertools.product(TRIS, repeat=3):
        for op in (tri_and, tri_or):
            assert op(a, b) == op(b, a)
            assert op(op(a, b), c) == op(a, op(b, c))
            assert op(a, a) == a
    for a, b in itertools.product(TRIS, repeat=2):
        # distribution of and over or holds on this 3-element domain
        for x in (tri_and(a, tri_or(b, TRI_TF)),):
            assert x == tri_or(tri_and(a, b), tri_and(a, TRI_TF))


def test_prec_for_slack_is_at_most_an_eighth():
    for r in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 100)):
        p = prec_for(r)
        assert p.slack <= r / 8
        assert Fraction(2) ** (p.p - 1) < Fraction(8) / r  # smallest such p


def test_checksat_singletons_and_indecision():
    t = parse("exists x in [0,1] . x - 1/2 = 0")
    assert checksat(t, EMPTY_BOX, Fraction(1, 4)) == TRI_T
    f = parse("exists x in [0,1] . x - 2 = 0")
    assert checksat(f, EMPTY_BOX, Fraction(1)) == TRI_F
    n = parse("exists x in [1,2] . sin(x) = 1")
    assert checksat(n, EMPTY_BOX, Fraction(1, 8)) == TRI_TF


def test_checksat_with_parameters():
    body = parse("exists y in [-2,2] . y - x = 0", params={"x": ival(0, 1)})
    assert checksat(body, box(ival(0, 1)), Fraction(1, 4), ("x",)) == TRI_T
    far = parse("exists y in [0,1] . y - x = 0", params={"x": ival(2, 3)})
    assert checksat(far, box(ival(2, 3)), Fraction(1, 2), ("x",)) == TRI_F


def test_checksat_rejects_bad_input():
    with pytest.raises(ValueError):
        checksat(parse("1 >= 0"), EMPTY_BOX, Fraction(0))
    out_of_class = parse("exists x in [0,1], y in [0,1] . x - y = 0")
    with pytest.raises(ValueError):
        checksat(out_of_class, EMPTY_BOX, Fraction(1))


def test_driver_true_verdict_with_certificate():
    v = quasi_decide(parse("exists x in [-1,1] . sin(x) = 0"), budget=6)
    assert v.outcome == "TRUE"
    assert v.certificate is not None and v.certificate > 0
    assert v.iterations <= 6
    assert len(v.trace) == v.iterations
    assert v.trace[-1].result == TRI_T


def test_driver_false_verdict_first_iteration():
    v = quasi_decide(parse("exists x in [0,1] . x - 2 = 0"))
    assert v.outcome == "FALSE"
    assert v.iterations == 1
    assert v.certificate == 1  # separation: |x - 2| >= 1 on [0,1]


def test_driver_unknown_on_budget_exhaustion():
    v = quasi_decide(parse("exists x in [0,2] . x - 1 = 0 and x - 1 = 0"),
                     budget=3)
    assert v.outcome == "UNKNOWN"
    assert v.iterations == 3
    assert all(r.result == TRI_TF for r in v.trace)


def test_driver_epsilon_halves_each_iteration():
    v = quasi_decide(parse("exists x in [0,2] . x - 1 = 0 and x - 1 = 0"),
                     budget=4)
    assert [r.eps for r in v.trace] == \
        [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_trace_prefix_property_across_budgets():
    """A lower budget replays a prefix of the higher-budget trace."""
    s = "exists x in [1,2] . sin(x) = 1"
    short = quasi_decide(parse(s), budget=2)
    long = quasi_decide(parse(s), budget=4)
    assert [r.result for r in short.trace] == \
        [r.result for r in long.trace[:2]]


def test_ground_atom_verdicts():
    assert quasi_decide(parse("1 >= 0")).outcome == "TRUE"
    assert quasi_decide(parse("1 = 0")).outcome == "FALSE"
    # 0 = 0 is true but not robustly so: perturbing it makes it false
    assert quasi_decide(parse("0 = 0"), budget=5).outcome == "UNKNOWN"


def test_connectives_end_to_end():
    t = ("(exists x in [0,1] . x - 2 = 0) or "
         "(exists y in [-1,1] . sin(y) = 0)")
    assert quasi_decide(parse(t), budget=6).outcome == "TRUE"
    f = ("(exists x in [0,1] . x - 2 = 0) and "
         "(exists y in [-1,1] . sin(y) = 0)")
    assert quasi_decide(parse(f), budget=6).outcome == "FALSE"


def test_universal_quantifier_end_to_end():
    t = parse("forall x in [0,1] . exists y in [-2,2] . y - x = 0")
    v = quasi_decide(t, budget=8)
    assert v.outcome == "TRUE"
    f = parse("forall x in [0,1] . exists y in [0,1] . y - x + 2 = 0")
    assert quasi_decide(f, budget=6).outcome == "FALSE"


def test_inequality_only_blocks():
    t = parse("exists x in [0,1] . x >= 1/4 and 1/2 - x >= 0")
    assert quasi_decide(t, budget=6).outcome == "TRUE"
    f = parse("exists x in [0,1] . x - 2 >= 0")
    assert quasi_decide(f, budget=6).outcome == "FALSE"


def test_equation_with_side_constraint():
    t = parse("exists x in [0,2] . sin(x) = 1/2 and x - 1/4 >= 0")
    assert quasi_decide(t, budget=8).outcome == "TRUE"
    f = parse("exists x in [0,1] . x - 1/2 = 0 and x - 1 >= 0")
    assert quasi_decide(f, budget=8).outcome == "FALSE"


def test_two_dimensional_system():
    t = parse("exists x in [-2,2], y in [-2,2] . "
              "x^2 + y^2 - 1 = 0 and x - y = 0")
    v = quasi_decide(t, budget=8)
    assert v.outcome == "TRUE"


def test_driver_rejects_free_variables_and_bad_budget():
    with pytest.raises(ValueError):
        quasi_decide(parse("exists y in [0,1] . y - x = 0",
                           params={"x": ival(0, 1)}))
    with pytest.raises(ValueError):
        quasi_decide(parse("1 >= 0"), budget=0)
    with pytest.raises(ValueError):
        quasi_decide(parse("1 >= 0"), eps=Fraction(-1))


def test_true_verdict_certificate_is_a_robustness_margin():
    """Perturbing every atom by less than the certificate keeps the
    sentence true."""
    v = quasi_decide(parse("exists x in [0,1] . x - 1/2 = 0"), budget=6)
    assert v.outcome == "TRUE" and v.certificate > 0
    shift = min(v.certificate / 2, Fraction(1, 4))
    from quasisat.intervals import rat_str
    for sgn in ("+", "-"):
        s = parse(f"exists x in [0,1] . x - 1/2 {sgn} {rat_str(shift)} = 0")
        assert quasi_decide(s, budget=8).outcome == "TRUE"


def test_3d_system_whose_reduced_cycle_cancels_is_true():
    """Regression: the degree's boundary reduction can reach an empty
    cycle on two nearly parallel planes; the exact solution
    (15/16, 17/16, 11/16) lies inside the box."""
    s = parse("exists x in [1/2,3/2], y in [3/4,7/4], z in [0,1] . "
              "x + y + z - 43/16 = 0 and x - y + 1/8 = 0 and "
              "x - y + 1/4*z - 3/64 = 0")
    v = quasi_decide(s, budget=12)
    assert v.outcome == "TRUE" and v.certificate > 0


def test_pruning_evaluates_few_cells_of_a_fine_grid():
    """At iteration 16 the grid of sin(x) = 1 on [1,2] has 32768 cells;
    the top-down refutation visits only blocks around pi/2."""
    s = parse("exists x in [1,2] . sin(x) = 1")
    v = quasi_decide(s, budget=16)
    rec = v.trace[15]
    assert grid_cover(s.bounds, rec.eps).n_cells == 32768
    assert 0 < rec.cells_evaluated < 512
    assert 0 < rec.faces_evaluated < 512
