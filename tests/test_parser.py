"""Sentence parser: structure, normalization, scoping, domain guards."""
from fractions import Fraction

import pytest

from quasisat import terms as T
from quasisat.formulas import (And, Eq, Exists, ForAll, Geq, Or,
                               formula_text, free_vars)
from quasisat.intervals import ival
from quasisat.parser import ParseError, parse

from oracles import exact_eval


def test_single_block_shapes():
    f = parse("exists x in [0,1] . x - 1/2 = 0")
    assert isinstance(f, Exists)
    assert f.vars == ("x",)
    assert f.bounds[0] == ival(0, 1)
    assert isinstance(f.body, Eq)


def test_equation_normalizes_to_difference():
    f = parse("exists x in [0,1] . x = 1/2")
    g = parse("exists x in [0,1] . x - 1/2 = 0")
    assert f == g


def test_inequality_directions_normalize_to_geq():
    f = parse("exists x in [0,1] . x >= 1/2")
    assert isinstance(f.body, Geq)
    g = parse("exists x in [0,1] . 1/2 <= x")
    assert f == g
    h = parse("exists x in [0,1] . 1/2 - x <= 0")
    assert isinstance(h.body, Geq)  # t <= 0 flips into -t >= 0
    assert exact_eval(h.body.term, {"x": Fraction(3, 4)}) == Fraction(1, 4)


def test_decimal_literals_are_exact():
    f = parse("exists x in [0, 0.75] . x = 0.1")
    assert f.bounds[0].hi == Fraction(3, 4)
    assert f.body.term == T.Sub(T.Var("x"), T.Const(Fraction(1, 10)))


def test_multi_binder_block_and_connectives():
    f = parse("exists x in [0,1], y in [-1,1] . x = y and x*y >= 0")
    assert isinstance(f, Exists) and f.vars == ("x", "y")
    assert isinstance(f.body, And)
    g = parse("(exists x in [0,1] . x = 0) or (exists y in [0,1] . y = 1)")
    assert isinstance(g, Or)


def test_forall_nests_per_variable():
    f = parse("forall x in [0,1], y in [0,1] . "
              "exists z in [-2,2] . z - x*y = 0")
    assert isinstance(f, ForAll) and f.var == "x"
    assert isinstance(f.body, ForAll) and f.body.var == "y"
    assert isinstance(f.body.body, Exists)


def test_function_calls_and_pi():
    f = parse("exists x in [0,4] . sin(pi*x) + exp(x) - sqrt(2) = 0")
    assert "sin" in formula_text(f) and "pi" in formula_text(f)


def test_ground_atoms_parse():
    assert isinstance(parse("1 >= 0"), Geq)
    assert isinstance(parse("1 = 0"), Eq)


def test_unbound_variable_reports_position():
    with pytest.raises(ParseError) as e:
        parse("exists x in [0,1] . x + y = 0")
    assert "y" in str(e.value)
    assert ":" in str(e.value)  # line:col prefix


def test_shadowing_is_rejected():
    with pytest.raises(ParseError):
        parse("forall x in [0,1] . exists x in [0,1] . x = 0")


def test_syntax_error_positions():
    with pytest.raises(ParseError) as e:
        parse("exists x in [0,1] . x +")
    assert str(e.value).startswith("1:")


def test_division_by_possible_zero_is_rejected():
    with pytest.raises(Exception):
        parse("exists x in [-1,1] . 1/x = 0")
    # a denominator bounded away from zero is fine
    parse("exists x in [2,3] . 1/x = 1/2")


def test_sqrt_of_possibly_negative_argument_is_rejected():
    with pytest.raises(Exception):
        parse("exists x in [-1,1] . sqrt(x) = 0")
    parse("exists x in [0,1] . sqrt(x) = 0")


def test_formula_text_roundtrip():
    texts = [
        "exists x in [0,1] . x - 1/2 = 0",
        "exists x in [0,1], y in [-1,1] . x = y and x*y >= 0",
        "forall x in [0,1] . exists y in [-2,2] . y - x = 0",
        "(exists x in [0,1] . x = 0) or (exists y in [0,1] . y = 1)",
        "exists x in [0,4] . sin(pi*x) + exp(x) - sqrt(2) = 0",
    ]
    for text in texts:
        f = parse(text)
        assert parse(formula_text(f)) == f


def test_parameterized_parse_with_free_variables():
    f = parse("exists y in [-2,2] . y - x = 0", params={"x": ival(0, 1)})
    assert free_vars(f) == {"x"}
