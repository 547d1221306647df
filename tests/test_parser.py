"""Sentence parser: structure, normalization, scoping, domain guards."""
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quasisat import terms as T
from quasisat.formulas import (And, Eq, Exists, ForAll, Geq, Or,
                               formula_text, free_vars, same_structure)
from quasisat.intervals import DomainError, ival
from quasisat.parser import _MAX_HEIGHT, _TOKEN_RE, ParseError, _opens_formula, parse

from conftest import CORPUS_DIR
from oracles import check_domains, exact_eval, formula_groups
from test_identity import ROOT, _workloads

X = T.Var("x")


def c(v) -> T.Const:
    return T.Const(Fraction(v))


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
    assert f.bounds[0] == (0, 3, 4)
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


@pytest.mark.parametrize("text, message", [
    # faults inside a parenthesized block are reported where they are
    ("(exists x [0,1] . x = 0) or (exists y in [0,1] . y = 1)",
     "1:11: expected 'in'"),
    ("(exists x in [0,1] . x + = 0) and 1 >= 0", "1:26: expected a term"),
    ("exists x in [0,1] .\n  x + y = 0", "2:7: unbound variable 'y'"),
    # a character that starts no token is reported first, wherever it is
    ("exists x in [0,1/0] . x \u00e9 = 0", "1:25: unexpected character '\u00e9'"),
    ("exists x in [0,1/0] . x = 0", "1:18: zero denominator"),
    # bounds: an empty interval shows its rationals reduced
    ("exists x in [1/2,1/4] . x = 0", "1:8: empty interval [1/2,1/4] for 'x'"),
    ("exists x in [3,-4] . x = 0", "1:8: empty interval [3,-4] for 'x'"),
    ("exists x in [0.75,0.50] . x = 0", "1:8: empty interval [3/4,1/2] for 'x'"),
    ("exists x in [--3,2] . x = 0", "1:8: empty interval [3,2] for 'x'"),
    ("exists x in [0.5/0.25,1] . x = 0", "1:8: empty interval [2,1] for 'x'"),
    ("exists x in [a,1] . x = 0", "1:14: expected a number"),
    ("exists x in [1/-2,1] . x = 0", "1:16: expected a denominator"),
    ("exists x in [0,1/0.0] . x = 0", "1:18: zero denominator"),
    ("exists in in [0,1] . 1 = 0", "1:8: expected a variable name"),
    ("exists x in [0,1] . exists x in [0,1] . x = 0", "1:28: variable 'x' is already bound"),
    ("exists x in [0,1] . x", "1:22: expected '=', '>=' or '<='"),
    ("exists x in [0,1] . sin x = 0", "1:25: expected '('"),
    ("exists x in [0,1] . x + in = 0", "1:25: unexpected keyword 'in'"),
    ("exists x in [0,1] . x^y = 0", "1:23: expected a natural-number exponent"),
    ("exists x in [0,1] . (x + 1 = 0", "1:31: expected ')'"),
])
def test_error_messages_name_the_fault(text, message):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert str(e.value) == message


@pytest.mark.parametrize("term", ["+".join(["x"] * 1200),
                                  "(" * 1200 + "x" + ")" * 1200],
                         ids=["sum_1200", "parens_1200"])
def test_deep_terms_are_parse_errors(term):
    with pytest.raises(ParseError, match="term nested too deeply"):
        parse(f"exists x in [0,2] . {term} - 1 = 0")


def _under(frames: int, fn):
    """fn() called under `frames` extra frames of the caller's own."""
    return fn() if frames == 0 else _under(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("atom", ["{} - 1 = 0", "0 <= x+{}"], ids=["sub", "leq_zero"])
def test_the_height_bound_does_not_depend_on_the_stack(frames, atom):
    """A sum of height `_MAX_HEIGHT` parses and one level more does not,
    at top level and under 300 extra frames alike.  `0 <= t` reads as
    t >= 0, of t's height."""
    def sentence(height):  # height - 1 additions, then one more operation
        return "exists x in [0,2] . " + atom.format("+".join(["x"] * height))

    f = _under(frames, lambda: parse(sentence(_MAX_HEIGHT)))
    assert isinstance(f.body.term, (T.Sub, T.Add))
    with pytest.raises(ParseError, match="term nested too deeply") as e:
        _under(frames, lambda: parse(sentence(_MAX_HEIGHT + 1)))
    assert (e.value.line, e.value.col) == (1, len(sentence(_MAX_HEIGHT + 1)) + 1)


@pytest.mark.parametrize("frames", [0, 300])
def test_a_long_minus_chain_is_counted_not_recursed(frames):
    """1,200 minus signs before a variable are a term 1,200 high, reported
    at the end of the text like any term too high; before a literal they
    fold into one constant."""
    text = "exists x in [0,2] . " + "-" * 1200 + "x - 1 = 0"
    with pytest.raises(ParseError, match="term nested too deeply") as e:
        _under(frames, lambda: parse(text))
    assert (e.value.line, e.value.col) == (1, len(text) + 1)
    f = _under(frames, lambda: parse("exists x in [0,2] . " + "-" * 1200 + "3/4 - x = 0"))
    assert f.body.term == T.Sub(c(Fraction(3, 4)), X)
    f = _under(frames, lambda: parse("exists x in [0,2] . " + "-" * 1201 + "3/4 - x = 0"))
    assert f.body.term == T.Sub(c(Fraction(-3, 4)), X)


DEEP_SIN = "exists x in [0,1] . " + "sin(" * 850 + "x" + ")" * 850 + " - 2 = 0"


@pytest.mark.parametrize("frames", [0, 300, 800])
def test_an_850_deep_call_parses_and_reprints_under_any_caller(frames):
    """A term's calls and parentheses are read on an explicit stack, so
    the 850-deep `sin` sentence parses, and its text reparses to it,
    under 800 extra frames as at top level."""
    f = _under(frames, lambda: parse(DEEP_SIN))
    term = f.body.term.left
    for _ in range(850):
        assert isinstance(term, T.Sin)
        term = term.arg
    assert term == X
    assert _under(frames, lambda: parse(formula_text(f))) == f


@pytest.mark.parametrize("frames", [0, 300])
def test_the_nesting_bound_is_the_height_bound(frames):
    """`_MAX_HEIGHT` parentheses around x parse to x, and one more is a
    term nested too deeply, reported at the end of the text, at top
    level and under 300 extra frames alike."""
    def sentence(depth):
        return "exists x in [0,2] . " + "(" * depth + "x" + ")" * depth + " - 1 = 0"

    f = _under(frames, lambda: parse(sentence(_MAX_HEIGHT)))
    assert f.body.term == T.Sub(X, c(1))
    with pytest.raises(ParseError, match="term nested too deeply") as e:
        _under(frames, lambda: parse(sentence(_MAX_HEIGHT + 1)))
    assert (e.value.line, e.value.col) == (1, len(sentence(_MAX_HEIGHT + 1)) + 1)


DEEP_FORMULAS = {
    "parens_2000": "exists x in [0,1] . " + "(" * 2000 + "x = 0" + ")" * 2000,
    "forall_1000": "".join(f"forall x{i} in [0,1] . " for i in range(1000)) + "x0 = 0",
}


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("text", DEEP_FORMULAS.values(), ids=DEEP_FORMULAS.keys())
def test_deep_formulas_are_parse_errors(frames, text):
    """The formula rules recurse, so formula parentheses or quantifiers
    nested past the recursion limit are a formula, not a term, nested
    too deeply, at top level and under 300 extra frames alike."""
    with pytest.raises(ParseError) as e:
        _under(frames, lambda: parse(text))
    assert str(e.value).endswith(": formula nested too deeply")


def _decisions(toks: list[str]) -> list[tuple[int, bool, bool]]:
    """(index, `_opens_formula`, the whole-list scan) for every '(' of
    toks, which ends in the parser's end-of-input token ''."""
    reference = formula_groups(toks)
    return [(k, _opens_formula(toks, k), k in reference)
            for k, tok in enumerate(toks) if tok == "("]


def test_each_parenthesis_is_decided_as_the_whole_text_scan_decides():
    """On every '(' of the corpus and the seed-1 workload texts, the
    forward pass's decision from the group alone is the reference's."""
    texts = [sent.read_text() for sent in sorted(CORPUS_DIR.glob("*.sent"))]
    for build in _workloads().WORKLOADS.values():
        for item in build(ROOT, 1):
            texts += [item.text, item.perturbed] if item.perturbed else [item.text]
    decided = 0
    for text in texts:
        for k, got, want in _decisions(_TOKEN_RE.findall(text) + [""]):
            assert got == want, (text, k)
            decided += got
    assert decided


@given(st.lists(st.sampled_from(["(", ")", "=", "exists", "x", "+", "and"]), max_size=30))
@settings(max_examples=300, deadline=None)
def test_parenthesis_decisions_agree_on_drawn_token_lists(toks):
    """The same agreement on any token list, balanced or not."""
    for k, got, want in _decisions(toks + [""]):
        assert got == want, k


def test_cached_leaves_are_shared_but_scoped_and_frozen():
    """Parses share their literal and variable leaves: two parses of one
    text are equal and hash alike, a name parsed before is still unbound
    without a binder, and a shared leaf refuses assignment."""
    text = "exists x in [0,2], y in [1,2] . -3/4*x + sin(y) - 0.5/y + 7 = 0"
    f, g = parse(text), parse(text)
    assert f == g and hash(f) == hash(g)
    with pytest.raises(ParseError, match="1:21: unbound variable 'y'"):
        parse("exists x in [0,2] . y - x = 0")
    seven, x = f.body.term.right, f.body.term.left.left.left.right
    assert (seven, x) == (c(7), X) and seven is g.body.term.right
    for leaf, field in [(seven, "value"), (x, "name")]:
        with pytest.raises(AttributeError):
            setattr(leaf, field, None)


def test_cached_literals_and_quotients_are_found_by_their_tokens():
    """Signed literals and quotients of two literals, in bounds and in
    terms, are cached by their tokens, so a parse that finds them all
    cached hashes and compares no term and negates no `Fraction`."""
    text = "exists x in [-1/2,3/4] . x - 1/3 + -2/5*x + 0.5/2 - -7 = 0"
    first = parse(text)
    calls = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and calls.add(frame.f_code.co_name))
    try:
        again = parse(text)
    finally:
        sys.setprofile(None)
    assert again == first
    assert not calls & {"__hash__", "__eq__", "__neg__"}, calls


@pytest.mark.parametrize("text, body", [
    ("(x+1)*x = 0", Eq(T.Mul(T.Add(X, c(1)), X))),
    ("(x) = 0", Eq(X)),
    ("((x = 0))", Eq(X)),
    ("((x - 2) - 7/8)^2 = 0", Eq(T.Pow(T.Sub(T.Sub(X, c(2)), c(Fraction(7, 8))), 2))),
    ("(x = 0) and (x + 1)*x >= 0", And(Eq(X), Geq(T.Mul(T.Add(X, c(1)), X)))),
])
def test_parenthesis_opens_a_formula_only_around_a_relation(text, body):
    assert parse(f"exists x in [0,1] . {text}").body == body


def test_parenthesized_forall_block():
    f = parse("(forall x in [0,1] . (exists y in [-2,2] . y - x = 0)) and 1 >= 0")
    assert isinstance(f, And) and isinstance(f.left, ForAll)
    assert f.left.body == parse("exists y in [-2,2] . y - x = 0",
                                params={"x": ival(0, 1)})


@pytest.mark.parametrize("text, term", [
    ("x - 3/64", T.Sub(X, c(Fraction(3, 64)))),
    ("-3/4*x", T.Mul(c(Fraction(-3, 4)), X)),
    ("(-3)^2", T.Pow(c(-3), 2)),
    ("-3^2", T.Neg(T.Pow(c(3), 2))),
    ("x - (-3)", T.Sub(X, c(-3))),
    ("x - -0.5", T.Sub(X, c(Fraction(-1, 2)))),
    ("1/2/4 + x", T.Add(c(Fraction(1, 8)), X)),
    ("2*3/4 + x", T.Add(T.Div(T.Mul(c(2), c(3)), c(4)), X)),
])
def test_literals_fold_into_one_constant(text, term):
    f = parse(f"exists x in [0,1] . {text} = 0")
    assert f.body.term == term
    assert parse(formula_text(f)) == f


@pytest.mark.parametrize("term", ["x/0", "1/0", "x/(1-1)"])
def test_zero_denominators_are_domain_errors(term):
    with pytest.raises(DomainError, match="may vanish"):
        parse(f"exists x in [1,2] . {term} = 0")


DEEP_AFTER_A_FAULT = "exists x in [-1,1] . 1/x = 0 and " + "+".join(["x"] * 1000) + " = 0"


@pytest.mark.parametrize("text, error", [
    # a syntax error after a domain fault comes first
    ("exists x in [-1,1] . 1/x = 0 and", "ParseError: 1:33: expected a term"),
    ("exists x in [-1,1] . 1/x = 0 )", "ParseError: 1:30: unexpected trailing input ')'"),
    # so does a term nested too deeply, reported at the end of the text
    (DEEP_AFTER_A_FAULT,
     f"ParseError: 1:{len(DEEP_AFTER_A_FAULT) + 1}: term nested too deeply"),
    # of two domain faults, the first in reading order; in `a <= b` that
    # is a's, though the atom is b - a >= 0
    ("exists x in [-1,1] . 1/x + sqrt(x) = 0",
     "DomainError: denominator x may vanish on the quantification box"),
    ("exists x in [-1,1] . sqrt(x) + 1/x = 0",
     "DomainError: sqrt argument x may be negative on the quantification box"),
    ("exists x in [-1,1] . 1/x <= sqrt(x)",
     "DomainError: denominator x may vanish on the quantification box"),
    ("exists x in [-1,1] . 1/(1/x) = 0",
     "DomainError: denominator x may vanish on the quantification box"),
], ids=["syntax", "trailing", "too_deep", "div_sqrt", "sqrt_div", "leq", "nested_div"])
def test_the_first_fault_is_reported(text, error):
    with pytest.raises((ParseError, DomainError)) as e:
        parse(text)
    assert f"{type(e.value).__name__}: {e.value}" == error


def test_a_name_repeated_in_one_block_is_checked_on_its_last_box():
    """The parser leaves a repeated name in one block to the formula
    classes and the solver; the domain check sees its last box."""
    f = parse("forall x in [-1,1], x in [1,2] . 1/x >= 0")
    assert f.body.bound == ival(1, 2)
    with pytest.raises(DomainError, match="denominator x may vanish"):
        parse("forall x in [1,2], x in [-1,1] . 1/x >= 0")
    with pytest.raises(ValueError, match="duplicate variable in one exists block"):
        parse("exists x in [0,1], x in [-1,2] . 1/x = 0")


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


_BLOCK = "(exists x in [0,1] . x - 1/2 = 0)"


@pytest.mark.parametrize("text", [
    f"{_BLOCK} or {_BLOCK} or {_BLOCK}",
    f"{_BLOCK} or ({_BLOCK} or {_BLOCK})",
    f"{_BLOCK} and {_BLOCK} or {_BLOCK} and {_BLOCK}",
    f"({_BLOCK} or {_BLOCK}) and {_BLOCK} and ({_BLOCK} or {_BLOCK})",
    "exists x in [0,1] . x = 0 and x >= 0 or x - 1 = 0 and (x >= 0 and x >= 0)",
], ids=["or_chain", "right_nested_or", "and_under_or", "or_under_and", "atoms"])
def test_formula_text_prints_a_chain_flat_and_a_right_nested_side_in_parentheses(text):
    assert formula_text(parse(text)) == text


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("word", [" or ", " and "])
def test_formula_text_prints_a_long_chain_without_recursion(frames, word):
    """A 1,500-block chain, which `parse` and `quasi_decide` accept, prints
    as itself at top level and under 300 extra frames."""
    text = word.join([_BLOCK] * 1500)
    f = parse(text)
    assert _under(frames, lambda: formula_text(f)) == text


def test_equal_rational_bounds_parse_to_equal_formulas():
    """A bound is the canonical `Ival` of its rationals, however they are
    written."""
    a = parse("exists x in [2/4,1] . x >= 0")
    b = parse("exists x in [1/2,1.0] . x >= 0")
    assert a == b and same_structure(a, b)
    assert a.bounds == ((1, 2, 2),)
    assert parse("forall x in [-0.5,6/6] . x <= 1").bound == ival(Fraction(-1, 2), 1)


def _bound(text: str) -> Fraction:
    """A bound literal read with `Fraction`: leading minus signs, then a
    number over an optional number."""
    sign = (-1) ** (len(text) - len(text.lstrip("-")))
    num, _, den = text.lstrip("-").partition("/")
    return sign * Fraction(num) / Fraction(den or 1)


@pytest.mark.parametrize("lo, hi", [
    ("0", "3"), ("-2", "7"), ("1/2", "3/4"), ("-7/3", "2/9"), ("6/4", "6/4"),
    ("0.50", "1.25"), ("-0.5", "0.50"), ("--3", "4"), ("---1/6", "0"),
    ("-0.5/3", "2/0.5"), ("12/18", "100/3"), ("-0", "0.0"),
])
def test_bounds_are_the_ival_of_their_rationals(lo, hi):
    """Integer, fraction, decimal and repeated-minus literals give the
    `Ival` that `ival` builds from their `Fraction` values."""
    f = parse(f"exists x in [{lo},{hi}] . x >= 0")
    assert f.bounds == (ival(_bound(lo), _bound(hi)),)


@pytest.mark.parametrize("text", [
    "exists x in [-7/3,-2/9] . x + 1 >= 0",
    "exists x in [1/3,5/7], y in [-10/7,0.35] . x - y = 0 and x + y - 1/2 = 0",
    "forall x in [-1/3,5/7] . exists y in [-2,-1/6] . y + x*x + 1/5 = 0",
    "exists x in [-3/11,-3/11] . 11*x + 3 = 0",
])
def test_non_dyadic_and_negative_bounds_roundtrip(text):
    f = parse(text)
    assert parse(formula_text(f)) == f


def test_formula_text_reparses_every_corpus_and_benchmark_text():
    texts = [sent.read_text() for sent in sorted(CORPUS_DIR.glob("*.sent"))]
    for build in _workloads().WORKLOADS.values():
        for item in build(ROOT, 1):
            texts += [item.text, item.perturbed] if item.perturbed else [item.text]
    for text in texts:
        f = parse(text)
        assert parse(formula_text(f)) == f, text


def test_parameterized_parse_with_free_variables():
    f = parse("exists y in [-2,2] . y - x = 0", params={"x": ival(0, 1)})
    assert free_vars(f) == {"x"}


# ---------------------------------------------------------------------------
# the domain check against the reference walk of tests/oracles.py

NEAR_ZERO = st.sampled_from([Fraction(0), Fraction(1, 1000), Fraction(-1, 1000),
                             Fraction(1, 100000), Fraction(-1, 100000), Fraction(1, 2)])
ENDS = st.sampled_from([Fraction(-3, 2), -1, Fraction(-1, 3), 0, Fraction(1, 1000),
                        Fraction(1, 4), Fraction(1, 2), 1, Fraction(7, 4)])


def _div(a: T.Term, b: T.Term) -> T.Term:
    # the parser folds a constant over a nonzero constant
    if type(a) is T.Const and type(b) is T.Const and b.value:
        return T.Const(a.value / b.value)
    return T.Div(a, b)


def _neg(a: T.Term) -> T.Term:
    return T.Const(-a.value) if type(a) is T.Const else T.Neg(a)  # folded too


def _terms(names):
    """Terms in the form `parse` builds, with operands that approach zero
    on the box, such as x - c and sin(x) + c for small c."""
    v = st.sampled_from([T.Var(n) for n in names])
    leaves = st.one_of(
        v, st.just(T.Pi()), st.builds(T.Exp, v),  # exp of a leaf only: a huge argument is slow
        st.fractions(min_value=-3, max_value=3, max_denominator=4).map(T.Const),
        st.builds(T.Sub, v, st.builds(T.Const, NEAR_ZERO)),
        st.builds(lambda x, k: T.Add(T.Sin(x), T.Const(k)), v, NEAR_ZERO))
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(T.Add, sub, sub), st.builds(T.Sub, sub, sub),
        st.builds(T.Mul, sub, sub), st.builds(_div, sub, sub), st.builds(_neg, sub),
        st.builds(T.Pow, sub, st.integers(min_value=0, max_value=3)),
        st.builds(T.Sqrt, sub), st.builds(T.Sin, sub), st.builds(T.Cos, sub)),
        max_leaves=8)


TERMS = {names: _terms(names) for names in [("x",), ("a", "x")]}


@st.composite
def _sentences(draw):
    """(text, params, the formula it reads as, the same with the atom's
    sides in reading order)."""
    names = draw(st.sampled_from(sorted(TERMS)))
    ends = [sorted((draw(ENDS), draw(ENDS))) for _ in names]
    lhs, rhs = draw(TERMS[names]), draw(TERMS[names])
    kw, rel = draw(st.sampled_from(["exists", "forall"])), draw(st.sampled_from(["=", ">=", "<="]))
    text = f"{kw} x in [{ends[-1][0]},{ends[-1][1]}] . {T.term_text(lhs)} {rel} {T.term_text(rhs)}"
    a, b = (rhs, lhs) if rel == "<=" else (lhs, rhs)
    atom = (Eq if rel == "=" else Geq)(a if b == T.Const(Fraction(0)) else T.Sub(a, b))
    iv = ival(*ends[-1])

    def block(body):
        return Exists(("x",), (iv,), body) if kw == "exists" else ForAll("x", iv, body)

    params = {"a": ival(*ends[0])} if len(names) == 2 else {}
    return text, params, block(atom), block(Eq(T.Sub(lhs, rhs)))


@given(_sentences())
@settings(max_examples=300, deadline=None)
def test_parse_accepts_exactly_what_the_reference_walk_accepts(drawn):
    """`parse` returns the formula when the reference walk accepts it,
    and otherwise raises the reference's DomainError: its first fault
    with the atom's sides in reading order."""
    text, params, f, in_order = drawn
    try:
        check_domains(in_order, dict(params))
    except DomainError as e:
        with pytest.raises(DomainError) as got:
            parse(text, params=params)
        assert str(got.value) == str(e)
    else:
        assert parse(text, params=params) == f
