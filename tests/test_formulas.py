"""Formula AST: class membership validation, structure comparison, scoping,
structural `==` and `hash`."""
import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from quasisat import terms as T
from quasisat.formulas import (And, Eq, Exists, ForAll, Geq, Or, aligned_terms, free_vars,
                               same_structure)
from quasisat.intervals import ival
from quasisat.parser import parse
from quasisat.record import Record
from quasisat.solver import ClassBReport, validate_class_b

import oracles
from conftest import corpus_entries
from oracles import block_parts
from test_terms import _under

SOLVABLE = [
    "exists x in [-1,1] . sin(x) = 0",
    "exists x in [0,1], y in [-1,1] . x - y = 0 and x + y = 0",
    "exists x in [0,1] . x >= 1/2 and 1 - x >= 0",
    "forall x in [0,1] . exists y in [-2,2] . y - x = 0",
    "(exists x in [0,1] . x = 0) and (exists y in [0,1] . y >= 0)",
    "1 >= 0",
]

UNSOLVABLE = [
    # two variables but only one equation: underdetermined block
    "exists x in [0,1], y in [0,1] . x - y = 0",
    # a disjunction under the existential block
    "exists x in [0,1] . (x = 0 or x = 1)",
]


@pytest.mark.parametrize("text", SOLVABLE)
def test_solvable_fragment_is_accepted(text):
    report = validate_class_b(parse(text))
    assert report.in_class, report.violations


@pytest.mark.parametrize("text", UNSOLVABLE)
def test_unsolvable_shapes_are_reported(text):
    report = validate_class_b(parse(text))
    assert not report.in_class
    assert report.violations


def test_block_shape_counts():
    f = parse("exists x in [0,1], y in [-1,1] . x - y = 0 and x + y = 0"
              " and x >= 0")
    assert validate_class_b(f).in_class
    eqs, ineqs = block_parts(f)
    assert (len(f.vars), len(eqs), len(ineqs)) == (2, 2, 1)


def test_formulas_are_immutable_structural_values():
    """Formula nodes compare and hash by class and fields, refuse
    assignment, and an exists block checks its binders."""
    x, b = T.Var("x"), ival(0, 1)
    nodes = [Eq(x), Geq(x), Exists(("x",), (b,), Eq(x)), ForAll("x", b, Eq(x)),
             And(Eq(x), Geq(x)), Or(Eq(x), Geq(x)), ClassBReport(True)]
    for node in nodes:
        copy = type(node)(*(getattr(node, name) for name in node._fields))
        assert copy == node and hash(copy) == hash(node)
        assert [n for n in nodes if n == node] == [node]
        with pytest.raises(AttributeError):
            setattr(node, node._fields[0], None)
    assert repr(Eq(x)) == "Eq(term=Var(name='x'))"
    assert ClassBReport(True).violations == ()
    with pytest.raises(ValueError, match="dimension"):
        Exists(("x", "y"), (b,), Eq(x))
    with pytest.raises(ValueError, match="duplicate"):
        Exists(("x", "x"), (b, b), Eq(x))


def _chain(word: str, last: str):
    """A parsed chain of 1,500 blocks under one connective, whose last
    block's constant is `last`."""
    block = "(exists x in [0,1] . x - {} = 0)"
    return parse(word.join([block.format("1/2")] * 1499 + [block.format(last)]))


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("word", [" or ", " and "])
def test_hash_and_eq_of_a_long_chain_need_no_recursion(frames, word):
    """A 1,500-block chain, which `parse` accepts, compares and hashes at
    top level and under 300 extra frames alike: equal to a second parse,
    before and after the hashes are computed, and unequal to a copy that
    differs only in its last block's constant."""
    a, b, other = _chain(word, "1/2"), _chain(word, "1/2"), _chain(word, "1/3")
    assert a is not b
    for _ in range(2):  # once before any hash exists, once after
        assert _under(frames, lambda: a == b) and not _under(frames, lambda: a != b)
        assert _under(frames, lambda: a != other) and not _under(frames, lambda: a == other)
        assert _under(frames, lambda: hash(a)) == _under(frames, lambda: hash(b))
        _under(frames, lambda: hash(other))


def test_eq_is_the_recursive_reference(monkeypatch):
    """`==` on its explicit stack agrees with the comparison of the field
    tuples on every pair of corpus sentences, each also against a second
    parse of itself."""
    sentences = [parse(text) for _, text, _, _ in corpus_entries()]
    sentences += [parse(text) for _, text, _, _ in corpus_entries()]
    got = [[f == g for g in sentences] for f in sentences]
    monkeypatch.setattr(Record, "__eq__", oracles.recursive_eq)
    assert got == [[f == g for g in sentences] for f in sentences]
    assert sum(map(sum, got)) == 2 * len(sentences)


def test_a_copy_of_a_hashed_formula_is_equal_and_hashes_alike():
    """pickle and deepcopy of a corpus sentence whose hash is cached give
    an equal formula with the same hash; the copy computes it anew, so
    no hash is carried to a process that hashes strings differently."""
    for _, text, _, _ in corpus_entries():
        f = parse(text)
        h = hash(f)
        for g in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert getattr(g, "_hash", None) is None
            assert g == f and hash(g) == h


def test_free_and_bound_vars():
    f = parse("exists y in [-2,2] . y - x = 0", params={"x": ival(0, 1)})
    assert free_vars(f) == {"x"}
    g = parse("forall x in [0,1] . exists y in [-2,2] . y - x = 0")
    assert free_vars(g) == set()


def test_same_structure_ignores_term_details_only():
    a = parse("exists x in [0,1] . sin(x) = 0")
    b = parse("exists x in [0,1] . x - 1/2 = 0")
    c = parse("exists x in [0,2] . sin(x) = 0")
    d = parse("exists x in [0,1] . sin(x) >= 0")
    assert same_structure(a, b)          # same skeleton, different terms
    assert not same_structure(a, c)      # different bounds
    assert not same_structure(a, d)      # different atom kind


@given(st.sampled_from(SOLVABLE), st.sampled_from(SOLVABLE),
       st.sampled_from(SOLVABLE))
@settings(max_examples=40, deadline=None)
def test_same_structure_is_an_equivalence(x, y, z):
    a, b, c = parse(x), parse(y), parse(z)
    assert same_structure(a, a)
    assert same_structure(a, b) == same_structure(b, a)
    if same_structure(a, b) and same_structure(b, c):
        assert same_structure(a, c)


def test_aligned_terms_tracks_quantification_box():
    f = parse("forall x in [0,1] . exists y in [-2,2] . y - x = 0")
    pairs = list(aligned_terms(f, f))
    assert len(pairs) == 1
    tf, tg, names, box = pairs[0]
    assert tf == tg
    assert names == ("x", "y")
    assert box[0] == ival(0, 1) and box[1] == ival(-2, 2)


def test_validation_flags_out_of_class_not_crash():
    # an exists over a nested quantifier is outside the solvable fragment
    f = parse("exists x in [0,1] . forall y in [0,1] . x - y >= 0")
    report = validate_class_b(f)
    assert not report.in_class
