"""Term AST: evaluation, substitution, printing, polynomial expansion."""
import copy
import math
import pickle
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from quasisat import terms as T
from quasisat.evaluation import compile_term
from quasisat.formulas import aligned_terms, formula_text
from quasisat.parser import _MAX_HEIGHT, parse
from quasisat.record import Record
from quasisat.solver import quasi_decide

import oracles
from conftest import corpus_entries
from oracles import exact_eval, float_eval, is_polynomial, substitute
from test_identity import sentences

X, Y = T.Var("x"), T.Var("y")


def c(v) -> T.Const:
    return T.Const(Fraction(v))


@st.composite
def poly_terms(draw, depth=3):
    """Random polynomial terms in x and y."""
    if depth == 0:
        return draw(st.sampled_from(
            [X, Y, c(0), c(1), c(-2), c(Fraction(1, 3))]))
    kind = draw(st.sampled_from(["leaf", "add", "sub", "neg", "mul", "pow"]))
    if kind == "leaf":
        return draw(poly_terms(depth=0))
    if kind == "neg":
        return T.Neg(draw(poly_terms(depth=depth - 1)))
    if kind == "pow":
        return T.Pow(draw(poly_terms(depth=depth - 1)),
                     draw(st.integers(min_value=0, max_value=3)))
    a = draw(poly_terms(depth=depth - 1))
    b = draw(poly_terms(depth=depth - 1))
    return {"add": T.Add, "sub": T.Sub, "mul": T.Mul}[kind](a, b)


def test_const_normalizes_and_pow_requires_natural():
    assert T.Const(2).value == Fraction(2) and isinstance(T.Const(2).value,
                                                          Fraction)
    with pytest.raises(ValueError):
        T.Pow(X, -1)


NODES = [c(Fraction(-3, 4)), T.Pi(), X, T.Add(X, Y), T.Sub(X, Y), T.Mul(X, Y),
         T.Div(X, Y), T.Neg(X), T.Pow(X, 3), T.Sin(X), T.Cos(X), T.Exp(X), T.Sqrt(X)]


@pytest.mark.parametrize("node", NODES, ids=lambda t: type(t).__name__)
def test_nodes_are_immutable_structural_values(node):
    """Each node equals and hashes like a rebuilt copy, differs from
    every other class with the same fields, refuses assignment and shows
    its fields by name."""
    fields = [getattr(node, name) for name in node._fields]
    rebuilt = type(node)(*fields)
    assert rebuilt == node and hash(rebuilt) == hash(node) and not rebuilt != node
    assert [t for t in NODES if t == node] == [node]
    with pytest.raises(AttributeError):
        node.value = 1
    for name in node._fields:
        with pytest.raises(AttributeError):
            setattr(node, name, X)
    assert repr(node) == f"{type(node).__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(node._fields, fields)) + ")"
    assert node != tuple(fields) and node != fields
    assert pickle.loads(pickle.dumps(node)) == node and copy.deepcopy(node) == node


def _under(frames: int, fn):
    """fn() called under `frames` extra frames of the caller's own."""
    return fn() if frames == 0 else _under(frames - 1, fn)


@pytest.mark.parametrize("frames", [0, 300])
@pytest.mark.parametrize("op", ["+", "*"], ids=["sum", "product"])
def test_hash_and_eq_of_a_term_at_the_height_bound_need_no_recursion(frames, op):
    """A sum or product of height `_MAX_HEIGHT` hashes and compares at top
    level and under 300 extra frames alike: equal before and after the
    hashes are computed, and unequal to a copy whose deepest leaf
    differs."""
    def term(first):
        return parse(f"exists x in [0,2] . {op.join([first] + ['x'] * (_MAX_HEIGHT - 1))} "
                     "- 1 = 0").body.term

    a, b, other = term("x"), term("x"), term("2")
    assert a is not b
    assert _under(frames, lambda: a == b) and _under(frames, lambda: a != other)
    assert _under(frames, lambda: hash(a)) == _under(frames, lambda: hash(b))
    _under(frames, lambda: hash(other))
    assert _under(frames, lambda: a == b) and _under(frames, lambda: a != other)


class CountedName(str):
    """A variable name that counts the `!=` comparisons it is the left
    side of."""
    compared = 0

    def __ne__(self, other):
        CountedName.compared += 1
        return str.__ne__(self, other)


def test_eq_compares_nested_records_left_to_right():
    """`==` takes the record fields of two records left to right, so
    x - R and y - R2, for equal sums R and R2 of 1,000 variables, differ
    at x and y before any name of R is compared (the right side came
    first, all 1,000 names of it, when the last pushed pair was popped
    first)."""
    def total():
        return reduce(T.Add, [T.Var(CountedName("v")) for _ in range(1000)])

    r, r2 = total(), total()
    CountedName.compared = 0
    assert T.Sub(X, r) != T.Sub(Y, r2)
    assert CountedName.compared == 0
    assert r == r2 and CountedName.compared == 1000


def test_repr_is_the_recursive_reference(monkeypatch):
    """`repr` on its explicit stack prints every corpus sentence, and the
    budget-3 `Verdict` of each with its trace, as the recursion over the
    fields does."""
    sentences = [parse(text) for _, text, _, _ in corpus_entries()]
    values = sentences + [quasi_decide(f, budget=3) for f in sentences]
    got = [repr(v) for v in values]
    monkeypatch.setattr(Record, "__repr__", oracles.recursive_repr)
    assert got == [repr(v) for v in values]


@pytest.mark.parametrize("frames", [0, 300])
def test_repr_of_a_sentence_at_the_height_bound_needs_no_recursion(frames):
    """An 850-deep `sin` sentence, which `parse` accepts, prints at top
    level and under 300 extra frames alike."""
    f = parse("exists x in [0,1] . " + "sin(" * 850 + "x" + ")" * 850 + " - 2 = 0")
    assert _under(frames, lambda: repr(f)) == (
        "Exists(vars=('x',), bounds=((0, 1, 1),), body=Eq(term=Sub(left="
        + "Sin(arg=" * 850 + "Var(name='x')" + ")" * 850
        + ", right=Const(value=Fraction(2, 1)))))")


def test_term_text_is_the_recursive_reference():
    """`term_text` on its explicit stack prints every atom term of every
    corpus sentence and of every seed-1 workload sentence and its
    perturbed copy as the recursion does."""
    texts = [s for _, text, _, perturbed in sentences() for s in (text, perturbed) if s]
    terms = [t for f in map(parse, texts) for t, _, _, _ in aligned_terms(f, f)]
    assert len(texts) > 1000
    assert [T.term_text(t) for t in terms] == [oracles.recursive_term_text(t) for t in terms]


@pytest.mark.parametrize("frames", [0, 300])
def test_term_text_of_a_sentence_at_the_height_bound_needs_no_recursion(frames):
    """The 850-deep `sin` sentence prints as itself at top level and under
    300 extra frames alike."""
    text = "exists x in [0,1] . " + "sin(" * 850 + "x" + ")" * 850 + " - 2 = 0"
    f = parse(text)
    assert _under(frames, lambda: formula_text(f)) == text


@given(st.fractions(), st.integers(min_value=-5, max_value=5))
def test_equal_constants_hash_equal(q, n):
    """Equal constants, from any coercion, give equal hashes."""
    assert hash(T.Const(q)) == hash(T.Const(Fraction(q.numerator, q.denominator)))
    assert T.Const(n) == T.Const(Fraction(n)) and hash(T.Const(n)) == hash(T.Const(Fraction(n)))
    assert (T.Const(q) == T.Const(n)) == (q == n)


def test_free_vars_and_substitute():
    """A term's free variables are the names its tape reads, as the
    reference walk finds them, also after a substitution."""
    t = T.Add(T.Mul(X, Y), T.Sin(X))
    assert compile_term(t, ()).reads == oracles.free_vars(t) == {"x", "y"}
    s = substitute(t, {"x": Fraction(0)})
    assert compile_term(s, ()).reads == oracles.free_vars(s) == {"y"}
    assert substitute(X, {}) == X


def test_exact_eval_oracles():
    t = T.Sub(T.Pow(X, 2), T.Div(c(1), Y))
    env = {"x": Fraction(3), "y": Fraction(2)}
    assert exact_eval(t, env) == Fraction(17, 2)
    with pytest.raises(Exception):
        exact_eval(T.Sin(X), {"x": Fraction(1)})  # not a rational value


def test_float_eval_matches_math():
    t = T.Add(T.Sin(X), T.Mul(T.Exp(Y), T.Sqrt(c(2))))
    got = float_eval(t, {"x": 0.5, "y": -1.0})
    assert got == pytest.approx(math.sin(0.5) + math.exp(-1) * math.sqrt(2))
    assert float_eval(T.Pi(), {}) == pytest.approx(math.pi)


def test_is_polynomial():
    assert is_polynomial(T.Sub(T.Pow(X, 3), T.Mul(c(2), Y)))
    assert is_polynomial(T.Div(X, c(2)))  # rational maps evaluate exactly
    assert not is_polynomial(T.Sin(X))
    assert not is_polynomial(T.Pi())


@given(poly_terms(), st.fractions(min_value=-3, max_value=3, max_denominator=16),
       st.fractions(min_value=-3, max_value=3, max_denominator=16))
@settings(max_examples=150, deadline=None)
def test_expand_normal_preserves_value(t, xv, yv):
    env = {"x": xv, "y": yv}
    assert exact_eval(T.expand_normal(t), env) == exact_eval(t, env)


@given(poly_terms())
@settings(max_examples=100, deadline=None)
def test_expand_normal_is_idempotent(t):
    once = T.expand_normal(t)
    assert T.expand_normal(once) == once


def test_expand_normal_cancels_identical_parts():
    # (x^2 - y) - (x^2 - y - 1) collapses to the constant 1
    a = T.Sub(T.Pow(X, 2), Y)
    b = T.Sub(a, c(1))
    assert T.expand_normal(T.Sub(a, b)) == c(1)


@given(poly_terms(), poly_terms())
@settings(max_examples=100, deadline=None)
def test_shared_summands_cancel_before_expansion(a, r):
    # (a + r) - a is r, and a - (a + r) is -r, as in a perturbed atom
    assert T.expand_normal(T.Sub(T.Add(a, r), a)) == T.expand_normal(r)
    assert T.expand_normal(T.Sub(a, T.Add(a, r))) == T.expand_normal(T.Neg(r))


def test_cancelled_divisor_no_longer_blocks_expansion():
    # x/(1 + y^2) + x  minus  x/(1 + y^2) + x + 3/64*y
    quotient = T.Div(X, T.Add(c(1), T.Pow(Y, 2)))
    f = T.Add(quotient, X)
    g = T.Add(T.Add(quotient, X), T.Mul(c(Fraction(3, 64)), Y))
    assert T.expand_normal(T.Sub(f, g)) == T.Mul(c(Fraction(-3, 64)), Y)
    # a divisor that survives still leaves the term as it is
    kept = T.Sub(f, X)
    assert T.expand_normal(kept) is kept


# summands whose atoms all print differently, as those of parsed terms do
SUMMANDS = [X, Y, c(2), c(Fraction(-1, 3)), T.Pi(), T.Sin(X), T.Mul(X, Y), T.Pow(Y, 3),
            T.Mul(c(3), T.Pow(T.Sub(X, c(1)), 2)), T.Div(X, c(2)),
            T.Div(T.Sub(Y, c(1)), c(Fraction(-2, 3))),  # a negative divisor
            T.Cos(T.Add(X, Y)), T.Mul(T.Exp(Y), T.Sub(X, Y)),
            T.Div(c(1), T.Add(c(2), T.Pow(X, 2)))]  # the last has a non-constant divisor
SIGNED = st.tuples(st.sampled_from(SUMMANDS), st.sampled_from([1, -1]))


def _sum(draw, summands):
    """The left-to-right sum of (summand, sign) pairs; a negative summand
    is subtracted or added under a Neg."""
    s, k = summands[0]
    acc = s if k > 0 else T.Neg(s)
    for s, k in summands[1:]:
        acc = T.Add(acc, s) if k > 0 else draw(st.sampled_from([T.Sub(acc, s),
                                                               T.Add(acc, T.Neg(s))]))
    return acc


@st.composite
def differences(draw):
    """a - b, with b a copy of a's summand list (repeats allowed) that may
    be reordered, have signs flipped and one summand added or removed."""
    left = draw(st.lists(SIGNED, min_size=1, max_size=7))
    right = draw(st.permutations(left)) if draw(st.booleans()) else list(left)
    for i in draw(st.lists(st.integers(0, len(right) - 1), max_size=2)):
        right[i] = right[i][0], -right[i][1]
    edit = draw(st.sampled_from(["keep", "add", "remove"]))
    if edit == "add":
        right.insert(draw(st.integers(0, len(right))), draw(SIGNED))
    elif edit == "remove" and len(right) > 1:
        del right[draw(st.integers(0, len(right) - 1))]
    if draw(st.booleans()):
        left, right = right, left
    return T.Sub(_sum(draw, left), _sum(draw, right))


@given(differences())
@settings(max_examples=300, deadline=None)
def test_expand_normal_equals_the_dict_reference(t):
    """Positional cancellation gives the term of the reference that counts
    every summand in one dict, and returns the input itself exactly when
    the reference does; so does a sum that is not a difference."""
    for term in (t, t.left):
        got, want = T.expand_normal(term), oracles.expand_normal(term)
        assert got == want
        assert (got is term) == (want is term)


def test_expand_is_the_recursive_reference():
    """`_expand` on its explicit stack gives the recursion's polynomial,
    its integer-pair coefficients read as `Fraction`s, on every aligned
    atom-term difference of the corpus and seed-1 workload sentences,
    each against its perturbed copy or, without one, itself."""
    diffs = []
    for _, text, _, perturbed in sentences():
        f = parse(text)
        diffs += [T.Sub(a, b) for a, b, _, _ in aligned_terms(f, parse(perturbed or text))]
    forms = [T._expand(d) for d in diffs]  # None for a non-constant divisor
    got = [None if form is None else {m: Fraction(n, d) for m, (n, d) in form.items()}
           for form in forms]
    assert got == [oracles.recursive_expand(d) for d in diffs]
    assert len(diffs) > 500


def test_expand_normal_keeps_transcendental_atoms():
    t = T.Sub(T.Mul(T.Sin(X), c(2)), T.Mul(T.Sin(X), c(2)))
    assert T.expand_normal(t) == c(0)


@given(poly_terms(), st.fractions(min_value=-3, max_value=3, max_denominator=16),
       st.fractions(min_value=-3, max_value=3, max_denominator=16))
@settings(max_examples=100, deadline=None)
def test_term_text_reparses_to_equal_value(t, xv, yv):
    from quasisat.parser import parse
    from quasisat.formulas import Exists
    text = f"exists x in [-3,3], y in [-3,3] . {T.term_text(t)} = 0"
    f = parse(text)
    assert isinstance(f, Exists)
    reparsed = f.body.term  # parse normalizes `t = 0` to the term itself
    env = {"x": xv, "y": yv}
    assert exact_eval(reparsed, env) == exact_eval(t, env)
