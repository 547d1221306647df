"""Three-valued checks and the epsilon-halving driver."""
import gc
import importlib
import itertools
import math
import time
from fractions import Fraction
from functools import partial

import mpmath
import pytest

from quasisat import distance_enclosure, free_vars, solver, validate_class_b
from quasisat import terms as T
from quasisat.degree import DegreeResult
from quasisat.formulas import And, Atom, Eq, Exists, ForAll, Geq, Or
from quasisat.geometry import Grid, grid_cover, oriented_boundary
from quasisat.intervals import ival
from quasisat.parser import parse
from quasisat.solver import (TRI_F, TRI_T, TRI_TF, IterationRecord, checksat, prec_for,
                             quasi_decide)

from conftest import CORPUS_DIR, corpus_entries
from test_identity import sentences
from oracles import (NEAR_TANGENCIES, block_parts, grid_cut, least_power_of_two, substitute,
                     tapes, to_interval, tri_and, tri_or, width)

# the module, which the package's `degree` function hides as an attribute
degree_module = importlib.import_module("quasisat.degree")

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


def _least_prec(slack: Fraction) -> int:
    """The least p >= 1 with 2**-p <= slack."""
    p = 1
    while Fraction(1, 2 ** p) > slack:
        p += 1
    return p


def test_prec_for_slack_is_at_most_an_eighth():
    """The slack 2**-p is at most min(r, r**2)/8 with p the least such
    p >= 1, so it is at most r/8, the slack of the rule before it, and no
    r gets a lower precision than under that rule."""
    for r in (Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 100),
              Fraction(1, 2 ** 200), Fraction(1, 10 ** 30), Fraction(3, 7), Fraction(1000),
              Fraction(10 ** 9, 7), Fraction(3, 2), Fraction(7, 3), Fraction(2 ** 40 + 1, 2 ** 40)):
        p = prec_for(r)
        bound = min(r, r * r) / 8
        assert Fraction(1, 2 ** p) <= bound
        assert p == _least_prec(bound)
        assert p >= _least_prec(r / 8)
        if r >= 1:
            assert p == _least_prec(r / 8)
    assert [prec_for(Fraction(1, 2 ** k)) for k in range(6)] == [3, 5, 7, 9, 11, 13]


def test_checksat_singletons_and_indecision():
    t = parse("exists x in [0,1] . x - 1/2 = 0")
    assert checksat(t, (), Fraction(1, 4)) == TRI_T
    f = parse("exists x in [0,1] . x - 2 = 0")
    assert checksat(f, (), Fraction(1)) == TRI_F
    n = parse("exists x in [1,2] . sin(x) = 1")
    assert checksat(n, (), Fraction(1, 8)) == TRI_TF


def test_checksat_with_parameters():
    body = parse("exists y in [-2,2] . y - x = 0", params={"x": ival(0, 1)})
    assert checksat(body, (ival(0, 1),), Fraction(1, 4), ("x",)) == TRI_T
    far = parse("exists y in [0,1] . y - x = 0", params={"x": ival(2, 3)})
    assert checksat(far, (ival(2, 3),), Fraction(1, 2), ("x",)) == TRI_F


NON_DYADIC = ival(Fraction(1, 3), Fraction(5, 7))


@pytest.mark.parametrize("bound", [NON_DYADIC, ival(Fraction(-2, 3), Fraction(1, 5)),
                                   ival(Fraction(1, 3))])
@pytest.mark.parametrize("r", [Fraction(1), Fraction(1, 3), Fraction(1, 8)])
def test_universal_slabs_are_the_fraction_cuts(bound, r):
    """The slabs a universal hands its body are the cuts lo + w*i/count
    of its bound, count the least power of two at least ceil(w / r), after
    the parameters it was given; non-dyadic and degenerate bounds
    included."""
    seen = []

    def body(p_env, it):
        seen.append(p_env)
        return TRI_T, Fraction(1)

    it = IterationRecord(0, r, TRI_TF, precision=prec_for(r))
    got = solver._univ(bound, body, ((1, 2, 3),), it)
    assert got == (TRI_T, Fraction(1))
    count = least_power_of_two(width(to_interval(bound)) / r)
    g = Grid((bound,), (count,))
    assert [env[0] for env in seen] == [(1, 2, 3)] * count
    assert [(Fraction(lo, d), Fraction(hi, d)) for _, (lo, hi, d) in seen] == [
        (grid_cut(g, 0, i), grid_cut(g, 0, i + 1)) for i in range(count)]


@pytest.mark.parametrize("script, want, calls", [
    ([(TRI_T, Fraction(1, 2)), (TRI_T, Fraction(1, 4))], (TRI_T, Fraction(1, 4)), 2),
    ([(TRI_T, Fraction(1, 2)), (TRI_TF, None), (TRI_F, Fraction(1, 8)), (TRI_T, Fraction(1))],
     (TRI_F, Fraction(1, 8)), 3),
    ([(TRI_TF, None), (TRI_T, Fraction(1, 2))], (TRI_TF, None), 2),
], ids=["least-true", "false-stops", "undecided"])
def test_a_universal_folds_its_slabs(script, want, calls):
    """A universal is TRUE with the least certificate of its slabs, FALSE
    with the certificate of its first FALSE slab, at which it stops, and
    undecided otherwise."""
    seen = []

    def body(p_env, it):
        seen.append(p_env)
        return script[len(seen) - 1]

    r = Fraction(1, len(script))
    it = IterationRecord(0, r, TRI_TF, precision=prec_for(r))
    got = solver._univ(ival(0, 1), body, (), it)
    assert got == want and len(seen) == calls


def test_a_universal_makes_its_slabs_on_demand(monkeypatch):
    """The slabs of a universal are made one at a time as its fold reads
    them, so a universal over 2^40 slabs whose first slab is FALSE runs
    one block check and returns at once; a list of every slab would not
    fit in memory."""
    blocks = []
    real = solver._soei

    def spy(*args):
        blocks.append(args[0])
        return real(*args)

    monkeypatch.setattr(solver, "_soei", spy)
    start = time.perf_counter()
    v = quasi_decide(parse("forall x in [0,1000000000000] . x - 1 >= 0"), budget=1)
    assert time.perf_counter() - start < 1
    assert (v.outcome, v.iterations, len(blocks)) == ("FALSE", 1, 1)


@pytest.mark.parametrize("dominant, outs, want, runs", [
    (TRI_F, [(TRI_T, Fraction(1, 2)), (TRI_T, Fraction(1, 4))], (TRI_T, Fraction(1, 4)), 2),
    (TRI_F, [(TRI_T, Fraction(1, 8)), (TRI_F, Fraction(1, 2)), (TRI_F, Fraction(1, 4))],
     (TRI_F, Fraction(1, 2)), 2),
    (TRI_F, [(TRI_T, Fraction(1, 8)), (TRI_TF, None), (TRI_F, Fraction(1, 2))],
     (TRI_F, Fraction(1, 2)), 3),
    (TRI_F, [(TRI_F, Fraction(1, 2)), (TRI_TF, None)], (TRI_F, Fraction(1, 2)), 1),
    (TRI_F, [(TRI_TF, None), (TRI_T, Fraction(1, 2))], (TRI_TF, None), 2),
    (TRI_T, [(TRI_F, Fraction(1, 8)), (TRI_T, Fraction(1, 2)), (TRI_TF, None)],
     (TRI_T, Fraction(1, 2)), 2),
    (TRI_T, [(TRI_F, Fraction(1, 2)), (TRI_F, Fraction(1, 8))], (TRI_F, Fraction(1, 8)), 2),
    (TRI_T, [(TRI_T, Fraction(1, 2)), (TRI_T, Fraction(1, 8))], (TRI_T, Fraction(1, 2)), 1),
    (TRI_T, [(TRI_F, Fraction(1, 2)), (TRI_TF, None)], (TRI_TF, None), 2),
], ids=["and-true", "and-false", "and-false-past-none", "and-false-without", "and-undecided",
        "or-true", "or-false", "or-true-without", "or-undecided"])
def test_a_connective_folds_its_sides(dominant, outs, want, runs):
    """An and/or node runs its sides in order up to the first whose
    verdict dominates (FALSE for `and`, TRUE for `or`), which decides
    with its own certificate; the sides after it are not run.  Without
    one, an undecided side leaves the node undecided, and sides that all
    agree give their least certificate."""
    ran = []

    def side(i):
        return lambda p_env, it: ran.append(i) or outs[i]

    got = solver._combine([side(i) for i in range(len(outs))], dominant, (),
                          IterationRecord(0, Fraction(1), TRI_TF, precision=3))
    assert got == want and ran == list(range(runs))


# each decided pair of a fold's input gets its own certificate, in no order
FOLD_CERTS = (Fraction(3, 8), Fraction(1, 8), Fraction(1, 2), Fraction(1, 4))


@pytest.mark.parametrize("kind", ["forall", "and", "or"])
def test_every_short_fold_follows_the_fold_rule(kind):
    """Over every sequence of 1 to 4 verdicts, an `and` and an `or`, and
    over every sequence of 1, 2 or 4, as many as a universal has slabs, a
    universal give the verdict of the three-valued reference fold.  The
    first dominating verdict decides with its own certificate and nothing
    after it runs; otherwise the result is undecided without a
    certificate, or it carries the least certificate of the sides."""
    dominant, op = (TRI_T, tri_or) if kind == "or" else (TRI_F, tri_and)
    for n in (1, 2, 4) if kind == "forall" else range(1, 5):
        for verdicts in itertools.product(TRIS, repeat=n):
            pairs = [(v, None if v == TRI_TF else FOLD_CERTS[i]) for i, v in enumerate(verdicts)]
            ran = []

            def run(i):
                ran.append(i)
                return pairs[i]

            r = Fraction(1, n)
            it = IterationRecord(0, r, TRI_TF, precision=prec_for(r))
            if kind == "forall":
                got = solver._univ(ival(0, 1), lambda p_env, it: run(len(ran)), (), it)
            else:
                got = solver._combine([partial(lambda i, p_env, it: run(i), i)
                                       for i in range(n)], dominant, (), it)
            want = verdicts[0]
            for v in verdicts[1:]:
                want = op(want, v)
            assert got[0] == want, (kind, verdicts)
            if dominant in verdicts:
                first = verdicts.index(dominant)
                assert got[1] == pairs[first][1] and ran == list(range(first + 1))
            else:
                assert ran == list(range(n))
                assert got[1] == (None if want == TRI_TF else min(c for _, c in pairs))


def test_every_decided_block_verdict_carries_a_positive_certificate(monkeypatch):
    """No block check returns a decided verdict without a certificate, so
    no fold reads one: every singleton that `_soei` returns on the corpus
    and on the seed-1 items of the three workloads has a positive
    `Fraction`.  `_compile` binds `_soei` when it builds the tree, so the
    spy goes in before any sentence is compiled."""
    real, returned = solver._soei, []

    def spy(*args):
        out = real(*args)
        returned.append(out)
        return out

    monkeypatch.setattr(solver, "_soei", spy)
    for _, text, budget, _ in sentences():
        quasi_decide(parse(text), budget=budget)
    decided = [cert for verdict, cert in returned if len(verdict) == 1]
    assert decided and all(type(c) is Fraction and c > 0 for c in decided)


def slab_reference(s, p_box, r, pnames):
    """`checksat`, with each universal cut into slabs lo + w*i/count on
    `Fraction`s and each slab appended to the parameter box."""
    if not isinstance(s, ForAll):
        return checksat(s, p_box, r, pnames)
    bound = to_interval(s.bound)
    count = max(1, math.ceil(width(bound) / r))
    acc = TRI_T
    for i in range(count):
        slab = ival(bound.lo + width(bound) * i / count,
                    bound.lo + width(bound) * (i + 1) / count)
        acc = tri_and(acc, slab_reference(s.body, p_box + (slab,), r,
                                          tuple(pnames) + (s.var,)))
    return acc


def test_checksat_with_a_non_dyadic_parameter_box():
    """Over x in [1/3, 5/7], the verdicts equal the slab-by-slab
    `Fraction` reference."""
    texts = ["forall y in [1/5,4/5] . exists z in [-2,2] . z - x*y = 0",
             "forall y in [1/3,2/3] . exists z in [0,1] . z - x - y = 0",
             "forall y in [1/3,1/3] . exists z in [0,1] . z - x*y = 0",
             "forall y in [1/5,4/5] . exists z in [0,1] . z - x - y - 1 = 0",
             "exists z in [-1,1] . 3*z - x = 0"]
    got = []
    for text in texts:
        s = parse(text, params={"x": NON_DYADIC})
        for r in (Fraction(1), Fraction(1, 3), Fraction(1, 16)):
            verdict = checksat(s, (NON_DYADIC,), r, ("x",))
            assert verdict == slab_reference(s, (NON_DYADIC,), r, ("x",)), (text, r)
            got.append(verdict)
    assert {TRI_T, TRI_F, TRI_TF} <= set(got)


def test_checksat_rejects_bad_input():
    with pytest.raises(ValueError):
        checksat(parse("1 >= 0"), (), Fraction(0))
    out_of_class = parse("exists x in [0,1], y in [0,1] . x - y = 0")
    with pytest.raises(ValueError):
        checksat(out_of_class, (), Fraction(1))


PARAM_S = "exists y in [-2,2] . y - x = 0"


@pytest.mark.parametrize("p_box, pnames, fault", [
    ((ival(0, 1),), (), "without a parameter name: \\['x'\\]"),
    ((), ("x",), "0 parameter intervals for 1 parameter names"),
    (((0, 1, 0),), ("x",), "parameter x: denominator 0 is not positive"),
    (((1, 0, 1),), ("x",), "parameter x: endpoints out of order"),
    (((0, 1, -1),), ("x",), "parameter x: denominator -1 is not positive"),
    ((ival(0, 1), ival(0, 1)), ("x",), "2 parameter intervals for 1 parameter names"),
    # a name given twice leaves one interval unread: [0,1] alone proves
    # {True} and [5,6] alone {False}, so either order must be refused
    ((ival(5, 6), ival(0, 1)), ("x", "x"), "repeated parameter names: \\['x'\\]"),
    ((ival(0, 1), ival(5, 6)), ("x", "x"), "repeated parameter names: \\['x'\\]"),
], ids=["missing-name", "short-box", "zero-den", "lo-above-hi", "negative-den", "extra-entry",
        "repeated-name", "repeated-name-swapped"])
def test_checksat_rejects_a_parameter_box_that_does_not_fit(p_box, pnames, fault):
    s = parse(PARAM_S, params={"x": ival(0, 1)})
    with pytest.raises(ValueError, match=fault):
        checksat(s, p_box, Fraction(1, 4), pnames)


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
    """An even numerator is halved, an odd one doubles the denominator."""
    s = parse("exists x in [0,2] . x - 1 = 0 and x - 1 = 0")
    v = quasi_decide(s, budget=4)
    assert [r.eps for r in v.trace] == \
        [Fraction(1), Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]
    v = quasi_decide(s, budget=4, eps=Fraction(12))
    assert [r.eps for r in v.trace] == \
        [Fraction(12), Fraction(6), Fraction(3), Fraction(3, 2)]


def test_a_degree_failure_leaves_the_block_undecided(monkeypatch):
    """A complex whose degree fails (None) decides nothing: it is counted
    and recorded as a failure, and the block stays undecided."""
    monkeypatch.setattr(solver, "degree", lambda *args, **kwargs: None)
    v = quasi_decide(parse("exists x in [0,1] . x - 1/2 = 0"), budget=4)
    assert v.outcome == "UNKNOWN" and len(v.trace) == 4
    for r in v.trace:
        assert (r.complexes, r.degrees, r.degree_subdivisions) == (1, [None], 0)


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


@pytest.mark.parametrize("budget", [0, -1, 2.5, 1.0, "3", None, True])
def test_a_budget_that_is_not_a_positive_integer_is_rejected(budget):
    """A float budget once escaped from `range` as a TypeError."""
    with pytest.raises(ValueError, match="^budget must be a positive integer$"):
        quasi_decide(parse("1 >= 0"), budget=budget)


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


def test_walk_certificates_leave_degree_nothing_to_certify(monkeypatch):
    """Every top-level boundary face of a complex was certified by the
    zero-face walk, so a block without parameters makes no `certify`
    call in `degree` on a top-level face: every call it makes is on a
    point of a later pass, with the one component left there."""
    calls = []
    real_certify = degree_module.certify

    def certify(fs, env, p):
        calls.append((tuple(fs), tuple(env)))
        return real_certify(fs, env, p)

    monkeypatch.setattr(degree_module, "certify", certify)
    real, faces = solver.degree, set()

    def spy(fs, cells, p, env=(), budget=1000, certs={}):
        faces.update(oriented_boundary(cells))
        return real(fs, cells, p, env, budget, certs)

    monkeypatch.setattr(solver, "degree", spy)
    v = quasi_decide(parse((CORPUS_DIR / "circle_line.sent").read_text()))
    assert v.outcome == "TRUE" and sum(r.complexes for r in v.trace) > 0
    assert calls and faces
    for fs, env in calls:
        assert len(fs) == 1  # the point pass of a map of one component
        assert all(lo == hi for lo, hi, _ in env) and env not in faces


SEEDED_BLOCKS = {
    "1d": "exists x in [0,1] . x^2 - 1/3 = 0",
    "2d": "exists x in [-1,1], y in [-1,1] . x^2 + y^2 - 1/2 = 0 and x - y - 1/10 = 0",
    "3d": "exists x in [1/2,3/2], y in [3/4,7/4], z in [0,1] . x + y + z - 43/16 = 0 "
          "and x - y + 1/8 = 0 and x - y + 1/4*z - 3/64 = 0",
    "1d-parameter": "forall a in [0,1] . exists x in [-1,2] . x - a/2 - 1/3 = 0",
}


@pytest.mark.parametrize("text", SEEDED_BLOCKS.values(), ids=SEEDED_BLOCKS.keys())
def test_seeded_degree_evaluates_no_boundary_face_again(monkeypatch, text):
    """The face walk certifies every top-level boundary face of a complex
    under the key the degree looks up, so the seeded degree evaluates
    none of them again.  Unseeded, the same spies see every one of them
    evaluated, so a key mismatch between faces and cells would show."""
    seen = []
    real_certify = degree_module.certify

    def certify(fs, env, p):
        seen.append(tuple(env))
        return real_certify(fs, env, p)

    monkeypatch.setattr(degree_module, "certify", certify)
    real = solver.degree
    checked = []

    def spy(fs, cells, p, env=(), budget=1000, certs={}):
        faces = oriented_boundary(cells).keys()
        assert faces <= certs.keys()
        for seeds, again in (({}, faces), (certs, set())):
            seen.clear()
            res = real(fs, cells, p, env, budget, seeds)
            assert {cell[len(env):] for cell in seen} & faces == again
        checked.append(len(faces))
        return res

    monkeypatch.setattr(solver, "degree", spy)
    assert quasi_decide(parse(text), budget=12).outcome == "TRUE"
    assert checked


def test_pruning_evaluates_few_cells_of_a_fine_grid():
    """At iteration 16 the grid of sin(x) = 1 on [1,2] has 32768 cells;
    the top-down refutation visits only blocks around pi/2."""
    s = parse("exists x in [1,2] . sin(x) = 1")
    v = quasi_decide(s, budget=16)
    rec = v.trace[15]
    assert grid_cover(s.bounds, rec.eps).n_cells == 32768
    assert 0 < rec.cells_evaluated < 512
    assert 0 < rec.faces_evaluated < 512


@pytest.mark.parametrize("text", [
    "exists x in [0,2] . sin(x) = 1",
    "exists x in [2,4] . cos(x) + 1 = 0",
], ids=["sin", "cos"])
def test_a_tangency_keeps_a_few_plausible_cells_per_iteration(text):
    """At a tangency f is about -c*d**2, so a cell within sqrt(slack/c) of
    the touching point cannot be refuted.  With slack at most ε**2/8 that
    band holds O(1) cells, so 40 iterations evaluate a few cells each;
    with slack ε/8 they evaluated 1,550,291 cells in all."""
    v = quasi_decide(parse(text), budget=40)
    assert (v.outcome, v.iterations) == ("UNKNOWN", 40)
    assert sum(r.cells_evaluated for r in v.trace) <= 200


@pytest.mark.parametrize("text", NEAR_TANGENCIES, ids=["sin", "cos"])
@pytest.mark.parametrize("k", range(2, 9))
def test_a_near_tangency_decides_in_half_log_iterations(text, k):
    """sin(x) - 1 + δ on [0,2] and cos(x) + 1 - δ on [2,4] touch zero from
    one side but for δ, their exact margin.  Each decides TRUE with a
    certificate at most δ within ½·log2(1/δ) + 3 iterations, that is with
    4**(iterations - 3) * δ <= 1 (it took 23 iterations at δ = 10**-8
    when the slack was ε/8)."""
    delta = Fraction(1, 10 ** k)
    v = quasi_decide(parse(text.format(f"1/10^{k}")), budget=40)
    assert v.outcome == "TRUE"
    assert v.certificate <= delta
    assert Fraction(4) ** (v.iterations - 3) * delta <= 1


def test_a_degenerate_bound_tests_each_face_once():
    """On the degenerate axis y in [1/2,1/2] a cell's lower and upper face
    are one face, so iteration 1 tests 3 faces, one of them a zero face."""
    s = parse("exists x in [0,1], y in [1/2,1/2] . x - y = 0 and y - 1/2 = 0")
    v = quasi_decide(s, budget=20)
    first = v.trace[0]
    assert (first.faces_evaluated, first.zero_faces) == (3, 1)
    assert v.outcome == "UNKNOWN"


def test_a_900_term_sum_is_solved():
    """Depth guard: a sum nested 900 deep parses and solves; evaluation
    must not bring the limit below what the parser accepts."""
    s = parse("exists x in [0,2] . " + "+".join(["x"] * 900) + " - 1 = 0")
    v = quasi_decide(s)
    assert v.outcome == "TRUE" and v.certificate > 0


@pytest.mark.parametrize("text, outcome, iterations, certificate, margin", [
    # the last column is the exact margin: min(max f, -min f) of a TRUE
    # equation, min |f| of a FALSE one, min f of a TRUE universal
    ("exists x in [1/1000,1] . 1/sin(x) - 2 = 0", "TRUE", 2, Fraction(14, 249),
     lambda: 2 - 1 / mpmath.sin(1)),
    ("exists x in [0,1] . sqrt(sin(x) + 1/1000) - 1/2 = 0", "TRUE", 3, Fraction(49, 256),
     lambda: mpmath.sqrt(mpmath.sin(1) + mpmath.mpf(1) / 1000) - mpmath.mpf(1) / 2),
    ("forall x in [0,1] . sqrt(sin(x) + 1/1000) >= 0", "TRUE", 3, Fraction(1, 256),
     lambda: mpmath.sqrt(mpmath.mpf(1) / 1000)),
    ("exists x in [1/1000,1] . 1/sin(x) + 2 = 0", "FALSE", 4, Fraction(1374, 431),
     lambda: 1 / mpmath.sin(1) + 2),
    ("exists x in [1/1000,1] . 1/sin(x) - 2000 = 0", "FALSE", 4, Fraction(1808, 5),
     lambda: 2000 - 1 / mpmath.sin(mpmath.mpf(1) / 1000)),
    ("exists x in [0,1] . sqrt(sin(x) + 1/1000) - 2 = 0", "FALSE", 3, Fraction(553, 512),
     lambda: 2 - mpmath.sqrt(mpmath.sin(1) + mpmath.mpf(1) / 1000)),
])
def test_a_box_where_a_partial_operation_leaves_its_domain_decides_nothing(
        text, outcome, iterations, certificate, margin):
    """The parser checks each division and sqrt at precision 30; the
    solver's first iterations run at lower precisions, where an enclosure
    of sin(x) may cross zero.  Such a box is undecided, not an error.  The
    certificate is at most the sentence's exact margin."""
    s = parse(text)
    v = quasi_decide(s)
    assert (v.outcome, v.iterations, v.certificate) == (outcome, iterations, certificate)
    assert checksat(s, (), 1) == TRI_TF
    with mpmath.workdps(40):
        assert mpmath.mpf(certificate.numerator) / certificate.denominator <= margin()


def test_iteration_record_sums_degree_subdivisions(monkeypatch):
    """Each iteration's `degree_subdivisions` is the sum of the
    subdivisions of its decided degree calls (a failed call has none).
    The sentence makes five decided calls, two in each of its first two
    iterations."""
    real = solver.degree
    calls: list = []

    def padded(*args, **kwargs):
        res = real(*args, **kwargs)
        if res is not None:
            res = DegreeResult(res.value, res.boundary_min_lb, res.subdivisions + 5)
        calls.append(res)
        return res

    monkeypatch.setattr(solver, "degree", padded)
    v = quasi_decide(parse("exists x in [-1,1], y in [-1,1] . "
                           "x^2 + y^2 - 1/2 = 0 and sin(x*y) - 1/10 = 0"), budget=12)
    assert v.outcome == "TRUE"
    done = iter(calls)
    for r in v.trace:
        results = [next(done) for _ in range(r.complexes)]
        assert r.degree_subdivisions == sum(res.subdivisions for res in results
                                            if res is not None)
    assert sum(r.degree_subdivisions for r in v.trace) >= 5 * 3


def test_degree_runs_on_the_block_tapes_at_the_slice_centre(monkeypatch):
    """With a parameter, the solver hands `degree` the block's own tapes
    and the parameter as the degenerate interval of its slice's midpoint:
    each result is the degree of the terms with the midpoint substituted."""
    real = solver.degree
    calls: list = []

    def spy(fs, cells, p, env=(), **kwargs):
        certs = dict(kwargs.get("certs", {}))  # the walk adds more later
        res = real(fs, cells, p, env, **kwargs)
        calls.append((cells, p, env, certs, res))
        return res

    monkeypatch.setattr(solver, "degree", spy)
    a = ival(Fraction(1, 3), Fraction(1, 2))
    s = parse("exists x in [-1,1], y in [-1,1] . x - a*y/2 - 1/5 = 0 and sin(y) - a/3 = 0",
              params={"a": a})
    checksat(s, (a,), Fraction(1, 4), ("a",))
    assert calls
    eqs, _ = block_parts(s)
    f0 = tapes([substitute(t, {"a": Fraction(5, 12)}) for t in eqs], ("x", "y"))
    for cells, p, env, certs, res in calls:
        assert [(Fraction(lo, d), Fraction(hi, d)) for lo, hi, d in env] == [
            (Fraction(5, 12), Fraction(5, 12))]
        assert res == real(f0, cells, p, certs=certs)


@pytest.mark.parametrize("text, budget, terms, checks", [
    ((CORPUS_DIR / "sin_one.sent").read_text(), 11, 1, 11),
    # 1 + 2 + ... + 128 slabs over the eight iterations
    ("forall x in [0,1] . exists y in [0,1] . y - x*x = 0 and y + 1 >= 0", 8, 2, 255),
], ids=["sin_one", "forall-exists"])
def test_each_block_term_is_compiled_once_per_sentence(monkeypatch, text, budget, terms,
                                                       checks):
    """`quasi_decide` compiles each block's terms once and reuses the tapes
    in every iteration and every universal slab."""
    compiled, blocks = [], []
    real_compile, real_soei = solver.compile_term, solver._soei

    def compile_spy(t, names):
        compiled.append(t)
        return real_compile(t, names)

    def soei_spy(*args):
        blocks.append(args[0])
        return real_soei(*args)

    monkeypatch.setattr(solver, "compile_term", compile_spy)
    monkeypatch.setattr(solver, "_soei", soei_spy)
    v = quasi_decide(parse(text), budget=budget)
    assert v.outcome == "UNKNOWN" and v.iterations == budget
    assert len(compiled) == terms
    assert len(blocks) == checks


def test_checksat_compiles_each_block_term_once(monkeypatch):
    compiled = []
    real = solver.compile_term
    monkeypatch.setattr(solver, "compile_term",
                        lambda t, names: compiled.append(t) or real(t, names))
    s = parse("forall y in [0,1] . exists z in [0,2] . z - x - y = 0", params={"x": ival(0, 1)})
    assert checksat(s, (ival(0, 1),), Fraction(1, 8), ("x",)) == TRI_TF
    assert len(compiled) == 1


def test_records_keep_their_defaults_and_mutability():
    """An `IterationRecord` is a mutable, unhashable record with zero
    counters and its own list of degrees; a `Verdict` compares by fields."""
    a, b = IterationRecord(1, Fraction(1), TRI_TF), IterationRecord(1, Fraction(1), TRI_TF)
    assert a == b and a.degrees == [] and a.degrees is not b.degrees
    assert (a.complexes, a.precision, a.zero_faces, a.degree_subdivisions) == (0, 0, 0, 0)
    a.result, a.complexes = TRI_T, 2
    a.degrees.append(1)
    assert a != b and (a.result, a.complexes, b.degrees) == (TRI_T, 2, [])
    with pytest.raises(TypeError):
        hash(a)
    v = quasi_decide(parse("exists x in [0,1] . x - 1/2 = 0"), budget=3)
    assert v == quasi_decide(parse("exists x in [0,1] . x - 1/2 = 0"), budget=3)
    assert repr(v).startswith("Verdict(outcome='TRUE', iterations=1, ")


def spy_on_term_walks(monkeypatch):
    """The terms given to the solver's `compile_term` and to
    `terms.free_vars`, in call order, as two lists."""
    compiled, walked = [], []
    real_compile, real_free = solver.compile_term, T.free_vars
    monkeypatch.setattr(solver, "compile_term",
                        lambda t, names: compiled.append(t) or real_compile(t, names))
    monkeypatch.setattr(T, "free_vars", lambda t: walked.append(t) or real_free(t))
    return compiled, walked


def test_free_variables_are_walked_once_per_and_or_side(monkeypatch):
    """Free variables are found once per sentence, not again in every
    slab and iteration: the compile walk resolves each atom's term once,
    into its tape, and blocks, and/or sides and the sentence take their
    free variables bottom-up from the names the tapes read, so a sentence
    without free variables or violations gives no term to
    `terms.free_vars`."""
    compiled, walked = spy_on_term_walks(monkeypatch)
    s = parse("forall x in [0,1] . (exists y in [0,1] . y - x*x = 0) and x >= 0")
    v = quasi_decide(s, budget=6)
    assert v.iterations == 6 and sum(len(r.degrees) for r in v.trace) > 6
    assert compiled == [s.body.left.body.term, s.body.right.term]
    assert walked == []


def formula_nodes(f):
    """Every node of a formula, atoms included, in preorder."""
    children = {ForAll: ("body",), Exists: ("body",), And: ("left", "right"),
                Or: ("left", "right")}.get(type(f), ())
    return [f] + [n for name in children for n in formula_nodes(getattr(f, name))]


@pytest.mark.parametrize("decide", [
    lambda s: quasi_decide(s, budget=3),
    lambda s: checksat(s, (), Fraction(1, 4)),
], ids=["quasi_decide", "checksat"])
def test_deciding_a_sentence_visits_each_formula_node_once(monkeypatch, decide):
    """One compile walk before the first iteration: `_compile` is called
    once on each quantifier, each and/or chain and each ground atom, and
    `_chain` gathers each chain's connectives and atom sides and each
    block's body; a quantifier is read by `_compile` and every other node
    by one `_chain` call, and no node is read twice, by them or by any
    iteration."""
    compiled, gathered = [], []

    def compile_spy(f, *rest):
        compiled.append(f)
        return real_compile(f, *rest)

    def chain_spy(f, cls):
        sides = real_chain(f, cls)
        inside = {id(n) for side in sides if not isinstance(side, Atom)
                  for n in formula_nodes(side)}
        gathered.extend(n for n in formula_nodes(f) if id(n) not in inside)
        return sides
    real_compile, real_chain = solver._compile, solver._chain
    monkeypatch.setattr(solver, "_compile", compile_spy)
    monkeypatch.setattr(solver, "_chain", chain_spy)
    s = parse("forall x in [0,1] . ((exists y in [0,1] . y - x*x = 0 and y >= 0 and "
              "1 - y >= 0) or x - 2 >= 0) and 1 >= 0")
    decide(s)
    quantifiers = [f for f in compiled if isinstance(f, (ForAll, Exists))]
    assert sorted(map(id, quantifiers + gathered)) == sorted(map(id, formula_nodes(s)))
    assert len(quantifiers + gathered) == 11
    assert len(set(map(id, compiled))) == len(compiled) == 6


def term_size(t):
    """The number of nodes of a term."""
    return 1 + sum(term_size(getattr(t, name)) for name in ("left", "right", "arg", "base")
                   if hasattr(t, name))


def test_free_variable_walks_grow_linearly_with_an_and_chain(monkeypatch):
    """Deciding a chain of k conjoined blocks visits each term node once,
    in the compile walk, which also finds the free variables, so the
    visits grow linearly in k (they grew as k^2 when each and/or side was
    walked from scratch).  Each `compile_term` call walks its whole term,
    so a call counts the nodes of its term."""
    compiled, walked = spy_on_term_walks(monkeypatch)
    visits = {}
    for k in (25, 50, 100, 200):
        s = parse(" and ".join(["(exists x in [0,1] . x - 1/2 = 0)"] * k))
        compiled.clear()
        assert quasi_decide(s, budget=1).outcome == "TRUE"
        visits[k] = sum(map(term_size, compiled))
    # x - 1/2 is three term nodes
    assert visits == {25: 75, 50: 150, 100: 300, 200: 600}
    assert walked == []


SHADOW = "variable 'x' shadows an outer binding"
NOT_CONJ = "exists body must be a conjunction of equations and inequalities"
UNDER = "exists block has 1 equation(s) for 2 variable(s); need n >= m or n = 0"
X, Y, BOX = T.Var("x"), T.Var("y"), ival(0, 1)


@pytest.mark.parametrize("f, violations", [
    # parse rejects a rebound name, so the shadowing cases are built by hand
    pytest.param(ForAll("x", BOX, ForAll("x", BOX, Geq(X))), [SHADOW], id="forall-shadow"),
    pytest.param(ForAll("y", BOX, ForAll("x", BOX, Exists(
        ("y", "x"), (BOX, BOX), And(Eq(T.Sub(X, Y)), Eq(T.Add(X, Y)))))),
        [SHADOW], id="exists-shadow"),
    pytest.param(parse("exists x in [0,1] . (x = 0 or x - 1 = 0)"), [NOT_CONJ], id="or-body"),
    pytest.param(parse("exists x in [0,1] . exists y in [0,1] . x - y = 0"), [NOT_CONJ],
                 id="exists-body"),
    pytest.param(parse("exists x in [0,1], y in [0,1] . x - y = 0"), [UNDER],
                 id="underdetermined"),
    pytest.param(parse("(exists x in [0,1] . (x = 0 or x - 1 = 0)) and "
                       "exists y in [0,1], z in [0,1] . y - z = 0"),
                 [NOT_CONJ, UNDER], id="two-in-order"),
    pytest.param(parse("exists x in [0,1] . (exists y in [0,1], z in [0,1] . x - y = 0) "
                       "or x >= 0"), [NOT_CONJ, UNDER], id="inside-a-disjunctive-body"),
    pytest.param(Exists(("x",), (BOX,), Or(Exists(("x",), (BOX,), Eq(X)), Geq(X))),
                 [NOT_CONJ, SHADOW], id="shadow-inside-a-disjunctive-body"),
])
def test_class_b_messages_are_pinned(f, violations):
    """Each violation of the solvable fragment is reported with its exact
    text, in walk order, and `quasi_decide` and `checksat` raise them
    joined by '; '."""
    assert validate_class_b(f).violations == tuple(violations)
    for decide in (lambda: quasi_decide(f), lambda: checksat(f, (), 1)):
        with pytest.raises(ValueError) as err:
            decide()
        assert str(err.value) == "; ".join(violations)


MISSING = "free variables without a parameter name: "


def _case(text, violations, free, given_a):
    """A case whose id is its text and its violation, if any."""
    return pytest.param(text, violations, free, given_a, id="-".join((text, *violations)))


@pytest.mark.parametrize("text, violations, free, given_a", [
    _case("exists x in [0,1], y in [0,1] . x - a = 0", (UNDER,), "['a']", UNDER),
    _case("exists x in [0,1] . (x - a = 0 or x >= 0)", (NOT_CONJ,), "['a']", NOT_CONJ),
    # no violation: each block holds a name without a tape register, so
    # its free variables come from walking its terms
    _case("(exists x in [0,1] . x - a = 0 and x - b >= 0) or "
          "forall y in [0,1] . exists z in [0,1] . z - c*y = 0", (), "['a', 'b', 'c']",
          MISSING + "['b', 'c']"),
])
def test_a_free_variable_is_reported_before_a_violation(text, violations, free, given_a):
    """A sentence check comes first, also when the free variable sits in a
    block outside the fragment, and it names every free variable, sorted;
    given only the parameter name 'a', `checksat` names the others, or
    with none left, the violation."""
    f = parse(text, params={"a": BOX, "b": BOX, "c": BOX})
    assert validate_class_b(f).violations == violations
    with pytest.raises(ValueError) as err:
        quasi_decide(f)
    assert str(err.value) == f"not a sentence; free variables: {free}"
    with pytest.raises(ValueError) as err:
        checksat(f, (), 1)
    assert str(err.value) == MISSING + free
    with pytest.raises(ValueError) as err:
        checksat(f, (BOX,), 1, ("a",))
    assert str(err.value) == given_a


def test_the_compile_walk_finds_the_free_variables_of_every_corpus_node(monkeypatch):
    """For every node of every corpus sentence, the free variables that
    `_compile` returns are `formulas.free_vars`: read off the tapes, with
    no `terms.free_vars` walk, when `names` holds them, and walked when
    `names` is empty and no tape can be built."""
    compiled, walked = spy_on_term_walks(monkeypatch)
    for _, text, _, _ in corpus_entries():
        for node in formula_nodes(parse(text)):
            want = free_vars(node)
            walked.clear()
            free, check = solver._compile(node, tuple(sorted(want)), [])
            assert (free, walked) == (want, []) and check is not None
            assert solver._compile(node, (), [])[0] == want
            assert bool(walked) == bool(want)
    assert compiled


CYCLE_F = "forall x in [0,1] . (exists y in [0,1] . y - x*x = 0) and x >= 0 or 1 >= 0"


@pytest.mark.parametrize("call", [
    lambda f: quasi_decide(f, budget=3),
    lambda f: checksat(f, (), Fraction(1, 4)),
    validate_class_b,
    lambda f: distance_enclosure(f, parse(CYCLE_F.replace("x*x", "x*x - 1/64")),
                                 Fraction(1, 64)),
], ids=["quasi_decide", "checksat", "validate_class_b", "distance_enclosure"])
def test_the_formula_walks_leave_no_reference_cycles(call):
    """The walks are module-level functions, not recursive closures, which
    are reference cycles: garbage that stays alive, with all it holds (the
    pairs of `aligned_terms`, say), until a collection, and that makes the
    collections during the next solves come sooner."""
    f = parse(CYCLE_F)
    gc.collect()
    gc.disable()
    try:
        call(f)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_a_long_and_chain_stays_within_the_stack():
    """A check tree costs no more stack per and/or level than the formula
    walk it replaced: 400 conjoined blocks still solve."""
    s = parse(" and ".join(["(exists x in [0,1] . x - 1/2 = 0)"] * 400))
    assert quasi_decide(s, budget=1).outcome == "TRUE"


def _under(frames: int, fn):
    """fn() called under `frames` extra frames of the caller's own."""
    return fn() if frames == 0 else _under(frames - 1, fn)


@pytest.mark.parametrize("word", ["or", "and"])
def test_a_long_chain_of_one_connective_is_one_node(word):
    """A chain of one connective compiles into one node that runs its
    sides in order, so 1,500 blocks decide under 300 extra frames (494
    raised RecursionError when each connective was a node of its own)."""
    s = parse(f" {word} ".join(["(exists x in [0,1] . x - 1/2 = 0)"] * 1500))
    assert _under(300, lambda: quasi_decide(s, budget=1)).outcome == "TRUE"
    assert _under(300, lambda: checksat(s, (), Fraction(1, 4))) == TRI_T
    assert _under(300, lambda: validate_class_b(s)).in_class


BLOCK = "(exists x in [0,1] . x - {} = 0)"


@pytest.mark.parametrize("word, roots", [
    ("or", ["3", "1/2", "-2", "1/4"]), ("or", ["3", "2", "-5/2"]),
    ("and", ["1/2", "1/4", "3/4"]), ("and", ["1/2", "3", "1/4", "-5/2"]),
])
def test_a_chain_certificate_is_the_least_of_the_agreeing_sides(word, roots):
    """The certificate of a decided chain is that of its first side with
    the dominating verdict (FALSE for `and`, TRUE for `or`), and the
    least over the sides, which all agree, when no side dominates."""
    alone = [quasi_decide(parse(BLOCK.format(c)), budget=1) for c in roots]
    v = quasi_decide(parse(f" {word} ".join(BLOCK.format(c) for c in roots)), budget=1)
    assert v.outcome != "UNKNOWN" and all(a.outcome != "UNKNOWN" for a in alone)
    dominant = "FALSE" if word == "and" else "TRUE"
    first = next((a for a in alone if a.outcome == dominant), None)
    if first is None:
        assert v.certificate == min(a.certificate for a in alone)
    else:
        assert (v.outcome, v.certificate) == (dominant, first.certificate)


def test_a_deep_term_is_walked_for_its_free_variables_without_recursion():
    """850 nested sin, within the parser's height bound, decide FALSE under
    300 extra frames: the free-variable walks keep their own stacks."""
    s = parse("exists x in [0,1] . " + "sin(" * 850 + "x" + ")" * 850 + " - 2 = 0")
    assert _under(300, lambda: quasi_decide(s)).outcome == "FALSE"
    assert _under(300, lambda: free_vars(s)) == frozenset()


@pytest.mark.parametrize("copies", [1000, 3000])
def test_a_long_conjunction_in_one_block_decides(copies):
    """A block's conjunction is split, and the atoms of two blocks are
    paired, without recursion: 1,000 and 3,000 conjoined inequalities
    after one equation decide TRUE, and are at distance 1/4 from the copy
    whose equation is shifted by 1/4 (1,000 raised RecursionError while
    the split, and later the pairing, recursed once per `and`)."""
    tail = " and x + 1 >= 0" * copies
    s = parse("exists x in [0,1] . x - 1/2 = 0" + tail)
    assert quasi_decide(s).outcome == "TRUE"
    d = distance_enclosure(s, parse("exists x in [0,1] . x - 1/4 = 0" + tail), Fraction(1, 1024))
    assert (d.lo, d.hi) == (Fraction(1, 4), Fraction(1, 4))


A, B = ival(Fraction(1, 3), Fraction(1, 2)), ival(Fraction(5, 4), Fraction(3, 2))
# each side mentions one parameter; the left side names the later one
LEFT, RIGHT = "exists x in [0,1/2] . x - b/2 = 0", "exists y in [1,2] . y - a = 0"


@pytest.mark.parametrize("a, b", [(A, B), (B, A), (A, A), (B, B)])
@pytest.mark.parametrize("r", [Fraction(1, 2), Fraction(1, 8)])
def test_and_or_sides_get_their_own_parameters(a, b, r):
    """With two parameters mentioned by different sides, in swapped
    order, each side is checked on its own parameter: an and/or verdict
    is that of the sides checked alone."""
    params = {"a": a, "b": b}
    left, right = parse(LEFT, params={"b": b}), parse(RIGHT, params={"a": a})
    alone = (checksat(left, (b,), r, ("b",)), checksat(right, (a,), r, ("a",)))
    assert set(alone) <= {TRI_T, TRI_F}
    for word, op in (("and", tri_and), ("or", tri_or)):
        s = parse(f"({LEFT}) {word} ({RIGHT})", params=params)
        assert checksat(s, (a, b), r, ("a", "b")) == op(*alone)
        # under a universal, the slab comes after both parameters
        u = parse(f"forall z in [0,1] . (({LEFT}) {word} ({RIGHT})) and z + 1 >= 0",
                  params=params)
        assert checksat(u, (a, b), r, ("a", "b")) == op(*alone)


def test_an_overdetermined_block_stops_at_its_first_plausible_cell():
    """Two equations in one variable are undecided as soon as one cell is
    plausible, so each iteration keeps one plausible cell."""
    v = quasi_decide(parse((CORPUS_DIR / "double_zero.sent").read_text()), budget=11)
    assert v.outcome == "UNKNOWN" and len(v.trace) == 11
    assert [r.cells_plausible for r in v.trace] == [1] * 11


def test_a_touching_inequality_carries_its_two_cells():
    """The two plausible cells around the touching point are carried, so
    each iteration evaluates the four cells of the next grid that meet
    them instead of descending from the whole grid (63 blocks at
    iteration 20)."""
    v = quasi_decide(parse((CORPUS_DIR / "touching_ineq.sent").read_text()), budget=20)
    assert v.outcome == "UNKNOWN" and len(v.trace) == 20
    assert max(r.cells_evaluated for r in v.trace) <= 4


WIDE_CARRY = "forall z in [0,3] . exists x in [0,1] . (x - 1/2)^2 = 0"


def test_a_block_that_reads_no_parameter_carries_its_frontier_across_slabs(monkeypatch):
    """A block under a universal whose variable it does not read is the
    same block at every slab, so one full pass finds its frontier and it
    is carried across iterations, and it is checked once per iteration:
    iteration 8 evaluates 4 blocks, where a full pass per slab evaluated
    10,368 over its 384 slabs."""
    full_passes = []
    plausible_cells = solver._plausible_cells

    def counted(*args, **kwargs):
        if len(args) + len(kwargs) < 7:  # no carried frontier
            full_passes.append(args[3])
        return plausible_cells(*args, **kwargs)

    monkeypatch.setattr(solver, "_plausible_cells", counted)
    v = quasi_decide(parse(WIDE_CARRY), budget=8)
    assert (v.outcome, v.iterations) == ("UNKNOWN", 8)
    assert full_passes == [grid_cover(((0, 1, 1),), Fraction(1))]
    assert v.trace[-1].cells_evaluated == 4


@pytest.mark.parametrize("text, budget, calls", [
    (WIDE_CARRY, 8, 8),
    # the exists side once per iteration, `z + 1 >= 0` once per slab
    ("forall z in [0,1] . (exists x in [7/16,9/16] . (x - 1/2)^2 <= 0) and z + 1 >= 0",
     12, 12 + (2 ** 12 - 1)),
], ids=["exists", "and-side"])
def test_a_check_that_reads_no_parameter_runs_once_per_iteration(monkeypatch, text, budget,
                                                                  calls):
    """A check that reads no variable bound above it would give every
    slab the same answer, so it runs at one point of each universal
    above it, once per iteration: a universal over a block that does not
    read its variable is that block, and over an `and` it goes to each
    side, so the exists side runs at one point while `z + 1 >= 0` still
    runs at every slab."""
    blocks = []
    real = solver._soei

    def spy(*args):
        blocks.append(args[0])
        return real(*args)

    monkeypatch.setattr(solver, "_soei", spy)
    v = quasi_decide(parse(text), budget=budget)
    assert (v.outcome, v.iterations) == ("UNKNOWN", budget)
    assert len(blocks) == calls


SPLIT_SIDES = ("forall x in [0,1] . forall y in [0,1] . "
               "(x*x - x + 1/4 + 1/1000 >= 0 and y*y - y + 1/4 + 1/1000 >= 0)")


@pytest.mark.parametrize("text, budget, outcome, iterations, cert, calls", [
    # each side under its own universal only, 2 * (1 + 2 + ... + 1024)
    # checks; under both, every side ran at every slab of the other
    # universal too (2,796,202 checks, about 30 s)
    (SPLIT_SIDES, 20, "TRUE", 11, Fraction(3, 128000), 4_094),
    # the y side at one point of x, first, 1 + 2 + ... + 1024 checks, and
    # the x side under x alone, FALSE at its first slab, once in each of
    # the ten undecided iterations (2,796,202 checks under both)
    ("forall x in [0,1] . forall y in [0,1] . (x - 2 >= 0 or y*y - y + 1/4 + 1/1000 >= 0)",
     20, "TRUE", 11, Fraction(3, 128000), 2_057),
    # the exists side at one point, first, then `z - 2 >= 0`, FALSE at its
    # first slab: two checks an iteration (4,107 when every slab ran both)
    ("forall z in [0,1] . (exists x in [7/16,9/16] . (x - 1/2)^2 <= 0) or z - 2 >= 0",
     12, "UNKNOWN", 12, None, 24),
    # the exists side at one point, `z + 1 >= 0` at every slab
    ("forall z in [0,1] . (exists x in [7/16,9/16] . (x - 1/2)^2 <= 0) and z + 1 >= 0",
     12, "UNKNOWN", 12, None, 4_107),
    # the closed exists side below an `and` below an `or` that reads z
    # stays under the universal: it runs at every slab, 3 * 1,023 checks
    # (2,056 when it ran once per iteration)
    ("forall z in [0,1] . ((exists x in [7/16,9/16] . (x - 1/2)^2 <= 0) and z + 1 >= 0) "
     "or z - 2 >= 0", 10, "UNKNOWN", 10, None, 3_069),
], ids=["split-sides", "split-or", "or-side", "and-side", "and-below-or"])
def test_a_universal_moves_down_to_the_sides_that_read_its_variable(
        monkeypatch, text, budget, outcome, iterations, cert, calls):
    """Miniscoping: forall v . (A and B) is (forall v . A) and
    (forall v . B), and forall v . (A or B) is A or forall v . B when A
    does not read v, and a side that reads no variable of the universals
    above it runs at one point of each.  The verdicts, iterations and
    certificates are those of the universals over the whole body."""
    blocks = []
    real = solver._soei

    def spy(*args):
        blocks.append(args[0])
        return real(*args)

    monkeypatch.setattr(solver, "_soei", spy)
    start = time.perf_counter()
    v = quasi_decide(parse(text), budget=budget)
    elapsed = time.perf_counter() - start
    assert (v.outcome, v.iterations, v.certificate) == (outcome, iterations, cert)
    assert len(blocks) == calls <= 10_000
    assert text != SPLIT_SIDES or elapsed < 1


@pytest.mark.parametrize("text, cert", [
    ("forall a in [0,1] . forall x in [0,1000000] . a + 1 >= 0", 1),
    ("forall x in [0,1000000] . exists y in [0,1] . y - 1/2 = 0", Fraction(1, 2)),
    ("forall x in [0,1000000000000] . exists y in [0,1] . y - 1/2 = 0", Fraction(1, 2)),
], ids=["atom", "exists", "exists-wide"])
def test_a_universal_whose_body_does_not_read_its_variable_checks_one_point(
        monkeypatch, text, cert):
    """forall v . A is A when A does not read v (every bound is nonempty),
    so the universal runs its body at one point of the bound: one block
    check, where a slab per grid cell made 2^20 or 2^40 of them at ε = 1."""
    blocks = []
    real = solver._soei

    def spy(*args):
        blocks.append(args[0])
        return real(*args)

    monkeypatch.setattr(solver, "_soei", spy)
    v = quasi_decide(parse(text), budget=1)
    assert (v.outcome, v.iterations, v.certificate) == ("TRUE", 1, cert)
    assert len(blocks) == 1


@pytest.mark.parametrize("text, outcome, cert, iterations", [
    # (precision, complexes, degrees) of each iteration: one complex per
    # block check, not one per slab
    (WIDE_CARRY, "UNKNOWN", None, [(2 * k + 1, 1, [0]) for k in range(1, 9)]),
    ("forall z in [0,1] . exists x in [-1,1], y in [-1,1] . "
     "x*x + y*y - 1/2 = 0 and x - y = 0", "TRUE", Fraction(1, 4),
     [(3, 1, [0]), (5, 1, [1])]),
    ("forall z in [0,1] . exists x in [0,1] . x*x + 1/4 = 0", "FALSE", Fraction(1, 4),
     [(3, 0, [])]),
    ("forall z in [0,1] . forall w in [0,1] . exists x in [0,1] . x - 1/3 = 0 and x >= 0",
     "TRUE", Fraction(1, 12), [(3, 1, [1]), (5, 1, [1]), (7, 1, [1])]),
], ids=["double-root", "circle-line", "no-root", "two-universals"])
def test_blocks_that_read_no_parameter_keep_the_verdicts_of_a_pass_per_slab(
        text, outcome, cert, iterations):
    """A block under universals that it does not read is checked once per
    iteration, carries its frontier and picks each face certificate's
    first component, and its verdicts, certificates and degrees are those
    it had when it was searched from the whole grid at every slab and
    kept the component of largest mignitude (that pass found 3*2^(k-1),
    2 and 4^(k-1) complexes at iteration k of the first, second and last
    sentence, every one with the same degree)."""
    v = quasi_decide(parse(text), budget=8)
    assert (v.outcome, v.iterations, v.certificate) == (outcome, len(iterations), cert)
    assert [(r.precision, r.complexes, r.degrees) for r in v.trace] == iterations


@pytest.mark.parametrize("quantifier", [
    lambda body: Exists(("a",), (ival(-1, 1),), body),
    lambda body: ForAll("a", ival(-1, 1), body),
], ids=["exists", "forall"])
def test_checksat_rejects_a_quantifier_that_rebinds_a_parameter(quantifier):
    """A parameter name is bound above the whole sentence, so rebinding it
    is the shadowing violation, as `parse` with that parameter rejects it."""
    with pytest.raises(ValueError, match="^variable 'a' shadows an outer binding$"):
        checksat(quantifier(Eq(T.Var("a"))), (ival(0, 1),), 1, ("a",))


def test_an_overdetermined_block_whose_carried_cell_is_refuted_runs_a_full_pass(monkeypatch):
    """The search from the top finds the cell near x = 2, where both
    equations are small, before the common root 1/2.  Only that cell is
    carried; once it is refuted at iteration 5, a full pass finds the
    cell at 1/2, which is carried from then on, so no iteration is FALSE."""
    full_passes = []
    plausible_cells = solver._plausible_cells

    def counted(*args, **kwargs):
        if len(args) + len(kwargs) < 7:  # no carried frontier
            full_passes.append(args[3])
        return plausible_cells(*args, **kwargs)

    monkeypatch.setattr(solver, "_plausible_cells", counted)
    v = quasi_decide(parse("exists x in [0,4] . (x*x - 9/2)*(x - 1/2) = 0 and "
                           "(x - 2)*(x - 1/2) = 0"), budget=20)
    assert v.outcome == "UNKNOWN" and len(v.trace) == 20
    assert [r.cells_plausible for r in v.trace] == [1] * 20
    assert full_passes == [grid_cover(((0, 4, 1),), r) for r in (1, Fraction(1, 16))]


@pytest.mark.parametrize("text, iterations, cert, carried", [
    ("exists x in [0,1] . x - 2 = 0 and x - 3 = 0", 1, Fraction(1), 0),
    # undecided, each at its first plausible cell, until iteration 5,
    # whose pass from iteration 4's frontier refutes the two cells over
    # iteration 4's plausible cell
    ("exists x in [0,4] . x*x - 9/2 = 0 and x - 2 = 0", 5, Fraction(1, 64), 2),
])
def test_a_false_overdetermined_block_keeps_the_full_sweep_certificate(
        text, iterations, cert, carried):
    """A pass from the last frontier that finds no plausible cell is
    followed by a full pass over the whole grid, so a FALSE verdict and its
    separation are those of the full pass, and the iteration evaluates
    the carried pass's blocks and the full pass's."""
    s = parse(text)
    v = quasi_decide(s, budget=11)
    assert (v.outcome, v.iterations) == ("FALSE", iterations)
    eqs, _ = block_parts(s)
    record = IterationRecord(0, v.final_eps, TRI_TF, precision=prec_for(v.final_eps))
    plausible, separation = solver._plausible_cells(
        tapes(eqs, ("x",)), [], (), grid_cover(s.bounds, v.final_eps), record)
    assert plausible == [] and v.certificate == separation == cert
    assert v.trace[-1].cells_evaluated == record.cells_evaluated + carried
