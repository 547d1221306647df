"""End-to-end acceptance criteria, one test per criterion.

Each test prints as one PASSED/FAILED line under `pytest -v`, and the
terminal summary (see conftest) repeats one PASS/FAIL line per criterion.
The expensive budget-20 runs are shared with the corpus soundness sweep
through the session-scoped `corpus_runs` fixture.
"""
import random
import time
from fractions import Fraction

import mpmath

from quasisat import terms as T
from quasisat.degree import degree
from quasisat.distance import INFINITE, distance_enclosure, sup_abs_enclosure
from quasisat.evaluation import compile_term
from quasisat.formulas import aligned_terms
from quasisat.geometry import Grid
from quasisat.intervals import ival, rat_str
from quasisat.parser import parse
from quasisat.solver import TRI_TF, quasi_decide

from conftest import corpus_entries
from oracles import (complex_of, contains, ratbox, single_box, tapes, to_interval,
                     width, winding_oracle_2d)

mpmath.mp.dps = 60

X, Y = T.Var("x"), T.Var("y")
UNIT2 = (ival(-1, 1), ival(-1, 1))


def mpf(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def mp_eval(t: T.Term, env: dict) -> mpmath.mpf:
    if isinstance(t, T.Const):
        return mpf(t.value)
    if isinstance(t, T.Pi):
        return mpmath.pi
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, (T.Add, T.Sub, T.Mul, T.Div)):
        a, b = mp_eval(t.left, env), mp_eval(t.right, env)
        return {T.Add: a + b, T.Sub: a - b, T.Mul: a * b,
                T.Div: a / b if b else None}[type(t)]
    if isinstance(t, T.Neg):
        return -mp_eval(t.arg, env)
    if isinstance(t, T.Pow):
        return mp_eval(t.base, env) ** t.exponent
    arg = mp_eval(t.arg, env)
    return {T.Sin: mpmath.sin, T.Cos: mpmath.cos,
            T.Exp: mpmath.exp, T.Sqrt: mpmath.sqrt}[type(t)](arg)


def corpus_atom_terms():
    """(term, names, box) for every atom of every corpus sentence."""
    out = []
    for _, text, _, _ in corpus_entries():
        f = parse(text)
        for tf, _, names, b in aligned_terms(f, f):
            out.append((tf, names, b))
    return out


def test_c01_robust_true_sine_decided_with_margin():
    t0 = time.monotonic()
    v = quasi_decide(parse("exists x in [-1,1] . sin(x) = 0"), budget=6)
    elapsed = time.monotonic() - t0
    assert v.outcome == "TRUE"
    assert v.iterations <= 6
    assert elapsed < 10
    eps = v.certificate
    assert eps is not None and eps > 0
    # shifting the equation by less than the margin keeps it satisfiable
    for sgn in ("-", "+"):
        shifted = parse(f"exists x in [-1,1] . sin(x) {sgn} "
                        f"{rat_str(eps / 2)} = 0")
        assert quasi_decide(shifted, budget=12).outcome == "TRUE"


def test_c02_robust_false_decided_first_iteration():
    t0 = time.monotonic()
    v = quasi_decide(parse("exists x in [0,1] . x - 2 = 0"), budget=20)
    elapsed = time.monotonic() - t0
    assert v.outcome == "FALSE"
    assert v.iterations == 1
    assert elapsed < 1


def test_c03_nonrobust_sentences_stay_unknown(corpus_runs):
    total = 0.0
    for name in ("sin_one", "double_zero"):
        verdict, label, elapsed = corpus_runs[name]
        assert label == "UNKNOWN"
        assert verdict.outcome == "UNKNOWN"
        assert verdict.iterations == 20
        assert all(r.result == TRI_TF for r in verdict.trace)
        total += elapsed
    assert total < 300


def test_c04_degree_fixture_and_identity_boxes():
    fs = [T.Sub(T.Pow(X, 2), T.Pow(Y, 2)), T.Mul(T.Const(2), T.Mul(X, Y))]
    res = degree(tapes(fs, ("x", "y")), single_box(UNIT2), 20)
    assert res is not None and res.value == 2

    rng = random.Random(42)
    done = 0
    while done < 100:
        los = [Fraction(rng.randint(-16, 12), 8) for _ in range(2)]
        his = [lo + Fraction(rng.randint(1, 16), 8) for lo in los]
        if any(lo == 0 or hi == 0 for lo, hi in zip(los, his)):
            continue
        b = (ival(los[0], his[0]), ival(los[1], his[1]))
        interior = all(lo < 0 < hi for lo, hi in zip(los, his))
        got = degree(tapes([X, Y], ("x", "y")), single_box(b), 20)
        assert got is not None
        assert got.value == (1 if interior else 0)
        done += 1


def _random_poly_2d(rng) -> T.Term:
    t = T.Const(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
    for _ in range(rng.randint(1, 4)):
        mono = T.Const(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(rng.randint(0, 3)):
            mono = T.Mul(mono, rng.choice((X, Y)))
        t = T.Add(t, mono)
    return t


def test_c05_degree_agrees_with_independent_oracles():
    # planar: float winding count along the oriented boundary
    rng = random.Random(5)
    agree = 0
    while agree < 50:
        fs = [_random_poly_2d(rng), _random_poly_2d(rng)]
        res = degree(tapes(fs, ("x", "y")), single_box(UNIT2), 20,
                     budget=800)
        if res is None:
            continue
        try:
            oracle = winding_oracle_2d(fs, ("x", "y"), single_box(UNIT2),
                                       samples=256)
        except ValueError:
            continue
        assert res.value == oracle
        agree += 1

    # one dimension: (sign f(hi) - sign f(lo)) / 2, computed exactly
    rng = random.Random(6)
    done = 0
    while done < 200:
        coeffs = [Fraction(rng.randint(-8, 8), rng.randint(1, 4))
                  for _ in range(rng.randint(2, 5))]
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
        t = T.Const(coeffs[0])
        for k in coeffs[1:]:
            t = T.Add(T.Mul(t, X), T.Const(k))
        res = degree(tapes([t], ("x",)), single_box((ival(lo, hi),)),
                     30, budget=5000)
        if res is None:
            continue
        sign = lambda v: (v > 0) - (v < 0)  # noqa: E731
        assert res.value == (sign(ev(hi)) - sign(ev(lo))) // 2
        done += 1


def test_c06_degree_additive_over_split_complexes():
    rng = random.Random(7)
    done = 0
    while done < 100:
        x0 = Fraction(rng.randint(-8, 4), 4)
        y0 = Fraction(rng.randint(-8, 4), 4)
        w = Fraction(rng.randint(1, 8), 4)
        g = Grid((ival(x0, x0 + 2 * w), ival(y0, y0 + w)), (2, 1))
        fs = [_random_poly_2d(rng), _random_poly_2d(rng)]
        results = [degree(tapes(fs, ("x", "y")), complex_of(g, cells), 20, budget=600)
                   for cells in ([(0, 0), (1, 0)], [(0, 0)], [(1, 0)])]
        if any(r is None for r in results):
            continue
        assert results[0].value == results[1].value + results[2].value
        done += 1


def test_c07_enclosure_soundness_and_convergence():
    rng = random.Random(8)
    for t, names, bounds in corpus_atom_terms():
        evaluate = compile_term(t, names)
        b = ratbox(bounds)
        # soundness: the interval value contains the true value at 1000
        # random rational points of the quantification box
        for _ in range(1000):
            point = [iv.lo + width(iv) * Fraction(rng.randint(0, 4096), 4096)
                     for iv in b.intervals]
            enc = to_interval(evaluate([ival(xv) for xv in point], 30))
            true = mp_eval(t, {n: mpf(xv) for n, xv in zip(names, point)})
            assert mpf(enc.lo) <= true <= mpf(enc.hi), T.term_text(t)
        if not names:
            continue
        # convergence: width at box width 2^-i and precision i decays
        # like C * 2^-i; fit C on i <= 10 and verify through i = 20
        center = [(iv.lo + iv.hi) / 2 for iv in b.intervals]
        widths = []
        for i in range(1, 21):
            h = Fraction(1, 2 ** (i + 1))
            cell = [ival(max(iv.lo, cv - h), min(iv.hi, cv + h))
                    for iv, cv in zip(b.intervals, center)]
            widths.append(width(to_interval(evaluate(cell, i))))
        fitted = max(w * 2 ** i for i, w in enumerate(widths[:10], start=1))
        for i, w in enumerate(widths, start=1):
            assert w <= fitted * Fraction(1, 2 ** i) * 2, T.term_text(t)


def test_c08_nested_quantifiers_end_to_end():
    t0 = time.monotonic()
    v = quasi_decide(parse("forall x in [0,1] . exists y in [-2,2] . "
                           "y - x = 0"), budget=8)
    elapsed = time.monotonic() - t0
    assert v.outcome == "TRUE"
    assert v.iterations <= 8
    assert elapsed < 60


def test_c09_corpus_soundness_across_budgets(corpus_runs):
    """No budget in 1..20 may contradict a corpus label.  The driver's
    trace at budget b is a prefix of the budget-20 trace, so each
    sentence's single budget-20 run determines every budget's verdict."""
    assert len(corpus_runs) >= 15
    for name, (verdict, label, _) in corpus_runs.items():
        for b in range(1, 21):
            if verdict.outcome != "UNKNOWN" and verdict.iterations <= b:
                got = verdict.outcome
            else:
                got = "UNKNOWN"
            assert got in (label, "UNKNOWN"), (name, b, got, label)
        if label != "UNKNOWN":
            assert verdict.outcome == label, name
        else:
            assert verdict.outcome == "UNKNOWN", name


def test_c10_distance_fixture():
    tol = Fraction(1, 1000)
    f = parse("exists x in [0,1] . forall y in [0,1] . "
              "x^2 - y = x*y and x = y")
    g = parse("exists x in [0,1] . forall y in [0,1] . "
              "x^2 - y = x*y + 1 and x = y^2")
    enc = distance_enclosure(f, g, tol)
    assert enc is not INFINITE
    assert contains(enc, 1)
    assert width(enc) <= tol
    # the second atom pair reduces to the parabola gap max |y - y^2| = 1/4
    sub = sup_abs_enclosure(T.Sub(Y, T.Pow(Y, 2)), ("y",), (ival(0, 1),),
                            tol)
    assert Fraction(1, 4) - tol <= sub.lo
    assert sub.hi <= Fraction(1, 4) + tol
