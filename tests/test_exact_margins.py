"""Univariate polynomial sentences against their exact decisions and
robustness margins (`oracles.signed_margin`, from Sturm sequences).

Every verdict must be UNKNOWN or the exact one, every certificate at
most the exact margin, and every sentence whose margin is at least 1/64
must decide at budget 16.  To print the distribution of certificate
over margin, the certificate-quality baseline, over N drawn sentences,
and the certificate over δ of the near tangencies of sin and cos
(`oracles.NEAR_TANGENCIES`, whose margin is δ) for δ = 10^-2 … 10^-8:

    PYTHONPATH=src python tests/test_exact_margins.py [N]
"""
from __future__ import annotations

import statistics
import sys
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from quasisat.parser import parse
from quasisat.solver import quasi_decide

from oracles import (NEAR_TANGENCIES, POLY_SHAPES, combine_margins, count_roots,
                     hoisted_sentence_text, poly_extrema, poly_sentence_text, root_brackets,
                     signed_margin, sturm_chain)

ROBUST = Fraction(1, 64)
# a universal over a body that is undecided on every slab checks about
# 2^(budget+1) slabs, so a sentence that need not decide gets budget 10
BUDGET, SHORT_BUDGET = 16, 10

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=8)


@st.composite
def sides(draw):
    """(shape, p, a, b) of one polynomial sentence over [a, b]."""
    shape = draw(st.sampled_from(POLY_SHAPES))
    p = tuple(draw(st.lists(coefficients, min_size=2, max_size=5)))
    a = draw(st.fractions(min_value=-2, max_value=2, max_denominator=6))
    b = a + draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6))
    return shape, p, a, b


@st.composite
def poly_sentences(draw):
    """(shape, signed margin, text): one side in x, or `and`/`or` of a
    side in x and one in y, side by side, or with universals above the
    connective (`hoisted_sentence_text`): `forall y` above the y side
    `q(y) >= 0` ("hoist_and", "hoist_or"), or `forall x` and `forall y`
    above the atoms `p(x) >= 0` and `q(y) >= 0` ("split_and",
    "split_or")."""
    shape, p, a, b = draw(sides())
    margin, text = signed_margin(shape, p, a, b), poly_sentence_text(shape, p, a, b)
    word = draw(st.sampled_from((None, "and", "or")))
    if word is None:
        return shape, margin, text
    other, q, c, d = draw(sides())
    form = draw(st.sampled_from((None, "hoist", "split")))
    if form is None:
        return (f"{shape} {word} {other}",
                combine_margins(word, margin, signed_margin(other, q, c, d)),
                f"({text}) {word} ({poly_sentence_text(other, q, c, d, 'y')})")
    if form == "split":
        margin = signed_margin("forall_geq", p, a, b)
    return (f"{form}_{word}", combine_margins(word, margin, signed_margin("forall_geq", q, c, d)),
            hoisted_sentence_text(form, word, shape, p, a, b, q, c, d))


def check(margin, text) -> Fraction | None:
    """Decide `text` and check it against its signed margin bracket; the
    certificate over the margin of a decided sentence, else None."""
    lo, hi = margin
    robust = lo >= ROBUST or hi <= -ROBUST
    v = quasi_decide(parse(text), budget=BUDGET if robust else SHORT_BUDGET)
    if v.outcome == "UNKNOWN":
        assert not robust, (text, margin)
        return None
    # a margin of 0 is a TRUE sentence, so TRUE is wrong only below 0
    assert (hi >= 0) if v.outcome == "TRUE" else (lo < 0), (text, margin, v.outcome)
    exact = hi if v.outcome == "TRUE" else -lo  # the margin's upper end
    assert 0 < v.certificate <= exact, (text, margin, v.certificate)
    return v.certificate / exact


# p' = 6x^2 - 16/5 x^3 has a double root at the bound 0, where every
# member of a Sturm chain built from p' itself vanishes
TANGENT_AT_AN_END = ((Fraction(-4, 5), 0, 0, Fraction(2), Fraction(-4, 5)), Fraction(0),
                     Fraction(1, 6))


@given(poly_sentences())
@example(("forall_geq", signed_margin("forall_geq", *TANGENT_AT_AN_END),
          poly_sentence_text("forall_geq", *TANGENT_AT_AN_END)))
@settings(max_examples=100, deadline=None)
def test_polynomial_verdicts_are_exact_with_certificates_within_the_margin(case):
    _, margin, text = case
    check(margin, text)


def test_sturm_counts_and_isolates_roots():
    third, half = Fraction(1, 3), Fraction(1, 2)
    # (x - 1/3)(x + 1/2)(x - 2) = x^3 - 11/6 x^2 - 1/2 x + 1/3
    p = (third, -half, Fraction(-11, 6), Fraction(1))
    chain = sturm_chain(p)
    assert count_roots(chain, Fraction(-1), Fraction(1)) == 2
    assert count_roots(chain, Fraction(-1, 2), Fraction(2)) == 2  # (a, b]
    # a root at a midpoint of the bisection comes out exact
    first, (lo, hi), last = root_brackets(p, Fraction(-1), Fraction(3))
    assert first == (-half, -half) and last == (2, 2)
    assert lo < third <= hi and hi - lo <= Fraction(1, 2 ** 40)
    # a double root counts once, and x^2 - 2 has sqrt 2 in a 2^-40 bracket
    assert count_roots(sturm_chain((Fraction(1), Fraction(-2), Fraction(1))), 0, 2) == 1
    ((lo, hi),) = root_brackets((Fraction(-2), 0, Fraction(1)), Fraction(0), Fraction(2))
    assert lo * lo < 2 <= hi * hi and hi - lo <= Fraction(1, 2 ** 40)
    # a double root at an end, or at the first midpoint, ends the bisection
    dp = (0, 0, Fraction(6), Fraction(-16, 5))
    assert root_brackets(dp, Fraction(0), Fraction(1, 6)) == []
    assert root_brackets(dp, Fraction(-1, 6), Fraction(1, 6)) == [(0, 0)]


def test_margins_of_known_sentences():
    one = Fraction(1)
    # x^2 - 2x on [-1, 3]: min -1 at 1, the first midpoint, max 3 at both ends
    p = (Fraction(0), Fraction(-2), one)
    assert poly_extrema(p, -one, 3 * one) == ((-one, -one), (3 * one, 3 * one))
    assert signed_margin("exists_eq", p, -one, 3 * one) == (one, one)
    assert signed_margin("forall_geq", p, -one, 3 * one) == (-one, -one)
    assert signed_margin("exists_geq", p, -one, 3 * one) == (3 * one, 3 * one)
    assert signed_margin("exists_eq", p, 3 * one, 4 * one) == (-3 * one, -3 * one)
    # x^3/3 - 2x on [0, 2] has its minimum -4*sqrt(2)/3 at sqrt 2
    lo, hi = signed_margin("forall_geq", (0, Fraction(-2), 0, Fraction(1, 3)), Fraction(0),
                           Fraction(2))
    assert lo <= -4 * 2 ** 0.5 / 3 <= hi and hi - lo < Fraction(1, 2 ** 36)
    assert combine_margins("and", (one, one), (-one / 2, -one / 4)) == (-one / 2, -one / 4)
    assert combine_margins("or", (one, one), (-one / 2, -one / 4)) == (one, one)


if __name__ == "__main__":
    ratios: dict[str, list[Fraction]] = {}

    @settings(max_examples=int(sys.argv[1]) if len(sys.argv) > 1 else 1000,
              derandomize=True, database=None, deadline=None)
    @given(poly_sentences())
    def collect(case):
        shape, margin, text = case
        ratio = check(margin, text)
        if ratio is not None:
            ratios.setdefault(shape if " " not in shape else shape.split()[1],
                              []).append(ratio)

    collect()

    def line(name, rs):
        rs = sorted(rs)
        return (f"{name:12} n={len(rs):5}  median {float(statistics.median(rs)):.3g}  "
                f"p10 {float(rs[len(rs) // 10]):.3g}  min {float(rs[0]):.3g}")

    for name in sorted(ratios):
        print(line(name, ratios[name]))
    print(line("all", [r for rs in ratios.values() for r in rs]))

    exponents = range(2, 9)
    print("near tangencies at budget 40: certificate over the margin δ (iterations)")
    print(" " * 24 + "".join(f"{f'δ = 1e-{k}':>13}" for k in exponents))
    for template in NEAR_TANGENCIES:
        row = []
        for k in exponents:
            v = quasi_decide(parse(template.format(f"1/10^{k}")), budget=40)
            got = f"{float(v.certificate * 10 ** k):.3g}" if v.certificate else v.outcome
            row.append(f"{f'{got} ({v.iterations})':>13}")
        print(f"{template.split(' . ')[1].format('δ'):24}" + "".join(row))
