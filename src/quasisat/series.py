"""Rigorous enclosures of pi, sin, cos, exp and sqrt over integer intervals.

Arguments and results are the package's one interval format, integer
triples `(lo, hi, den)` with `den > 0` standing for [lo/den, hi/den]
(`intervals.Ival`).  Everything is exact integer arithmetic: truncated
Taylor series with Lagrange remainder bounds, evaluated in fixed point
with directed rounding (result denominators are powers of two), so the
slack added by one enclosure is below 2**-p for precision p.  Arguments
are never reduced by a gcd, and a rational gets the same enclosure over
whatever denominator it is given.  pi is computed on integers too: its
Machin series sums exact partial sums over a common integer denominator,
once per precision, and its enclosure is cached, as are the series
constants per precision.  No `Fraction` is built here.  The sin, cos and
exp values at interval endpoints are kept in least-recently-used caches
of 2**16 entries each.
"""
from __future__ import annotations

import math
from functools import cache, lru_cache

from .intervals import DomainError, Ival

# ---------------------------------------------------------------------------
# fixed-point helpers: an integer n at scale q represents n / 2**q


def _imul(a: tuple[int, int], b: tuple[int, int], q: int) -> tuple[int, int]:
    """Outward-rounded product of fixed-point intervals."""
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p) >> q, -((-max(p)) >> q)


# ---------------------------------------------------------------------------
# pi via Machin's formula, cached per precision


def _arctan_inv(n: int, q: int) -> tuple[int, int, int]:
    """Bracket (lo, hi, den) of arctan(1/n) by the alternating series:
    the last two partial sums, once a term is <= 2**-(q+6).

    Over den = n**(2k+1) * 1*3*...*(2k+1) the k-th term 1/(n**(2k+1) * (2k+1))
    has the numerator 1*3*...*(2k-1), so the partial sums are exact
    integers over a common denominator, never reduced."""
    k, den = 0, n
    term = total = 1  # the k-th term and partial sum, over den
    prev = 0  # the partial sum before the k-th
    while term << (q + 6) > den:
        k += 1
        scale = n * n * (2 * k + 1)
        term *= 2 * k - 1
        prev, den = total * scale, den * scale
        total = prev - term if k % 2 else prev + term
    # consecutive partial sums bracket the limit
    return min(prev, total), max(prev, total), den


@cache
def pi_enclosure(p: int) -> Ival:
    """Enclosure of pi with width <= 2**-p over the denominator 2**(p+4)."""
    q = p + 4
    l5, h5, d5 = _arctan_inv(5, q + 6)
    l239, h239, d239 = _arctan_inv(239, q + 6)
    # 16*arctan(1/5) - 4*arctan(1/239) over the denominator d5*d239
    lo = 16 * l5 * d239 - 4 * h239 * d5
    hi = 16 * h5 * d239 - 4 * l239 * d5
    d = d5 * d239
    return (lo << q) // d, -((-hi << q) // d), 1 << q


# ---------------------------------------------------------------------------
# sin / cos on a reduced argument |y| <= 4.5 (integer fixed-point Taylor)


@cache
def _series_terms(q: int, odd: bool) -> int:
    """Smallest J with 4.5**deg / deg! <= 2**-(q+2) for the remainder degree."""
    j = 0
    while True:
        deg = 2 * j + 3 if odd else 2 * j + 2
        # 9**deg / (2**deg * deg!) <= 2**-(q+2), multiplied out
        if 9 ** deg << (q + 2) <= math.factorial(deg) << deg:
            return j
        j += 1


@cache
def _coeffs(q: int, j_max: int, odd: bool) -> tuple[tuple[int, int], ...]:
    """Fixed-point brackets of 1/(2j+1)! resp. 1/(2j)! for Horner evaluation."""
    out = []
    for j in range(j_max + 1):
        f = math.factorial(2 * j + 1 if odd else 2 * j)
        lo = (1 << q) // f
        hi = lo if lo * f == (1 << q) else lo + 1
        out.append((lo, hi))
    return tuple(out)


@cache
def _remainder_fix(q: int, deg: int) -> int:
    """ceil(4.5**deg / deg! * 2**q) + 1."""
    return -((-9 ** deg << q) // (math.factorial(deg) << deg)) + 1


def _horner_fix(y: tuple[int, int], q: int, odd: bool) -> tuple[int, int]:
    """Truncated Taylor enclosure of sin (odd) or cos over [y]/2**q.

    Requires |y| <= 4.5 * 2**q.  Horner with u = y**2 up to ~20 amplifies
    per-level rounding by |u|, so the loop runs at an extra-wide scale and
    the result is rounded outward to scale q at the end.  As u >= 0, the
    least of the four products of u and acc = [a0, a1] is a0 times u's
    upper end if a0 < 0, else times its lower end, and the greatest is a1
    times u's upper end if a1 > 0, else times its lower end: each step
    takes two products.
    """
    j_max = _series_terms(q, odd)
    extra = 5 * (j_max + 1) + 16  # |u| <= 20.25 < 2**4.4 per Horner level
    q2 = q + extra
    y2 = (y[0] << extra, y[1] << extra)
    u0, u1 = _imul(y2, y2, q2)
    u0 = max(u0, 0)
    coeffs = _coeffs(q2, j_max, odd)
    acc = coeffs[j_max]
    for j in range(j_max - 1, -1, -1):
        # c - u*acc, with u*acc rounded outward to scale q2
        a0, a1 = acc
        c0, c1 = coeffs[j]
        acc = (c0 + (-(a1 * (u1 if a1 > 0 else u0)) >> q2),
               c1 - (a0 * (u1 if a0 < 0 else u0) >> q2))
    if odd:
        acc = _imul(y2, acc, q2)
        r = _remainder_fix(q, 2 * j_max + 3)
    else:
        r = _remainder_fix(q, 2 * j_max + 2)
    return (acc[0] >> extra) - r, -((-acc[1]) >> extra) + r


def _extra_bits(n: int) -> int:
    """Extra bits of pi for multiples of pi up to about n: none below 64,
    then one per doubling of n (Brent & Zimmermann, Modern Computer
    Arithmetic, 4.3)."""
    return max(0, n.bit_length() - 6)


def _reduce_mod_2pi(num: int, den: int, q: int) -> tuple[int, int]:
    """Fixed-point interval for x = num/den reduced into roughly [-pi, pi].

    x - 2*pi*k is off by at most 2*|k| <= |x| times pi's width, so pi's
    precision grows with x's bit length and the reduction error stays
    below 2**-(q+2) for every rational x."""
    if abs(num) <= 4 * den:
        return (num << q) // den, -((-num << q) // den)
    pl, ph, pd = pi_enclosure(q + 8 + _extra_bits(abs(num) // den))
    # k = round(x / 2pi) for pi's midpoint, halves to even
    d = den * (pl + ph)
    k, r = divmod(num * pd, d)
    if 2 * r > d or (2 * r == d and k % 2):
        k += 1
    # x - 2*k*[pl, ph]/pd over the denominator den*pd
    a, b = 2 * den * k * pl, 2 * den * k * ph
    if k < 0:
        a, b = b, a
    x = num * pd
    return ((x - b) << q) // (den * pd), -(((a - x) << q) // (den * pd))


@lru_cache(maxsize=1 << 16)
def _trig_point(num: int, den: int, q: int, is_sin: bool) -> tuple[int, int]:
    # the cells of one grid share a denominator, so the key is not reduced
    y = _reduce_mod_2pi(num, den, q)
    val = _horner_fix(y, q, odd=is_sin)
    return max(val[0], -(1 << q)), min(val[1], 1 << q)


def _critical_hits(x: Ival, p: int, half_offset: bool) -> tuple[bool, bool]:
    """Whether a maximum (+1) or minimum (-1) of sin/cos may lie inside x.

    The extrema are at pi*m with m = j + 1/2 (sin) or m = j (cos), a
    maximum for even j.  For pi enclosed in [pl, ph], the j whose
    [pl*m, ph*m] meets x are exactly the integers from ceil(x.lo/e - off)
    to floor(x.hi/e' - off), with e = ph if x.lo >= 0 else pl and
    e' = pl if x.hi >= 0 else ph; so a j whose containment is undecided
    counts as a hit.  pi's precision grows with |x|, so that pi*m is
    known to about 2**-p.
    """
    lo, hi, den = x
    pl, ph, pd = pi_enclosure(p + 4 + _extra_bits(max(abs(lo), abs(hi)) // den))
    off2 = 1 if half_offset else 0  # twice the offset of m from j
    # x/e - off2/2 = (2*x*pd - off2*den*e) / (2*den*e) for the pi numerator e
    e = ph if lo >= 0 else pl
    j_lo = -((off2 * den * e - 2 * lo * pd) // (2 * den * e))
    e = pl if hi >= 0 else ph
    j_hi = (2 * hi * pd - off2 * den * e) // (2 * den * e)
    if j_lo > j_hi:
        return False, False
    if j_lo < j_hi:
        return True, True
    return j_lo % 2 == 0, j_lo % 2 == 1


def _trig_enclosure(x: Ival, p: int, is_sin: bool) -> Ival:
    lo, hi, den = x
    if hi - lo >= 7 * den:  # wider than a full period
        return -1, 1, 1
    q = p + 4
    a = _trig_point(lo, den, q, is_sin)
    b = a if lo == hi else _trig_point(hi, den, q, is_sin)
    hit_max, hit_min = _critical_hits(x, p, half_offset=is_sin)
    one = 1 << q
    return (-one if hit_min else min(a[0], b[0]),
            one if hit_max else max(a[1], b[1]), one)


def sin_enclosure(x: Ival, p: int) -> Ival:
    return _trig_enclosure(x, p, is_sin=True)


def cos_enclosure(x: Ival, p: int) -> Ival:
    return _trig_enclosure(x, p, is_sin=False)


# ---------------------------------------------------------------------------
# exp


@lru_cache(maxsize=1 << 16)
def _exp_point(num: int, den: int, p: int) -> tuple[int, int, int]:
    """(lo, hi, q) with exp(num/den) in [lo, hi] / 2**q."""
    # halve the argument until |y| <= 1/2, square back afterwards
    k = 0
    while 2 * abs(num) > den << k:
        k += 1
    dy = den << k  # y = num / dy
    q = p + k + (3 * abs(num)) // (2 * den) + 2 + 12
    # exact partial sum s/t_den of the Taylor series with last term
    # t/t_den; |y| <= 1/2 bounds the tail by 2*|t|/t_den
    s = t = t_den = 1
    j = 0
    while True:
        j += 1
        step = dy * j
        t *= num
        t_den *= step
        s = s * step + t
        if abs(t) << (q + 3) <= t_den:
            break
    rem = 2 * abs(t)
    lo = ((s - rem) << q) // t_den
    hi = -((-(s + rem) << q) // t_den)
    for _ in range(k):
        lo, hi = (lo * lo) >> q, -((-(hi * hi)) >> q)
    return lo, hi, q


def exp_enclosure(x: Ival, p: int) -> Ival:
    lo, hi, den = x
    a, b, qa = _exp_point(lo, den, p)
    if lo == hi:
        return a, b, 1 << qa
    _, b, qb = _exp_point(hi, den, p)
    if qa < qb:
        return a << (qb - qa), b, 1 << qb
    return a, b << (qa - qb), 1 << qa


# ---------------------------------------------------------------------------
# sqrt


def sqrt_enclosure(x: Ival, p: int) -> Ival:
    lo, hi, den = x
    if lo < 0:
        raise DomainError("sqrt of an interval containing negative values")
    q = p + 2
    s = math.isqrt((lo << 2 * q) // den)
    t = s if lo == hi else math.isqrt((hi << 2 * q) // den)
    return s, t + 1, 1 << q
