"""Rigorous enclosures of pi, sin, cos, exp and sqrt over rational intervals.

Everything is computed in exact rational arithmetic: truncated Taylor
series with Lagrange remainder bounds, evaluated in fixed-point integer
arithmetic with directed rounding (denominators are powers of two), so
results stay rational and the slack added by one enclosure is below
2**-p for precision p.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .intervals import DomainError, RatInterval

# ---------------------------------------------------------------------------
# fixed-point helpers: an integer n at scale q represents n / 2**q


def _fix_floor(x: Fraction, q: int) -> int:
    return (x.numerator << q) // x.denominator


def _fix_ceil(x: Fraction, q: int) -> int:
    return -((-x.numerator << q) // x.denominator)


def _from_fix(n: int, q: int) -> Fraction:
    return Fraction(n, 1 << q)


def _imul(a: tuple[int, int], b: tuple[int, int], q: int) -> tuple[int, int]:
    """Outward-rounded product of fixed-point intervals."""
    p = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(p) >> q, -((-max(p)) >> q)


def _isub(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    return a[0] - b[1], a[1] - b[0]


# ---------------------------------------------------------------------------
# pi via Machin's formula, cached per precision

_pi_cache: dict[int, RatInterval] = {}


def _arctan_inv(n: int, q: int) -> tuple[Fraction, Fraction]:
    """Bracket of arctan(1/n) from the alternating series."""
    total = Fraction(0)
    k = 0
    inv = Fraction(1, n)
    power = inv
    inv2 = inv * inv
    tol = Fraction(1, 1 << (q + 6))
    lo = hi = total
    while True:
        term = power / (2 * k + 1)
        if k % 2 == 0:
            total += term
            hi = total
            lo = total - term  # next partial sum is below
        else:
            total -= term
            lo = total
            hi = total + term
        if term <= tol:
            # consecutive partial sums bracket the limit
            return min(lo, total), max(hi, total)
        power *= inv2
        k += 1


def pi_enclosure(p: int) -> RatInterval:
    """Enclosure of pi with width <= 2**-p and dyadic endpoints."""
    q = p + 4
    cached = _pi_cache.get(q)
    if cached is not None:
        return cached
    a5 = _arctan_inv(5, q + 6)
    a239 = _arctan_inv(239, q + 6)
    lo = 16 * a5[0] - 4 * a239[1]
    hi = 16 * a5[1] - 4 * a239[0]
    enc = RatInterval(_from_fix(_fix_floor(lo, q), q), _from_fix(_fix_ceil(hi, q), q))
    _pi_cache[q] = enc
    return enc


# ---------------------------------------------------------------------------
# sin / cos on a reduced argument |y| <= 4.5 (integer fixed-point Taylor)

_sin_terms_cache: dict[int, int] = {}
_cos_terms_cache: dict[int, int] = {}
_sin_coeff_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}
_cos_coeff_cache: dict[tuple[int, int], list[tuple[int, int]]] = {}


def _series_terms(q: int, odd: bool, cache: dict[int, int]) -> int:
    """Smallest J with 4.5**deg / deg! <= 2**-(q+2) for the remainder degree."""
    got = cache.get(q)
    if got is not None:
        return got
    bound = Fraction(1, 1 << (q + 2))
    j = 0
    while True:
        deg = 2 * j + 3 if odd else 2 * j + 2
        if Fraction(9, 2) ** deg / math.factorial(deg) <= bound:
            cache[q] = j
            return j
        j += 1


def _coeffs(q: int, j_max: int, odd: bool) -> list[tuple[int, int]]:
    """Fixed-point brackets of 1/(2j+1)! resp. 1/(2j)! for Horner evaluation."""
    cache = _sin_coeff_cache if odd else _cos_coeff_cache
    key = (q, j_max)
    got = cache.get(key)
    if got is not None:
        return got
    out = []
    for j in range(j_max + 1):
        f = math.factorial(2 * j + 1 if odd else 2 * j)
        lo = (1 << q) // f
        hi = lo if lo * f == (1 << q) else lo + 1
        out.append((lo, hi))
    cache[key] = out
    return out


_rem_cache: dict[tuple[int, int], int] = {}


def _remainder_fix(q: int, deg: int) -> int:
    key = (q, deg)
    got = _rem_cache.get(key)
    if got is None:
        got = _fix_ceil(Fraction(9, 2) ** deg / math.factorial(deg), q) + 1
        _rem_cache[key] = got
    return got


def _horner_fix(y: tuple[int, int], q: int, odd: bool) -> tuple[int, int]:
    """Truncated Taylor enclosure of sin (odd) or cos over [y]/2**q.

    Requires |y| <= 4.5 * 2**q.  Horner with u = y**2 up to ~20 amplifies
    per-level rounding by |u|, so the loop runs at an extra-wide scale and
    the result is rounded outward to scale q at the end.
    """
    terms_cache = _sin_terms_cache if odd else _cos_terms_cache
    j_max = _series_terms(q, odd, terms_cache)
    extra = 5 * (j_max + 1) + 16  # |u| <= 20.25 < 2**4.4 per Horner level
    q2 = q + extra
    y2 = (y[0] << extra, y[1] << extra)
    u = _imul(y2, y2, q2)
    u = (max(u[0], 0), u[1])
    coeffs = _coeffs(q2, j_max, odd)
    acc = coeffs[j_max]
    for j in range(j_max - 1, -1, -1):
        acc = _isub(coeffs[j], _imul(u, acc, q2))
    if odd:
        acc = _imul(y2, acc, q2)
        r = _remainder_fix(q, 2 * j_max + 3)
    else:
        r = _remainder_fix(q, 2 * j_max + 2)
    return (acc[0] >> extra) - r, -((-acc[1]) >> extra) + r


def _sin_fix(y: tuple[int, int], q: int) -> tuple[int, int]:
    return _horner_fix(y, q, odd=True)


def _cos_fix(y: tuple[int, int], q: int) -> tuple[int, int]:
    return _horner_fix(y, q, odd=False)


def _extra_bits(n: int) -> int:
    """Extra bits of pi for multiples of pi up to about n: none below 64,
    then one per doubling of n (Brent & Zimmermann, Modern Computer
    Arithmetic, 4.3)."""
    return max(0, n.bit_length() - 6)


def _reduce_mod_2pi(x: Fraction, q: int) -> tuple[int, int]:
    """Fixed-point interval for x reduced into roughly [-pi, pi].

    x - 2*pi*k is off by at most 2*|k| <= |x| times pi's width, so pi's
    precision grows with x's bit length and the reduction error stays
    below 2**-(q+2) for every rational x."""
    if abs(x) <= 4:
        return _fix_floor(x, q), _fix_ceil(x, q)
    pi = pi_enclosure(q + 8 + _extra_bits(abs(x.numerator) // x.denominator))
    two_pi_lo, two_pi_hi = 2 * pi.lo, 2 * pi.hi
    k = round(x / (two_pi_lo + two_pi_hi) * 2)
    p1, p2 = k * two_pi_lo, k * two_pi_hi
    y_lo, y_hi = x - max(p1, p2), x - min(p1, p2)
    return _fix_floor(y_lo, q), _fix_ceil(y_hi, q)


_point_cache: dict[tuple[Fraction, int, bool], tuple[int, int]] = {}
_POINT_CACHE_MAX = 700_000


def _trig_point(x: Fraction, q: int, is_sin: bool) -> tuple[int, int]:
    key = (x, q, is_sin)
    got = _point_cache.get(key)
    if got is not None:
        return got
    y = _reduce_mod_2pi(x, q)
    val = _sin_fix(y, q) if is_sin else _cos_fix(y, q)
    val = (max(val[0], -(1 << q)), min(val[1], 1 << q))
    if len(_point_cache) >= _POINT_CACHE_MAX:
        _point_cache.clear()
    _point_cache[key] = val
    return val


def _critical_hits(x: RatInterval, p: int, half_offset: bool) -> tuple[bool, bool]:
    """Whether a maximum (+1) or minimum (-1) of sin/cos may lie inside x.

    The extrema are at pi*m with m = j + 1/2 (sin) or m = j (cos), a
    maximum for even j.  For pi enclosed in [pl, ph], the j whose
    [pl*m, ph*m] meets x are exactly the integers from ceil(x.lo/e - off)
    to floor(x.hi/e' - off), with e = ph if x.lo >= 0 else pl and
    e' = pl if x.hi >= 0 else ph; so a j whose containment is undecided
    counts as a hit.  pi's precision grows with |x|, so that pi*m is
    known to about 2**-p.
    """
    mag = max(abs(x.lo), abs(x.hi))
    pi = pi_enclosure(p + 4 + _extra_bits(mag.numerator // mag.denominator))
    off2 = 1 if half_offset else 0  # twice the offset of m from j
    # x/e - off2/2 as the fraction num/den, den > 0, for the pi endpoint e
    lo_e = pi.hi if x.lo >= 0 else pi.lo
    hi_e = pi.lo if x.hi >= 0 else pi.hi
    num = 2 * x.lo.numerator * lo_e.denominator - off2 * x.lo.denominator * lo_e.numerator
    j_lo = -(-num // (2 * x.lo.denominator * lo_e.numerator))
    num = 2 * x.hi.numerator * hi_e.denominator - off2 * x.hi.denominator * hi_e.numerator
    j_hi = num // (2 * x.hi.denominator * hi_e.numerator)
    if j_lo > j_hi:
        return False, False
    if j_lo < j_hi:
        return True, True
    return j_lo % 2 == 0, j_lo % 2 == 1


def _trig_enclosure(x: RatInterval, p: int, is_sin: bool) -> RatInterval:
    one = Fraction(1)
    if x.width >= 7:  # wider than a full period
        return RatInterval(-one, one)
    q = p + 4
    a = _trig_point(x.lo, q, is_sin)
    if x.is_degenerate:
        b = a
    else:
        b = _trig_point(x.hi, q, is_sin)
    lo = min(a[0], b[0])
    hi = max(a[1], b[1])
    hit_max, hit_min = _critical_hits(x, p, half_offset=is_sin)
    if hit_max:
        hi = 1 << q
    if hit_min:
        lo = -(1 << q)
    return RatInterval(max(_from_fix(lo, q), -one), min(_from_fix(hi, q), one))


def sin_enclosure(x: RatInterval, p: int) -> RatInterval:
    return _trig_enclosure(x, p, is_sin=True)


def cos_enclosure(x: RatInterval, p: int) -> RatInterval:
    return _trig_enclosure(x, p, is_sin=False)


# ---------------------------------------------------------------------------
# exp

_exp_cache: dict[tuple[Fraction, int], RatInterval] = {}


def _exp_point(x: Fraction, p: int) -> RatInterval:
    key = (x, p)
    got = _exp_cache.get(key)
    if got is not None:
        return got
    # halve the argument until |y| <= 1/2, square back afterwards
    k = 0
    y = x
    while abs(y) > Fraction(1, 2):
        y /= 2
        k += 1
    mag_bits = int(Fraction(3, 2) * abs(x)) + 2
    q = p + k + mag_bits + 12
    # Taylor with tail bound: |x|<=1/2 gives tail <= 2 * |y|**(J+1)/(J+1)!
    total = Fraction(1)
    term = Fraction(1)
    j = 0
    tol = Fraction(1, 1 << (q + 2))
    while True:
        j += 1
        term *= y / j
        total += term
        if 2 * abs(term) <= tol:
            break
    rem = 2 * abs(term)
    lo, hi = total - rem, total + rem
    lo = _from_fix(_fix_floor(lo, q), q)
    hi = _from_fix(_fix_ceil(hi, q), q)
    for _ in range(k):
        lo, hi = lo * lo, hi * hi
        lo = _from_fix(_fix_floor(lo, q), q)
        hi = _from_fix(_fix_ceil(hi, q), q)
    enc = RatInterval(lo, hi)
    if len(_exp_cache) >= 100_000:
        _exp_cache.clear()
    _exp_cache[key] = enc
    return enc


def exp_enclosure(x: RatInterval, p: int) -> RatInterval:
    lo = _exp_point(x.lo, p)
    hi = lo if x.is_degenerate else _exp_point(x.hi, p)
    return RatInterval(lo.lo, hi.hi)


# ---------------------------------------------------------------------------
# sqrt

def _sqrt_point(x: Fraction, p: int) -> RatInterval:
    q = p + 2
    m = (x.numerator << (2 * q)) // x.denominator
    s = math.isqrt(m)
    return RatInterval(Fraction(s, 1 << q), Fraction(s + 1, 1 << q))


def sqrt_enclosure(x: RatInterval, p: int) -> RatInterval:
    if x.lo < 0:
        raise DomainError("sqrt of an interval containing negative values")
    lo = _sqrt_point(x.lo, p)
    hi = lo if x.is_degenerate else _sqrt_point(x.hi, p)
    return RatInterval(lo.lo, hi.hi)
