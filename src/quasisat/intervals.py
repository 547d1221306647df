"""The integer interval format, and closed intervals with exact rational
endpoints.

`Ival = (lo, hi, den)`, integers with `den > 0` standing for
[lo/den, hi/den], is the package's one interval format: quantifier
bounds and parameter boxes are `Ival`s, a cell of `geometry` is a tuple
of them, `evaluation` computes on them and the enclosures of `series`
take and return them.  `ival` is the one place where rational
endpoints become an `Ival`.  `RatInterval`, with `fractions.Fraction`
endpoints, is only the result of `distance_enclosure`; the `Fraction`
reference arithmetic lives in tests/oracles.py.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm

from .record import Frozen, init_field

RatLike = Fraction | int | str
Ival = tuple[int, int, int]  # (lo, hi, den): [lo/den, hi/den], den > 0


class DomainError(ValueError):
    """A partial operation (division, sqrt) left its valid domain."""


def rat(x: RatLike) -> Fraction:
    """Coerce to an exact rational. Strings may be 'num/den' or decimal.
    A zero denominator or an infinite float is a ValueError, as any other
    malformed rational is."""
    if isinstance(x, Fraction):
        return x
    try:
        return Fraction(x)
    except (ZeroDivisionError, OverflowError):
        raise ValueError(f"not a finite rational: {x!r}") from None


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'num/den' (the JSON wire format)."""
    return f"{x.numerator}/{x.denominator}"


def ival(lo: RatLike, hi: RatLike | None = None) -> Ival:
    """The interval [lo, hi] (a single argument makes a point) over the
    lcm of the endpoints' reduced denominators.  Equal rational intervals
    give equal triples."""
    lo = rat(lo)
    hi = lo if hi is None else rat(hi)
    (a, b), (c, e) = lo.as_integer_ratio(), hi.as_integer_ratio()
    if a * e > c * b:
        raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
    d = lcm(b, e)
    return a * (d // b), c * (d // e), d


class RatInterval(Frozen):
    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: RatLike, hi: RatLike) -> None:
        lo, hi = rat(lo), rat(hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        init_field(self, "lo", lo)
        init_field(self, "hi", hi)

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"
