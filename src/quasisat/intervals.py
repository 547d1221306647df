"""Closed intervals and boxes with exact rational endpoints.

All endpoints are `fractions.Fraction`, so arithmetic on polynomial
operations is exact and no rounding-mode bookkeeping is needed.  The
transcendental enclosures live in `series`; enclosure widths there are
controlled by a `Precision`.  Term evaluation (`evaluation`) follows
the same rules on integer numerators over a shared denominator and
converts to these classes only at the edges.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence, Union

RatLike = Union[Fraction, int, str]


class DomainError(ValueError):
    """A partial operation (division, sqrt) left its valid domain."""


def rat(x: RatLike) -> Fraction:
    """Coerce to an exact rational. Strings may be 'num/den' or decimal."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def rat_str(x: Fraction) -> str:
    """Serialize a rational as 'num/den' (the JSON wire format)."""
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class RatInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = rat(self.lo), rat(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: RatLike) -> bool:
        x = rat(x)
        return self.lo <= x <= self.hi

    @property
    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

    def issubset(self, other: "RatInterval") -> bool:
        return other.lo <= self.lo and self.hi <= other.hi

    def split(self) -> tuple["RatInterval", "RatInterval"]:
        m = self.mid
        return RatInterval(self.lo, m), RatInterval(m, self.hi)

    # -- arithmetic (exact, outward rounding not needed) --

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return RatInterval(min(p), max(p))

    def divide(self, other: "RatInterval") -> "RatInterval":
        if other.contains_zero:
            raise DomainError("division by an interval containing zero")
        inv = RatInterval(1 / other.hi, 1 / other.lo)
        return self * inv

    def pow_nat(self, n: int) -> "RatInterval":
        if n < 0:
            raise ValueError("exponent must be a natural number")
        if n == 0:
            return RatInterval(Fraction(1), Fraction(1))
        if n % 2 == 1 or self.lo >= 0:
            return RatInterval(self.lo ** n, self.hi ** n)
        if self.hi <= 0:
            return RatInterval(self.hi ** n, self.lo ** n)
        # even power of an interval straddling zero
        return RatInterval(Fraction(0), max(self.lo ** n, self.hi ** n))

    def abs(self) -> "RatInterval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RatInterval(Fraction(0), max(-self.lo, self.hi))

    def __repr__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def ival(lo: RatLike, hi: RatLike | None = None) -> RatInterval:
    """Shorthand constructor; a single argument makes a degenerate interval."""
    lo = rat(lo)
    return RatInterval(lo, lo if hi is None else rat(hi))


@dataclass(frozen=True)
class RatBox:
    intervals: tuple[RatInterval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "intervals", tuple(self.intervals))

    @property
    def dim(self) -> int:
        return len(self.intervals)

    @property
    def width(self) -> Fraction:
        """Maximum component width; the 0-dimensional box has width 0."""
        if not self.intervals:
            return Fraction(0)
        return max(iv.width for iv in self.intervals)

    @property
    def center(self) -> tuple[Fraction, ...]:
        return tuple(iv.mid for iv in self.intervals)

    @property
    def contains_zero(self) -> bool:
        """True iff the origin lies in the box (vacuously for dim 0)."""
        return all(iv.contains_zero for iv in self.intervals)

    def contains(self, point: Sequence[RatLike]) -> bool:
        if len(point) != self.dim:
            raise ValueError("point dimension mismatch")
        return all(iv.contains(x) for iv, x in zip(self.intervals, point))

    def issubset(self, other: "RatBox") -> bool:
        return all(a.issubset(b) for a, b in zip(self.intervals, other.intervals))

    def product(self, other: "RatBox") -> "RatBox":
        """Concatenating Cartesian product; {()} x B == B."""
        return RatBox(self.intervals + other.intervals)

    def replace(self, axis: int, iv: RatInterval) -> "RatBox":
        parts = list(self.intervals)
        parts[axis] = iv
        return RatBox(tuple(parts))

    def __iter__(self) -> Iterator[RatInterval]:
        return iter(self.intervals)

    def __len__(self) -> int:
        return len(self.intervals)

    def __getitem__(self, i: int) -> RatInterval:
        return self.intervals[i]

    def __repr__(self) -> str:
        return "x".join(repr(iv) for iv in self.intervals) if self.intervals else "{()}"


def box(*intervals: RatInterval) -> RatBox:
    return RatBox(tuple(intervals))


EMPTY_BOX = RatBox(())  # the singleton tuple {()}


@dataclass(frozen=True)
class Precision:
    """Transcendental enclosure slack bound 2**-p."""
    p: int

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ValueError("precision must be >= 1")

    @property
    def slack(self) -> Fraction:
        return Fraction(1, 2 ** self.p)
