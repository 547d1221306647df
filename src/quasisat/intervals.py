"""Closed intervals and boxes with exact rational endpoints.

All endpoints are `fractions.Fraction`.  These are plain exact values:
the package's one interval arithmetic is `evaluation`'s, on integer
numerators, which converts to these classes only at the edges (the
`Fraction` reference arithmetic lives in tests/oracles.py).  The
transcendental enclosures of `series` return them, with widths
controlled by a `Precision`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

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

    @property
    def contains_zero(self) -> bool:
        return self.lo <= 0 <= self.hi

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

    def product(self, other: "RatBox") -> "RatBox":
        """Concatenating Cartesian product; {()} x B == B."""
        return RatBox(self.intervals + other.intervals)

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
