"""Closed intervals and boxes with exact rational endpoints, and the
integer interval format.

`Ival = (lo, hi, den)`, integers with `den > 0` standing for
[lo/den, hi/den], is the package's one interval arithmetic format:
`evaluation` computes on it and the transcendental enclosures of
`series` take and return it.  `RatInterval` and `RatBox`, with
`fractions.Fraction` endpoints, are plain exact values that serve the
quantifier bounds of sentences and the public API; the `Fraction`
reference arithmetic lives in tests/oracles.py.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

RatLike = Union[Fraction, int, str]
Ival = tuple[int, int, int]  # (lo, hi, den): [lo/den, hi/den], den > 0


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
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

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
