"""Farey sequences, consecutive pairs, and mediants on [0, 1]."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .numpoly import Interval


@dataclass(frozen=True)
class FareyPair:
    """Consecutive Farey endpoints a2/b2 < a1/b1 with a1*b2 - a2*b1 = 1.

    Index 1 is the upper endpoint and index 2 the lower one, matching the
    usual ordering convention for these intervals.  The endpoints lo and hi
    and the Interval are built once, in __post_init__.  They are plain
    attributes, not fields, so equality, hashing and repr see the four
    integers only.
    """

    a1: int
    b1: int
    a2: int
    b2: int

    def __post_init__(self) -> None:
        if self.b1 < 1 or self.b2 < 1:
            raise ValueError("denominators must be >= 1")
        if gcd(self.a1, self.b1) != 1 or gcd(self.a2, self.b2) != 1:
            raise ValueError("endpoints must be in lowest terms")
        if self.a1 * self.b2 - self.a2 * self.b1 != 1:
            raise ValueError(
                f"not a consecutive Farey pair: {self.a2}/{self.b2}, {self.a1}/{self.b1}"
            )
        # with b1, b2 >= 1 this gives hi - lo = 1/(b1*b2) > 0, so the
        # endpoints need no order check
        lo, hi = Fraction(self.a2, self.b2), Fraction(self.a1, self.b1)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "_interval", Interval(lo, hi))

    @classmethod
    def from_endpoints(cls, lo: Fraction, hi: Fraction) -> "FareyPair":
        lo, hi = Fraction(lo), Fraction(hi)
        return cls(hi.numerator, hi.denominator, lo.numerator, lo.denominator)

    def interval(self) -> Interval:
        return self._interval

    def __str__(self) -> str:
        return f"({self.a2}/{self.b2}, {self.a1}/{self.b1})"


def farey_sequence(order: int) -> list[Fraction]:
    """All reduced fractions in [0, 1] with denominator <= order, ascending.

    Uses the classic next-term recurrence from an adjacent pair, O(1) per
    term; sorting all fractions is kept only as a test oracle.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    a, b, c, d = 0, 1, 1, order
    out = [Fraction(0, 1)]
    while c <= order:
        k = (order + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append(Fraction(a, b))
    return out


def is_consecutive_pair(lo: Fraction, hi: Fraction) -> bool:
    """True iff hi = a1/b1 and lo = a2/b2 satisfy a1*b2 - a2*b1 = 1."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo >= hi:
        raise ValueError("lo must be strictly smaller than hi")
    return hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1


def mediant(pair: FareyPair) -> Fraction:
    """The next Farey fraction strictly between the pair.

    (a1+a2)/(b1+b2) is automatically in lowest terms because the pair has
    determinant one.
    """
    med = Fraction(pair.a1 + pair.a2, pair.b1 + pair.b2)
    assert med.denominator == pair.b1 + pair.b2
    return med


def farey_intervals(order: int) -> list[FareyPair]:
    """All adjacent pairs of the Farey sequence of the given order."""
    seq = farey_sequence(order)
    return [
        FareyPair.from_endpoints(seq[i], seq[i + 1])
        for i in range(len(seq) - 1)
    ]
