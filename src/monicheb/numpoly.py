"""Exact rational scalars and dense univariate polynomial arithmetic.

Everything in this module is exact: scalars are ``fractions.Fraction``,
coefficients are Fractions or arbitrary-precision ints, and no floating
point enters any computation.  Polynomials are dense, ascending-by-power
coefficient tuples with trailing zeros stripped; the zero polynomial is
the empty tuple and its degree is the sentinel ``MINUS_INFINITY``.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]

# Degree of the zero polynomial.  Compares below every integer and is
# never equal to one.
MINUS_INFINITY = float("-inf")

_RATIONAL_RE = re.compile(r"\A\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+))?\s*\Z")


def parse_rational(text: str) -> Fraction:
    """Parse "a" or "a/b" (signs allowed on either part) into a reduced Fraction."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in rational: {text!r}")
    return Fraction(num, den)


def format_rational(value: Rat) -> str:
    """Canonical text form: "a" for integers, "a/b" otherwise."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints, lo < hi."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if not self.lo < self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __contains__(self, x: Rat) -> bool:
        return self.lo <= x <= self.hi

    def __str__(self) -> str:
        return f"[{format_rational(self.lo)}, {format_rational(self.hi)}]"


def _strip(coeffs: list) -> tuple:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _convolve(a: Sequence, b: Sequence) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class RatPoly:
    """Dense polynomial with Fraction coefficients, ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        object.__setattr__(self, "coeffs", _strip([Fraction(c) for c in coeffs]))

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def monomial(cls, power: int, coeff: Rat = 1) -> "RatPoly":
        return cls([0] * power + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (RatPoly, IntPoly)):
            return tuple(Fraction(c) for c in other.coeffs) == self.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("RatPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    def __neg__(self) -> "RatPoly":
        return RatPoly([-c for c in self.coeffs])

    def __add__(self, other) -> "RatPoly":
        o = as_rat_coeffs(other)
        n = max(len(self.coeffs), len(o))
        return RatPoly([
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (o[i] if i < len(o) else 0)
            for i in range(n)
        ])

    __radd__ = __add__

    def __sub__(self, other) -> "RatPoly":
        return self + (-as_ratpoly(other))

    def __rsub__(self, other) -> "RatPoly":
        return as_ratpoly(other) + (-self)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly([c * other for c in self.coeffs])
        return RatPoly(_convolve(self.coeffs, as_rat_coeffs(other)))

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "RatPoly":
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = RatPoly([1])
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __call__(self, x: Rat) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __divmod__(self, other: "RatPoly") -> tuple["RatPoly", "RatPoly"]:
        den = as_ratpoly(other)
        if not den:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(den.coeffs) - 1
        lead = den.coeffs[-1]
        if len(rem) - 1 < dn:
            return RatPoly(), self
        quo = [Fraction(0)] * (len(rem) - dn)
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = c / lead
            quo[i - dn] = q
            for j, d in enumerate(den.coeffs):
                rem[i - dn + j] -= q * d
        return RatPoly(quo), RatPoly(rem)

    def __floordiv__(self, other) -> "RatPoly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "RatPoly":
        return divmod(self, other)[1]

    def monic(self) -> "RatPoly":
        if not self:
            raise ValueError("zero polynomial has no monic form")
        return self * (1 / self.coeffs[-1])

    def primitive(self) -> "IntPoly":
        """Positive-scalar multiple with coprime integer coefficients (sign kept)."""
        if not self:
            return IntPoly()
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = math.gcd(*ints)
        return IntPoly([c // g for c in ints])


class IntPoly:
    """Dense polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        checked = []
        for c in coeffs:
            if isinstance(c, Fraction):
                if c.denominator != 1:
                    raise ValueError(f"non-integer coefficient {c}")
                c = c.numerator
            elif not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {c!r}")
            checked.append(c)
        object.__setattr__(self, "coeffs", _strip(checked))

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls()

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPoly":
        return cls([0] * power + [coeff])

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INFINITY

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, RatPoly):
            return other == self
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IntPoly", self.coeffs))

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        ])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if isinstance(other, IntPoly):
            return IntPoly(_convolve(self.coeffs, other.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exp: int) -> "IntPoly":
        if exp < 0:
            raise ValueError("negative polynomial power")
        result = IntPoly([1])
        base = self
        while exp:
            if exp & 1:
                result = result * base
            base = base * base
            exp >>= 1
        return result

    def __call__(self, x: Rat):
        if isinstance(x, int):
            acc = 0
        else:
            x = Fraction(x)
            acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_rat(self) -> RatPoly:
        return RatPoly(self.coeffs)


Poly = Union[RatPoly, IntPoly]


def as_ratpoly(p) -> RatPoly:
    if isinstance(p, RatPoly):
        return p
    if isinstance(p, IntPoly):
        return p.to_rat()
    if isinstance(p, (int, Fraction)):
        return RatPoly([p])
    raise TypeError(f"not a polynomial: {p!r}")


def as_rat_coeffs(p) -> tuple:
    return as_ratpoly(p).coeffs


def poly_eval(p: Poly, x: Rat) -> Fraction:
    """Exact value of p at x by the Horner recurrence."""
    return Fraction(p(x))


def poly_compose(p: Poly, q: Poly) -> RatPoly:
    """General composition p(q(x)), e.g. for the pullbacks x**2 and x*(1-x).

    Horner-style synthetic substitution: fold the coefficients of p from
    the top against q, so no binomial bookkeeping is needed.
    """
    inner = as_ratpoly(q)
    acc = RatPoly()
    for c in reversed(as_rat_coeffs(p)):
        acc = acc * inner + RatPoly([c])
    return acc


def poly_affine_compose(p: Poly, alpha: Rat, beta: Rat) -> RatPoly:
    """Return q with q(x) = p(alpha*x + beta); degree is preserved when alpha != 0."""
    return poly_compose(p, RatPoly([beta, alpha]))


def poly_integrate_product(p: Poly, q: Poly, interval: Interval) -> Fraction:
    """Exact integral of p*q over the interval (coefficient convolution + power rule)."""
    prod = _convolve(as_rat_coeffs(p), as_rat_coeffs(q))
    lo, hi = interval.lo, interval.hi
    total = Fraction(0)
    hi_pow, lo_pow = hi, lo
    for i, c in enumerate(prod):
        if c != 0:
            total += c * (hi_pow - lo_pow) / (i + 1)
        hi_pow *= hi
        lo_pow *= lo
    return total


def to_bernstein(p: Poly, interval: Interval) -> tuple[Fraction, ...]:
    """Bernstein coefficients of p on the interval, degree = max(deg p, 0).

    The first and last coefficients equal p at the interval endpoints.
    """
    q = poly_affine_compose(p, interval.width, interval.lo)
    d = len(q.coeffs) - 1 if q.coeffs else 0
    qc = list(q.coeffs) + [Fraction(0)] * (d + 1 - len(q.coeffs))
    out = []
    for j in range(d + 1):
        acc = Fraction(0)
        for i in range(j + 1):
            acc += Fraction(math.comb(j, i), math.comb(d, i)) * qc[i]
        out.append(acc)
    return tuple(out)


def bernstein_split(coeffs: Sequence[Rat]) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
    """de Casteljau subdivision at the parameter midpoint.

    Returns Bernstein coefficients for the two half-intervals; the shared
    middle value (last of left, first of right) is p at the midpoint.
    """
    if not coeffs:
        raise ValueError("empty Bernstein coefficient list")
    row = [Fraction(c) for c in coeffs]
    left = [row[0]]
    right = [row[-1]]
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2 for i in range(len(row) - 1)]
        left.append(row[0])
        right.append(row[-1])
    return tuple(left), tuple(right[::-1])


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Solve a*l - b*f = g = gcd(a, b) > 0.

    When b != 0, l is normalized into [1, |b|/g]; the triple is exact for
    arbitrary-precision inputs.
    """
    if a == 0 and b == 0:
        raise ValueError("gcd(0, 0) undefined")
    if b == 0:
        return abs(a), (1 if a > 0 else -1), 0
    g = math.gcd(a, b)
    m = abs(b) // g
    if a == 0:
        return g, 1, -(b // g)
    # l solves (a/g)*l == 1 (mod m); normalization lands l in [1, m].
    l = 1 if m == 1 else pow((a // g) % m, -1, m)
    f = (a * l - g) // b
    assert a * l - b * f == g
    return g, l, f


def poly_gcd(p: Poly, q: Poly) -> RatPoly:
    """Monic gcd over the rationals via a primitive remainder sequence."""
    a = as_ratpoly(p).primitive()
    b = as_ratpoly(q).primitive()
    while b:
        r = (a.to_rat() % b.to_rat()).primitive()
        a, b = b, r
    if not a:
        return RatPoly()
    return a.to_rat().monic()


def format_poly(p: Poly) -> str:
    """Canonical serialization: "poly c0 c1 ... cn", ascending powers."""
    return "poly " + " ".join(format_rational(c) for c in p.coeffs) if p.coeffs else "poly"


def parse_poly(text: str) -> Poly:
    """Parse the canonical "poly c0 c1 ... cn" form.

    Returns an IntPoly when every coefficient is an integer, else a RatPoly.
    """
    parts = text.split()
    if not parts or parts[0] != "poly":
        raise ValueError(f"polynomial text must start with 'poly': {text!r}")
    coeffs = [parse_rational(tok) for tok in parts[1:]]
    if all(c.denominator == 1 for c in coeffs):
        return IntPoly([c.numerator for c in coeffs])
    return RatPoly(coeffs)
