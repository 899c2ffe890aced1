"""Exact rational scalars and dense univariate integer polynomials.

Everything in this module is exact: scalars are ``fractions.Fraction``,
polynomial coefficients are arbitrary-precision ints, Bernstein
coefficients are integer numerators over one positive denominator, and no
floating point enters any computation.  Polynomials are dense,
ascending-by-power coefficient tuples with trailing zeros stripped; the
zero polynomial is the empty tuple and its degree is -1.
"""
from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, mul
from typing import Iterable, Sequence, Union

Rat = Union[int, Fraction]

_RATIONAL_RE = re.compile(r"\A\s*([+-]?\d+)\s*(?:/\s*([+-]?\d+))?\s*\Z")


def parse_rational_pair(text: str) -> tuple[int, int]:
    """Parse "a" or "a/b" (signs allowed on either part) into the reduced
    integer pair (a, b) with b > 0, building no Fraction."""
    m = _RATIONAL_RE.match(text)
    if m is None:
        raise ValueError(f"malformed rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ZeroDivisionError(f"zero denominator in rational: {text!r}")
    if den < 0:
        num, den = -num, -den
    g = math.gcd(num, den)
    return num // g, den // g


def parse_rational(text: str) -> Fraction:
    """Parse "a" or "a/b" (signs allowed on either part) into a reduced Fraction."""
    return Fraction(*parse_rational_pair(text))


def format_rational(value: Rat) -> str:
    """Canonical text form: "a" for integers, "a/b" otherwise."""
    q = Fraction(value)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with exact rational endpoints, lo < hi.

    The integer frame (a, w, m), with [lo, hi] = [a/m, (a + w)/m], m > 0
    the least common denominator of lo and hi and w > 0, is computed once,
    in __post_init__, from the endpoints' integers.  It is a plain
    attribute, not a field, so equality, hashing and repr see lo and hi
    only.  The width hi - lo is w/m.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        lo, hi = Fraction(self.lo), Fraction(self.hi)
        m = math.lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (m // lo.denominator)
        w = hi.numerator * (m // hi.denominator) - a
        if w <= 0:
            raise ValueError(f"empty interval: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "frame", (a, w, m))

    @property
    def width(self) -> Fraction:
        return Fraction(self.frame[1], self.frame[2])

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


class IntPoly:
    """Dense polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        checked = []
        for c in coeffs:
            # The int test comes first: it is the common case, and the
            # Fraction test goes through the slower ABC instance check.
            if not isinstance(c, int):
                if not isinstance(c, Fraction):
                    raise TypeError(f"integer coefficient expected, got {c!r}")
                if c.denominator != 1:
                    raise ValueError(
                        f"non-integer coefficient {c}: polynomials have integer coefficients"
                    )
                c = c.numerator
            checked.append(c)
        object.__setattr__(self, "coeffs", _strip(checked))

    @classmethod
    def monomial(cls, power: int, coeff: int = 1) -> "IntPoly":
        return cls([0] * power + [coeff])

    @property
    def degree(self) -> int:
        """Index of the leading coefficient; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
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

    def __floordiv__(self, other: "IntPoly") -> "IntPoly":
        """Exact quotient in Z[x]; ValueError when other does not divide self.

        A primitive divisor that divides self over the rationals divides it
        over the integers (Gauss's lemma).
        """
        if not isinstance(other, IntPoly):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        dn = len(den) - 1
        lead = den[-1]
        quo = [0] * max(len(rem) - dn, 0)
        for i in range(len(rem) - 1, dn - 1, -1):
            q, r = divmod(rem[i], lead)
            if r:
                raise ValueError("inexact polynomial division")
            quo[i - dn] = q
            if q:
                for j in range(dn):
                    rem[i - dn + j] -= q * den[j]
        if any(rem[:dn]):
            raise ValueError("inexact polynomial division")
        return IntPoly(quo)

    def __call__(self, x: Rat):
        """Exact value at x: an int for an int argument, else a Fraction."""
        if isinstance(x, int):
            return homogeneous_value(self, x, 1)
        x = Fraction(x)
        if not self.coeffs:
            return Fraction(0)
        return Fraction(
            homogeneous_value(self, x.numerator, x.denominator),
            x.denominator ** (len(self.coeffs) - 1),
        )

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def primitive(self) -> "IntPoly":
        """self divided by its content, the positive gcd of the coefficients."""
        g = math.gcd(*self.coeffs)
        return IntPoly([c // g for c in self.coeffs]) if g > 1 else self


# Runs of at most this many coefficients are evaluated by Horner's rule.
_HORNER_LEAF = 32
# Above _HORNER_LEAF, the halving stops at runs of at most this many
# coefficients, each one dot product against a row of weights.
_DOT_LEAF = 8


def homogeneous_value(p: IntPoly, a: int, b: int) -> int:
    """b**deg(p) * p(a/b) as an exact integer; 0 for the zero polynomial.

    This is sum c_i a**i b**(n-i), n = deg p, defined for any integers a
    and b.  Up to _HORNER_LEAF coefficients it is Horner's rule.  Above,
    the coefficients are split in halves lo and hi, whose values combine
    as b**len(hi) * H(lo) + a**len(lo) * H(hi), H being the same sum over
    a run of coefficients.  Balanced splits keep the big-integer products
    balanced, where Horner's rule at high degree multiplies a huge
    accumulator by a small factor once per coefficient (Brent &
    Zimmermann, Modern Computer Arithmetic, 2010, section 1.7).  The
    halving gives runs of at most two lengths per level, so each power of
    a and b is computed once per call; a run of at most _DOT_LEAF
    coefficients is the dot product sum c_i w_i with the weight row
    w_i = a**i b**(L-1-i), also computed once per run length L.
    """
    return _homogeneous(p.coeffs, a, b)


def _homogeneous(coeffs: Sequence[int], a: int, b: int) -> int:
    """sum c_i a**i b**(d-i) over the run, d = len(coeffs) - 1."""
    if len(coeffs) <= _HORNER_LEAF:
        acc = 0
        scale = 1
        for c in reversed(coeffs):
            acc = acc * a + c * scale
            scale *= b
        return acc
    a_power = functools.cache(lambda k: a**k)
    b_power = functools.cache(lambda k: b**k)
    weights = functools.cache(lambda size: [a**i * b ** (size - 1 - i) for i in range(size)])

    def run(lo: int, hi: int) -> int:
        size = hi - lo
        if size <= _DOT_LEAF:
            return sum(map(mul, coeffs[lo:hi], weights(size)))
        mid = size // 2
        return b_power(size - mid) * run(lo, lo + mid) + a_power(mid) * run(lo + mid, hi)

    return run(0, len(coeffs))


def poly_integrate_product(p: IntPoly, q: IntPoly, interval: Interval) -> Fraction:
    """Exact integral of p*q over the interval (coefficient convolution + power rule)."""
    prod = _convolve(p.coeffs, q.coeffs)
    lo, hi = interval.lo, interval.hi
    total = Fraction(0)
    hi_pow, lo_pow = hi, lo
    for i, c in enumerate(prod):
        if c != 0:
            total += c * (hi_pow - lo_pow) / (i + 1)
        hi_pow *= hi
        lo_pow *= lo
    return total


def to_bernstein(p: IntPoly, interval: Interval) -> tuple[tuple[int, ...], int]:
    """Bernstein coefficients of p on the interval, degree n = max(deg p, 0),
    as integer numerators over one positive denominator: (nums, den).

    Coefficient j is nums[j] / den, and the first and last equal p at the
    interval endpoints.  bernstein_numerators converts p's coefficients on
    the interval's integer frame [a/m, (a + w)/m].
    """
    return bernstein_numerators(p.coeffs or (0,), *interval.frame)


@functools.lru_cache(maxsize=32)
def _bernstein_weights(n: int) -> tuple[int, tuple[int, ...]]:
    """(L, row) for L = lcm_i C(n, i) and row[i] = L / C(n, i)."""
    binomials = [math.comb(n, i) for i in range(n + 1)]
    lcm = math.lcm(*binomials)
    return lcm, tuple(lcm // c for c in binomials)


def bernstein_numerators(
    coeffs: Sequence[int], a: int, w: int, m: int
) -> tuple[tuple[int, ...], int]:
    """to_bernstein on the interval [a/m, (a + w)/m], for m > 0 and w > 0,
    of the polynomial with the nonempty coefficient sequence coeffs.

    P(y) = m**n p(y/m) has integer coefficients, n = len(coeffs) - 1, and
    m**n p((a + w t)/m) = P(a + w t): a Taylor shift of P by a, then
    coefficient i scaled by w**i, gives the power coefficients q_i in t.
    Coefficient j is S_j / (C(n, j) m**n) with S_j = sum_i C(n-i, j-i) q_i,
    and C(n-i, j-i) / C(n, j) = C(j, i) / C(n, i).  So with L = lcm_i C(n, i)
    and den = L m**n, nums[j] = sum_i C(j, i) q_i L / C(n, i): the binomial
    transform of the q_i scaled by the weight row L / C(n, i), cached per
    degree.  The transform is n passes of neighbour sums, additions only:
    pass k adds q[j - 1] to q[j] for j from n down to k + 1 (Farouki &
    Rajan, CAGD 5, 1988).
    """
    n = len(coeffs) - 1
    q = [c * m ** (n - i) for i, c in enumerate(coeffs)]
    if a:
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                q[k] += a * q[k + 1]
    lcm, row = _bernstein_weights(n)
    power = 1
    for i in range(n + 1):
        q[i] *= power * row[i]
        power *= w
    # each pass reads the old q[j - 1], as j runs from n down to k + 1
    for k in range(n):
        q[k + 1:] = map(add, q[k + 1:], q[k:n])
    return tuple(q), lcm * m**n


def bernstein_split(nums: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """de Casteljau subdivision at the parameter midpoint, in integers.

    nums are the Bernstein numerators of a degree-n polynomial over some
    denominator den; returns the numerators of the two half-intervals, both
    over den << n.  Each level sums neighbours without halving, so level k
    stands over den << k and is shifted left by n - k.  The shared middle
    value (last of left, first of right) is p at the midpoint.
    """
    if not nums:
        raise ValueError("empty Bernstein coefficient list")
    n = len(nums) - 1
    row = list(nums)
    left = [row[0] << n]
    right = [row[-1] << n]
    for shift in range(n - 1, -1, -1):
        row = list(map(add, row, row[1:]))
        left.append(row[0] << shift)
        right.append(row[-1] << shift)
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


def primitive_remainder(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive part of the remainder of a by b, a positive multiple of it.

    Pseudo-division that scales the running remainder by the positive
    |lc(b)| / gcd(top, lc(b)) before each step, so every coefficient stays
    an integer and the signs of the rational remainder are kept.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    den = b.coeffs
    dn = len(den) - 1
    scale = abs(den[-1])
    sign = 1 if den[-1] > 0 else -1
    while len(rem) > dn:
        top = rem.pop()
        if top == 0:
            continue
        g = math.gcd(top, scale)
        mult, q = scale // g, sign * (top // g)
        if mult != 1:
            rem = [mult * c for c in rem]
        shift = len(rem) - dn
        for j in range(dn):
            rem[shift + j] -= q * den[j]
    return IntPoly(rem).primitive()


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd of p and q with a positive leading coefficient (zero
    when both are zero), by a primitive remainder sequence over Z."""
    a, b = p.primitive(), q.primitive()
    while b:
        a, b = b, primitive_remainder(a, b)
    return -a if a and a.coeffs[-1] < 0 else a


def format_poly(p: IntPoly) -> str:
    """Canonical serialization: "poly c0 c1 ... cn", ascending powers."""
    return "poly " + " ".join(format_rational(c) for c in p.coeffs) if p.coeffs else "poly"


def _parse_coefficient(token: str) -> Rat:
    """An integer token (optional sign, decimal digits) goes straight to
    int; any other token goes through parse_rational.  str.isdecimal holds
    for exactly the characters that _RATIONAL_RE's \\d matches (Unicode
    category Nd), so the tokens accepted are parse_rational's: a bare int()
    would also take "1_0"."""
    digits = token[1:] if token[0] in "+-" else token
    return int(token) if digits.isdecimal() else parse_rational(token)


def parse_poly(text: str) -> IntPoly:
    """Parse the canonical "poly c0 c1 ... cn" form.

    Every coefficient must be an integer (a form such as 4/2 is read as 2);
    ValueError otherwise.  A coefficient token is read by parse_rational's
    grammar, and an integer token goes straight to int with no Fraction.
    """
    parts = text.split()
    if not parts or parts[0] != "poly":
        raise ValueError(f"polynomial text must start with 'poly': {text!r}")
    return IntPoly(_parse_coefficient(tok) for tok in parts[1:])
