"""Catalog of known monic integer Chebyshev constants and exact value algebra.

Values are pairs (r, k) denoting r**(1/k) with r a nonnegative rational,
so quantities like 1/sqrt(2) are represented exactly.  The canonical
form, with k least, is unique, so two values are equal exactly when their
pairs are.  They are ordered by raising both radicands to the exponents
k1/g and k2/g, g = gcd(k1, k2), and a comparison whose powers would pass
MAX_COMPARE_BITS is refused.  Interval endpoints may carry a single
quadratic surd.

Endpoints are compared by the exact sign of a rational plus at most two
surd terms.  Split off the term v = c*sqrt(t) of the largest surd t and
call the rest u.  If u is zero, or u and v have the same sign, that sign
is the answer.  Otherwise the larger magnitude wins: the answer is the
sign of u times the sign of u**2 - c**2*t, which has one surd fewer.
"""
from __future__ import annotations

import functools
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .construct import _factorize, _iroot
from .farey import FareyPair
from .numpoly import parse_rational, format_rational

CONJECTURED = "CONJECTURED"
PROVEN_EQUAL = "PROVEN-EQUAL"

# Largest power, in bits, that ordering two ConstantValues may build,
# estimated as exponent times the larger bit length of the radicand's terms.
# At the cap, q**34379 < s**34380 with q, s ratios of 61-bit integers takes
# 1.0 s (Python 3.11, 2-core host), and the time grows faster than the bits.
MAX_COMPARE_BITS = 2**21


def _bit_size(q: Fraction) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def _rational_kth_root(q: Fraction, k: int) -> Fraction | None:
    num, exact_n = _iroot(q.numerator, k)
    if not exact_n:
        return None
    den, exact_d = _iroot(q.denominator, k)
    if not exact_d:
        return None
    return Fraction(num, den)


@functools.total_ordering
@dataclass(frozen=True)
class ConstantValue:
    """Exact nonnegative real r**(1/k), canonicalized so k is minimal."""

    r: Fraction
    k: int = 1

    def __post_init__(self) -> None:
        r = Fraction(self.r)
        k = int(self.k)
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        if k < 1:
            raise ValueError("root index must be positive")
        if r in (0, 1):
            k = 1
        elif k > 1:
            # r**(1/k) = root**(1/(k/e)) whenever r = root**e.  Only e up to
            # the bit length of r's terms can root r, and a composite e roots
            # r only where its primes, tried first, already did: one pass
            # over e reaches the least k without factoring it
            for e in range(2, min(k, _bit_size(r)) + 1):
                while k % e == 0:
                    root = _rational_kth_root(r, e)
                    if root is None:
                        break
                    r, k = root, k // e
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", k)

    def __eq__(self, other) -> bool:
        # the canonical form is unique, so equal values have equal fields
        if isinstance(other, ConstantValue):
            return (self.r, self.k) == (other.r, other.k)
        if isinstance(other, (int, Fraction)):
            return self.k == 1 and self.r == other
        return NotImplemented

    def __hash__(self) -> int:
        # a rational value (k = 1 in canonical form) hashes as the number,
        # since it compares equal to it
        return hash(self.r) if self.k == 1 else hash((self.r, self.k))

    def __lt__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = ConstantValue(other)
        if not isinstance(other, ConstantValue):
            return NotImplemented
        # r1**(1/k1) < r2**(1/k2) iff r1**(k2/g) < r2**(k1/g)
        g = gcd(self.k, other.k)
        e1, e2 = other.k // g, self.k // g
        bits = max(e1 * _bit_size(self.r), e2 * _bit_size(other.r))
        if bits > MAX_COMPARE_BITS:
            raise ValueError(
                f"ordering roots of index {self.k} and {other.k} needs a power "
                f"of about {bits} bits, over the cap of {MAX_COMPARE_BITS}"
            )
        return self.r**e1 < other.r**e2

    def __float__(self) -> float:
        return float(self.r) ** (1.0 / self.k)

    def root(self, extra: int) -> "ConstantValue":
        """The extra-th root of this value."""
        return ConstantValue(self.r, self.k * extra)

    def __str__(self) -> str:
        if self.k == 1:
            return format_rational(self.r)
        return f"({format_rational(self.r)})^(1/{self.k})"


@functools.total_ordering
@dataclass(frozen=True)
class SymbolicEndpoint:
    """Exact real of the form rat + coef * sqrt(surd), surd squarefree."""

    rat: Fraction = Fraction(0)
    coef: Fraction = Fraction(0)
    surd: int = 1

    def __post_init__(self) -> None:
        rat = Fraction(self.rat)
        coef = Fraction(self.coef)
        surd = int(self.surd)
        if surd < 1:
            raise ValueError("surd must be a positive integer")
        # Pull square factors out of the surd, fold trivial ones into rat.
        # _factorize bounds the work and raises ValueError past its budget.
        if coef != 0:
            square = rest = 1
            for p, e in _factorize(surd).items():
                square *= p ** (e // 2)
                rest *= p ** (e % 2)
            coef *= square
            surd = rest
        if surd == 1:
            rat += coef
            coef = Fraction(0)
        if coef == 0:
            surd = 1
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "surd", surd)

    @property
    def is_rational(self) -> bool:
        return self.coef == 0

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.rat

    def __neg__(self) -> "SymbolicEndpoint":
        return SymbolicEndpoint(-self.rat, -self.coef, self.surd)

    def __sub__(self, other) -> "_SurdSum":
        return _SurdSum.of(self) - _SurdSum.of(other)

    def __add__(self, other) -> "_SurdSum":
        return _SurdSum.of(self) + _SurdSum.of(other)

    def sign(self) -> int:
        return _SurdSum.of(self).sign()

    def __lt__(self, other) -> bool:
        # canonical fields make the dataclass __eq__ exact, and the derived
        # orderings rely on it, so only endpoints are ordered
        if not isinstance(other, SymbolicEndpoint):
            return NotImplemented
        return (self - other).sign() < 0

    def __float__(self) -> float:
        return float(self.rat) + float(self.coef) * self.surd**0.5

    def __str__(self) -> str:
        if self.is_rational:
            return format_rational(self.rat)
        parts = []
        if self.rat != 0:
            parts.append(format_rational(self.rat))
        sign = "-" if self.coef < 0 else ("+" if parts else "")
        mag = abs(self.coef)
        surd_txt = f"sqrt({self.surd})"
        if mag != 1:
            surd_txt = f"{format_rational(mag)}*{surd_txt}"
        parts.append(sign + surd_txt)
        return "".join(parts)


class _SurdSum:
    """Rational + up to two distinct surd terms; supports exact sign tests."""

    def __init__(self, rat: Fraction, terms: dict[int, Fraction]):
        self.rat = rat
        self.terms = {s: c for s, c in terms.items() if c != 0}

    @classmethod
    def of(cls, value) -> "_SurdSum":
        if isinstance(value, _SurdSum):
            return value
        if isinstance(value, SymbolicEndpoint):
            return cls(value.rat, {value.surd: value.coef} if value.coef else {})
        return cls(Fraction(value), {})

    def __add__(self, other) -> "_SurdSum":
        other = _SurdSum.of(other)
        terms = dict(self.terms)
        for s, c in other.terms.items():
            terms[s] = terms.get(s, Fraction(0)) + c
        return _SurdSum(self.rat + other.rat, terms)

    def __sub__(self, other) -> "_SurdSum":
        other = _SurdSum.of(other)
        return self + _SurdSum(-other.rat, {s: -c for s, c in other.terms.items()})

    def sign(self) -> int:
        """Exact sign, by the rule in the module docstring."""
        if not self.terms:
            return (self.rat > 0) - (self.rat < 0)
        if len(self.terms) > 2:
            raise ValueError("more than two distinct surds are not supported")
        rest = dict(self.terms)
        t = max(rest)
        c = rest.pop(t)
        u_sign, v_sign = _SurdSum(self.rat, rest).sign(), (c > 0) - (c < 0)
        if u_sign in (0, v_sign):
            return v_sign
        # u = a + b*sqrt(s), so u**2 - c**2*t = a**2 + b**2*s - c**2*t + 2*a*b*sqrt(s)
        a = self.rat
        s, b = next(iter(rest.items()), (1, 0))
        return u_sign * _SurdSum(a * a + b * b * s - c * c * t, {s: 2 * a * b}).sign()

    @property
    def is_rational(self) -> bool:
        return not self.terms

    def as_rational(self) -> Fraction:
        if self.terms:
            raise ValueError("irrational difference")
        return self.rat


_SURD_TOKEN = re.compile(r"\Asqrt\((\d+)\)\Z")


def parse_endpoint(text: str) -> SymbolicEndpoint:
    """Parse endpoint text: rationals, surd terms, sums, and (expr)/q.

    Accepted forms include "3/7", "sqrt(2)", "-1/2*sqrt(5)", "1/sqrt(2)",
    "(1-sqrt(2))/2", "1+sqrt(3)".  Whitespace may stand between tokens but
    not inside a number or a name ("1 2"), and each sign must be followed
    by a term ("1-", "--1", "-"): ValueError otherwise.
    """
    if re.search(r"\w\s+\w", text):
        raise ValueError(f"malformed endpoint: {text!r}")
    text = "".join(text.split())
    if not text:
        raise ValueError("empty endpoint")
    body, div = text, Fraction(1)
    m = re.match(r"\A\((.*)\)/(\d+)\Z", text)
    if m:
        q = int(m.group(2))
        if q == 0:
            raise ZeroDivisionError(f"zero denominator in endpoint: {text!r}")
        body, div = m.group(1), Fraction(1, q)
    m = re.match(r"\A(-?)1/sqrt\((\d+)\)\Z", body)
    if m:
        s = int(m.group(2))
        if s < 1:
            raise ValueError("surd must be positive")
        sign = -1 if m.group(1) else 1
        return SymbolicEndpoint(0, Fraction(sign, s) * div, s)
    # Split an additive chain, keeping unary signs attached to terms.
    tokens = re.findall(r"[+-]?[^+-]+", body)
    if not tokens or "".join(tokens) != body:
        raise ValueError(f"malformed endpoint: {text!r}")
    rat = Fraction(0)
    coef = Fraction(0)
    surd = 1
    for tok in tokens:
        sign = Fraction(1)
        if tok[0] in "+-":
            sign = Fraction(-1) if tok[0] == "-" else Fraction(1)
            tok = tok[1:]
        if "sqrt" in tok:
            if "*" in tok:
                c_txt, s_txt = tok.split("*", 1)
                c = parse_rational(c_txt)
            else:
                c, s_txt = Fraction(1), tok
            sm = _SURD_TOKEN.match(s_txt)
            if sm is None:
                raise ValueError(f"malformed surd term: {tok!r}")
            s = int(sm.group(1))
            if coef != 0:
                raise ValueError("at most one surd term per endpoint")
            coef, surd = sign * c, s
        else:
            rat += sign * parse_rational(tok)
    return SymbolicEndpoint(rat * div, coef * div, surd)


def _as_endpoint(value) -> SymbolicEndpoint:
    if isinstance(value, SymbolicEndpoint):
        return value
    if isinstance(value, str):
        return parse_endpoint(value)
    return SymbolicEndpoint(Fraction(value))


def point_constant(p: Fraction) -> ConstantValue:
    """Constant of a single rational point: 1/denominator, or 0 at integers.

    Integers contribute nothing (the witness x - m vanishes there); for a
    reduced non-integer a/b no monic integer polynomial can beat 1/b**n in
    absolute value at a/b.
    """
    p = Fraction(p)
    if p.denominator == 1:
        return ConstantValue(Fraction(0))
    return ConstantValue(Fraction(1, p.denominator))


def finite_set_constant(points) -> ConstantValue:
    """Constant of a finite rational set: max of 1/denominator.

    Integer members are allowed but flagged, since they contribute zero.
    """
    best = ConstantValue(Fraction(0))
    for p in points:
        p = Fraction(p)
        if p.denominator == 1:
            warnings.warn(f"integer point {p} contributes nothing", stacklevel=2)
            continue
        cand = ConstantValue(Fraction(1, p.denominator))
        if cand > best:
            best = cand
    return best


PROV_UNIT_FRACTION = "unit-fraction interval"
PROV_REFLECTED_UNIT_FRACTION = "reflected unit-fraction interval"
PROV_SYMMETRIC_UNIT_FRACTION = "symmetric unit-fraction interval"
PROV_SYMMETRIC_SQRT = "symmetric square-root interval"
PROV_HALF_UNIT = "half-unit interval at an integer"
PROV_UNIT = "unit interval"
PROV_DOUBLE_UNIT = "double unit interval"
PROV_SILVER = "silver-ratio interval around 1/2"
PROV_CAPACITY = "capacity formula (length/4, length >= 4)"


def interval_constant(lo, hi) -> tuple[ConstantValue, str] | None:
    """Exact constant for cataloged interval shapes, else None.

    Recognized: [0,1/n], [(n-1)/n,1], [-1/n,1/n], [-1/sqrt(n),1/sqrt(n)],
    [n,n+1/2], [n-1/2,n], [n,n+1], [n,n+2], the silver-ratio interval
    [(1-sqrt(2))/2,(1+sqrt(2))/2], and rational lengths >= 4 where the
    constant equals length/4.  Everything else is unknown by design.
    """
    lo = _as_endpoint(lo)
    hi = _as_endpoint(hi)
    diff = hi - lo
    if diff.sign() <= 0:
        raise ValueError("lo must be strictly smaller than hi")

    half = Fraction(1, 2)
    lo_int = lo.is_rational and lo.rat.denominator == 1
    hi_int = hi.is_rational and hi.rat.denominator == 1

    if diff.is_rational:
        width = diff.as_rational()
        if width == half and (lo_int or hi_int):
            return ConstantValue(half), PROV_HALF_UNIT
        if width == 1 and lo_int:
            return ConstantValue(half), PROV_UNIT
        if width == 2 and lo_int:
            return ConstantValue(half, 2), PROV_DOUBLE_UNIT

    if lo.is_rational and hi.is_rational:
        lo_q, hi_q = lo.rat, hi.rat
        if lo_q == 0 and hi_q.numerator == 1 and hi_q.denominator >= 2:
            return ConstantValue(hi_q), PROV_UNIT_FRACTION
        if hi_q == 1 and (1 - lo_q).numerator == 1 and (1 - lo_q).denominator >= 2:
            return ConstantValue(1 - lo_q), PROV_REFLECTED_UNIT_FRACTION
        if lo_q == -hi_q and hi_q.numerator == 1 and hi_q.denominator >= 2:
            return ConstantValue(hi_q), PROV_SYMMETRIC_UNIT_FRACTION

    # Symmetric [-1/sqrt(n), 1/sqrt(n)]: hi > 0 with hi**2 = 1/n, n >= 2.
    # hi**2 is rational exactly when hi is a pure rational or a pure surd.
    if (lo + hi).sign() == 0 and hi.sign() > 0 and (hi.rat == 0 or hi.coef == 0):
        hi_sq = hi.rat**2 + hi.coef**2 * hi.surd
        if hi_sq.numerator == 1 and hi_sq.denominator >= 2:
            return ConstantValue(hi_sq, 2), PROV_SYMMETRIC_SQRT

    silver_lo = SymbolicEndpoint(half, Fraction(-1, 2), 2)
    silver_hi = SymbolicEndpoint(half, Fraction(1, 2), 2)
    if (lo - silver_lo).sign() == 0 and (hi - silver_hi).sign() == 0:
        return ConstantValue(half), PROV_SILVER

    if diff.is_rational and diff.as_rational() >= 4:
        return ConstantValue(diff.as_rational() / 4), PROV_CAPACITY

    return None


def conjecture_anchor(pair: FareyPair) -> tuple[int, int]:
    """(a, b) for the endpoint a/b of least denominator b >= 2, the lower
    endpoint on a tie.  Its 1/b is the conjectured constant of the pair
    (conjecture_value), and [k, k + 1] has no such endpoint: ValueError.
    """
    ends = [(a, b) for a, b in ((pair.a2, pair.b2), (pair.a1, pair.b1)) if b >= 2]
    if not ends:
        raise ValueError(
            f"[{pair.lo}, {pair.hi}] has two integer endpoints and no conjectured "
            "value; interval_constant catalogs its constant"
        )
    return min(ends, key=lambda end: end[1])


def conjecture_value(pair: FareyPair, witness=None) -> tuple[ConstantValue, str]:
    """Conjectured constant of a consecutive-Farey interval.

    Each endpoint contributes the reciprocal of its denominator; an integer
    endpoint contributes nothing (its point constant vanishes, and the
    finite-set lower bound only applies to denominators >= 2).  A pair of
    two integer endpoints, [k, k + 1], has no conjectured value and is
    refused: its constant is cataloged by interval_constant.  The label
    is CONJECTURED unless a certified witness record for this pair is
    supplied, which upgrades it to PROVEN-EQUAL by combining the two-point
    lower bound with the witness upper bound.
    """
    value = ConstantValue(Fraction(1, conjecture_anchor(pair)[1]))
    if witness is None:
        return value, CONJECTURED
    if not getattr(witness, "is_proof_for", lambda _p: False)(pair):
        raise ValueError("witness record does not certify this pair")
    return value, PROVEN_EQUAL


def transform_constant(value: ConstantValue, kind: str) -> ConstantValue:
    """Push a constant through a monic polynomial preimage.

    Degree-one maps ("shift" by an integer, "negate") preserve the value;
    the degree-two pullbacks ("square" for x**2, "logistic" for x*(1-x))
    take square roots, i.e. (r, k) becomes the canonical form of (r, 2k).
    """
    if kind in ("shift", "negate"):
        return value
    if kind in ("square", "logistic"):
        return ConstantValue(value.r, 2 * value.k)
    raise ValueError(f"unknown transform: {kind!r}")


def surd_pair_constant(n: int) -> ConstantValue:
    """Constant of {1/sqrt(n), -1/sqrt(n)}: (1/n)**(1/2), n >= 2.

    Each point alone has constant zero when irrational, but the pair is
    the x**2 preimage of {1/n}, so the pair constant is 1/sqrt(n).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return ConstantValue(Fraction(1, n), 2)
