"""Rigorous decisions about polynomial sup norms on rational intervals.

For B = N/D the bound |f| <= B holds on [lo, hi] iff both integer
polynomials N - D f and N + D f are nonnegative there, so the decision is:
convert f to Bernstein form once, check |f| at both endpoints from the
first and last coefficients, settle each factor whose Bernstein
numerators are all >= 0 by the convex-hull property, and only for a
factor with a negative numerator find a point of (lo, hi) where it is
negative, or prove there is none.  That search is integer de Casteljau
subdivision of Bernstein coefficients, which ends on a squarefree
polynomial (Collins & Akritas, SYMSAC 1976; Eigenwillig, Sharma & Yap,
ISSAC 2006).  A remainder sequence mod a word-size prime proves a factor
q squarefree in the usual case; otherwise the subdivision runs on its
odd-multiplicity part (q / g) / odd(g), g = gcd(q, q'), where q changes
sign.  Touch points, where f attains its bound, are even-multiplicity
roots of a factor and need no epsilon padding.  The sup-norm enclosure
isolates the critical points of f by the same subdivision, with
Descartes' rule of signs on the Bernstein coefficients of f', or of its
odd part when the modular test does not prove f' squarefree.  Its nodes
are integer pairs (a, m) for [a/m, (a + w)/m] at a fixed w, from the
isolation through the refinement (Rouillier & Zimmermann, J. Comput.
Appl. Math. 162, 2004), and its bounds are integer pairs compared by
cross-multiplication: no Fraction is built per node.

A Bernstein-coefficient subdivision prefilter runs first as a cheap
sufficient check; it is sound but incomplete, stopping at a fixed depth,
and the subdivision decision is the fallback.  The prefilter and the
decision share one walk, _first_exceeding, on the same integer nodes: a
node is a leaf once its numerators are within a limit, here |c| within
the bound for the prefilter and c >= 0 for a factor of the decision, and
a midpoint beyond it is the refutation point, the one Fraction built.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .constants import ConstantValue, conjecture_anchor, conjecture_value
from .farey import FareyPair
from .numpoly import (
    IntPoly,
    Interval,
    bernstein_numerators,
    bernstein_split,
    format_rational,
    homogeneous_value,
    interval_frame,
    poly_gcd,
    to_bernstein,
)

# Subdivision depth of the Bernstein prefilter.  Verdicts do not depend on
# it: the prefilter is sound, and the subdivision decision settles what it
# leaves inconclusive.
PREFILTER_DEPTH = 12


class Verdict(Enum):
    CERTIFIED_AT_MOST = "certified"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class NormCertificate:
    """Machine-checkable verdict that sup |f| on an interval is <= bound."""

    verdict: Verdict
    bound: Fraction
    method: str  # "subdivision" or "bernstein"
    refutation_point: Fraction | None = None
    depth: int = 0

    def render(self) -> list[str]:
        lines = [
            f"status={self.verdict.value}",
            f"bound={format_rational(self.bound)}",
            f"method={self.method}",
        ]
        if self.refutation_point is not None:
            lines.append(f"refutation_point={format_rational(self.refutation_point)}")
        return lines


def _odd_part(p: IntPoly, g: IntPoly) -> IntPoly:
    """Odd-multiplicity part of p up to a constant factor, given
    g = gcd(p, p') up to sign, primitive.

    For p = c prod f_i**i, g is prod f_i**(i-1) up to sign, whose
    odd-multiplicity factors are the f_i of even i: so p / g divided by the
    odd part of g is c times the product of the f_i of odd i.  Every
    divisor is primitive, so each division is exact over the integers.
    """
    if g.degree == 0:
        return p
    return (p // g) // _odd_part(g, poly_gcd(g, g.derivative()))


def _sign_at(p: IntPoly, x: Fraction) -> int:
    """Sign of p(x), read off the integer b**deg(p) * p(a/b) for x = a/b, b > 0."""
    value = homogeneous_value(p, x.numerator, x.denominator)
    return (value > 0) - (value < 0)


def _variations(values) -> int:
    count = 0
    prev = 0
    for v in values:
        s = (v > 0) - (v < 0)
        if s == 0:
            continue
        if prev != 0 and s != prev:
            count += 1
        prev = s
    return count


# The word-size prime of the modular squarefree test.
_SQUAREFREE_PRIME = 2**31 - 1


def _rem_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a by b in F_p[x], b with a nonzero leading coefficient,
    both ascending lists of residues; trailing zeros stripped."""
    a = list(a)
    inv = pow(b[-1], -1, p)
    db = len(b) - 1
    while len(a) > db:
        c = a.pop() * inv % p
        if c:
            shift = len(a) - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _squarefree_mod_p(q: IntPoly) -> bool:
    """True when p = _SQUAREFREE_PRIME does not divide lc(q) and
    gcd(q mod p, q' mod p) = 1 in F_p[x]: then q is squarefree over Q.
    False proves nothing.

    A square factor s**2 of q over Z keeps its degree mod p, as lc(s)
    divides lc(q), and s mod p divides both q mod p and its derivative.
    """
    p = _SQUAREFREE_PRIME
    if q.coeffs[-1] % p == 0:
        return False
    a = [c % p for c in q.coeffs]
    b = [i * c % p for i, c in enumerate(q.coeffs)][1:]
    while b and b[-1] == 0:
        b.pop()
    while b:
        a, b = b, _rem_mod(a, b, p)
    return len(a) == 1


def _squarefree_odd_part(q: IntPoly) -> IntPoly:
    """A squarefree polynomial whose roots are the odd-multiplicity roots of
    nonzero q: q itself when the modular test proves it squarefree, else
    the odd-multiplicity part from poly_gcd(q, q').  Either way q changes
    sign exactly at its roots."""
    if _squarefree_mod_p(q):
        return q
    return _odd_part(q, poly_gcd(q, q.derivative()))


def _depth_bound(q: IntPoly, width: Fraction) -> int:
    """A depth k0 such that no subdivision of nonzero q on an interval of
    this width splits a node deeper than k0.

    Distinct roots of q are more than sep = sqrt(3) n**(-(n+2)/2)
    ||q||**(1-n) apart for n = deg q >= 2 (Mahler-Mignotte, for the
    squarefree part of q, whose Mahler measure is at most ||q||).  A node
    narrower than that holds at most one root of q in the closed disc on
    it as diameter, a real one, so the one-circle theorem leaves it with
    all Bernstein coefficients of one sign or with a negative endpoint.
    Width w / 2**k < sep holds once 3 * 4**k > w**2 n**(n+2) ||q||**(2n-2).
    That product, top, is bounded from bit lengths alone, with no big
    power: bits(x * y) <= bits(x) + bits(y) only overstates bits(top), and
    so only deepens the bound.
    """
    n = q.degree
    if n < 2:
        return 0
    norm2 = sum(c * c for c in q.coeffs)
    top_bits = (
        2 * width.numerator.bit_length()
        + (n + 2) * n.bit_length()
        + (n - 1) * norm2.bit_length()
    )
    bottom = 3 * width.denominator**2
    # bottom * 4**k >= 2**(2k + bits(bottom) - 1), which exceeds top once
    # 2k >= bits(top) - bits(bottom) + 1
    return max(0, -(-(top_bits - bottom.bit_length() + 1) // 2))


def _first_exceeding(nums, limit, signs, a, w, m, cap, accept=None):
    """(point, complete, deepest) of an integer de Casteljau walk over the
    interval [a/m, (a + w)/m] from its Bernstein numerators nums.

    Every node is an integer pair (a', m') for [a'/m', (a' + w)/m'], as in
    _root_intervals.  A node is a leaf when s c <= limit for every numerator
    c and every s in signs, each 1 or -1; limit is shifted left by
    n = len(nums) - 1 at each halving, as the numerators are.  Any other
    node is split, depth first and left half first, while its depth is
    below cap: its midpoint numerator is checked before its halves, and the
    first midpoint (2 a' + w)/(2 m') with s c > limit, where accept, when
    given, holds too, is returned as point.  A non-leaf node at depth cap
    is left undecided: it makes complete False, and the walk goes on.
    point is None when no midpoint is returned; deepest is the deepest
    level reached.
    """
    n = len(nums) - 1
    upper, lower = 1 in signs, -1 in signs
    complete, deepest = True, 0
    stack = [(nums, a, m, 0, limit)]
    while stack:
        nums, a, m, depth, limit = stack.pop()
        if (not upper or max(nums) <= limit) and (not lower or min(nums) >= -limit):
            continue
        if depth >= cap:
            complete = False
            continue
        left, right = bernstein_split(nums)
        a, m, depth, limit = a << 1, m << 1, depth + 1, limit << n
        deepest = max(deepest, depth)
        mid = left[-1]
        if (upper and mid > limit) or (lower and mid < -limit):
            point = Fraction(a + w, m)
            if accept is None or accept(point):
                return point, complete, deepest
        stack.append((right, a + w, m, depth, limit))
        stack.append((left, a, m, depth, limit))
    return None, complete, deepest


def _root_intervals(g: IntPoly, a: int, w: int, m: int):
    """Isolate the distinct real roots of squarefree g in the open interval
    (a/m, (a + w)/m), for m > 0 and w > 0.

    Integer de Casteljau subdivision of g's Bernstein numerators,
    depth-first and left half first, as in _first_exceeding.  Every node is
    an integer pair: the node of index i at depth k is [a'/m', (a' + w)/m']
    with a' = (a << k) + i w and m' = m << k, so its halves are (2 a', 2 m')
    and (2 a' + w, 2 m'), and no Fraction is built.  By Descartes' rule the
    sign variations of a node's numerators exceed the number of roots of g
    inside the node by an even count; a root at a node's end, a zero end
    numerator, is not counted.  A node with no variation holds no root and
    is dropped.  A node with one holds exactly one root r and yields
    (a', m', s), s the sign of its last nonzero numerator: the sign of g on
    (r, (a' + w)/m'), as g there or, where that end is a simple root, the
    sign just left of it.  Any other node is split, and a zero midpoint
    numerator yields (2 a' + w, 2 m', 0) for the root (2 a' + w)/(2 m') it
    marks.  The roots come in no particular order.

    A node narrower than half the separation of g's roots has at most one
    variation (two-circle theorem), so splitting a node deeper than
    _depth_bound(g, w/m) + 1 is a failed assertion.
    """
    if g.degree < 1:
        return
    max_depth = _depth_bound(g, Fraction(w, m)) + 1
    stack = [(bernstein_numerators(g.coeffs, a, w, m)[0], a, m, 0)]
    while stack:
        nums, a, m, depth = stack.pop()
        count = _variations(nums)
        if count == 0:
            continue
        if count == 1:
            last = next(c for c in reversed(nums) if c)
            yield a, m, 1 if last > 0 else -1
            continue
        assert depth <= max_depth, "isolation passed the root-separation depth"
        left, right = bernstein_split(nums)
        a, m, depth = a << 1, m << 1, depth + 1
        if left[-1] == 0:
            yield a + w, m, 0
        stack.append((right, a + w, m, depth))
        stack.append((left, a, m, depth))


def _negative_point(q: IntPoly, interval: Interval, nums) -> Fraction | None:
    """A point of the open interval where q < 0, or None when q >= 0 on all
    of it, given q >= 0 at both ends and nums, q's Bernstein numerators on
    the interval.

    Subdivision of squarefree q ends: each node narrower than its roots'
    separation is a leaf or shows q < 0 at an endpoint.  When
    _squarefree_odd_part(q) is not q itself, that odd-multiplicity part r
    of q, which is squarefree, is subdivided instead.  q / r is a constant
    times a square, so with lc(r) of the sign of lc(q), q < 0 exactly where
    r < 0 and q != 0: a point where r < 0 is kept only where q < 0.  The
    walk splits nodes down to depth _depth_bound(q, width), and a node it
    would split deeper is a failed assertion, never an inconclusive answer.
    """
    if q.degree < 1:
        return None
    cap = _depth_bound(q, interval.width) + 1
    r = _squarefree_odd_part(q)
    if r is not q:
        if (r.coeffs[-1] > 0) != (q.coeffs[-1] > 0):
            r = -r
        nums = to_bernstein(r, interval)[0]
    point, complete, _ = _first_exceeding(
        nums, 0, (-1,), *interval_frame(interval), cap,
        None if r is q else lambda x: _sign_at(q, x) < 0,
    )
    assert complete, "subdivision passed the root-separation depth"
    return point


def decide_sup_bound(f: IntPoly, interval: Interval, bound) -> NormCertificate:
    """Exact decision of sup |f| <= bound on the interval; never inconclusive.

    For bound = N/D, |f| <= bound exactly where N - D f >= 0 and
    N + D f >= 0.  f is converted once: both factors share its Bernstein
    coefficients c / den, and theirs are (N den -+ D c) / den.  The first
    and last of these are the values at the endpoints, so an endpoint where
    D |c| > N den refutes first, lo before hi.  A factor whose numerators
    are all >= 0 is >= 0 on the interval (convex hull), with no subdivision;
    for any other the subdivision finds a point of the open interval where it
    is negative, N - D f before N + D f, or proves there is none.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    num, scale = bound.numerator, bound.denominator
    nums, den = to_bernstein(f, interval)
    limit = num * den
    point = None
    if scale * abs(nums[0]) > limit:
        point = interval.lo
    elif scale * abs(nums[-1]) > limit:
        point = interval.hi
    else:
        # every numerator N den -+ D c is >= 0 exactly when D * max(+-c) <= N den
        for sign, peak in ((1, max(nums)), (-1, -min(nums))):
            if scale * peak <= limit:
                continue
            q = IntPoly([num]) - f * (sign * scale)
            point = _negative_point(q, interval, [limit - sign * scale * c for c in nums])
            if point is not None:
                break
    if point is None:
        return NormCertificate(Verdict.CERTIFIED_AT_MOST, bound, "subdivision")
    assert point in interval and abs(f(point)) > bound
    return NormCertificate(Verdict.REFUTED, bound, "subdivision", point)


def bernstein_prefilter(f: IntPoly, interval: Interval, bound) -> NormCertificate:
    """Sufficient subdivision check: certify when every Bernstein coefficient
    of f lies in [-bound, bound] on every leaf, refute at the first evaluated
    endpoint or midpoint that violates, else inconclusive once a node at
    PREFILTER_DEPTH halvings is neither.  The certificate's depth is the
    deepest level visited.

    The interval's ends are checked first, f > bound at lo, then at hi, then
    f < -bound at lo, then at hi; then _first_exceeding walks the nodes,
    the decision's walk with both signs.  An undecided node does not stop
    the search: a later midpoint still refutes.  All of it is integer
    arithmetic.  For bound = N/D, a coefficient c / den is within the bound
    when |c| D <= N den: the root's numerators are scaled by D once, and the
    limit N den is shifted left by n = deg f at each halving, as the
    split's denominator is.
    """
    bound = Fraction(bound)
    if bound < 0:
        raise ValueError("bound must be nonnegative")
    nums, den = to_bernstein(f, interval)
    scaled = [c * bound.denominator for c in nums]
    limit = bound.numerator * den
    ends = ((scaled[0], interval.lo), (scaled[-1], interval.hi))
    point = next((x for sign in (1, -1) for c, x in ends if sign * c > limit), None)
    complete, deepest = True, 0
    if point is None:
        point, complete, deepest = _first_exceeding(
            scaled, limit, (1, -1), *interval_frame(interval), PREFILTER_DEPTH
        )
    if point is not None:
        assert abs(f(point)) > bound
        return NormCertificate(Verdict.REFUTED, bound, "bernstein", point, deepest)
    verdict = Verdict.CERTIFIED_AT_MOST if complete else Verdict.INCONCLUSIVE
    return NormCertificate(verdict, bound, "bernstein", None, deepest)


def certify_sup_bound(f: IntPoly, interval: Interval, bound) -> NormCertificate:
    """Cheap Bernstein prefilter first, exact subdivision decision as fallback."""
    cert = bernstein_prefilter(f, interval, bound)
    if cert.verdict is Verdict.INCONCLUSIVE:
        return decide_sup_bound(f, interval, bound)
    return cert


def sup_norm_enclosure(
    f: IntPoly, interval: Interval, tol
) -> tuple[Fraction, Fraction]:
    """Rational bracket [lo, hi] around sup |f| with hi - lo <= tol.

    The maximum of |f| on the interval is reached at an endpoint or at an
    interior local extremum of f, where f' changes sign: at a root of the
    odd-multiplicity part g of f'.  A root of f' of even multiplicity is no
    extremum, so the roots of g are enough; g is f' itself when the modular
    test proves f' squarefree.  With the interval [a/m, (a + w)/m] in
    integers, _root_intervals isolates them by subdivision of g's Bernstein
    numerators, on integer nodes (a', m') standing for [a'/m', (a' + w)/m'].
    Each isolating node is then halved toward its root by the sign of g at
    its midpoint (2 a' + w)/(2 m'), read from homogeneous_value, to the half
    (2 a', 2 m') or (2 a' + w, 2 m').  On a node, |f| is at most the largest |c| over the
    Bernstein coefficients of f there, and every evaluated |f(x)| is a lower
    bound.  f is converted on each isolating node by bernstein_numerators,
    and each pending node keeps its coefficients as integer numerators over
    one denominator, which the integer de Casteljau split carries to each
    half.  The best lower bound and every upper bound are kept as integer
    pairs (numerator, denominator), compared by cross-multiplication: the
    value at x = a'/m' is |homogeneous_value(f, a', m')| over m'**n, and a
    coefficient is |c| over den.  No Fraction is built until the returned
    bracket.  A node is dropped once its upper bound is <= the best lower
    bound, and it stops being refined once the two are within tol, so
    hi - lo <= tol holds by construction.
    """
    tol = Fraction(tol)
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if f.degree <= 0:
        value = Fraction(abs(f.coeffs[0])) if f else Fraction(0)
        return value, value
    n = f.degree
    a, w, m = interval_frame(interval)
    g = _squarefree_odd_part(f.derivative())
    # the best lower bound, low / low_den
    low = max(abs(homogeneous_value(f, a, m)), abs(homogeneous_value(f, a + w, m)))
    low_den = m**n
    pending = []
    for a_k, m_k, s in _root_intervals(g, a, w, m):
        if s:
            pending.append((a_k, m_k, s, *bernstein_numerators(f.coeffs, a_k, w, m_k)))
        else:
            value, den = abs(homogeneous_value(f, a_k, m_k)), m_k**n
            if value * low_den > low * den:
                low, low_den = value, den
    uppers = []
    while pending:
        a_k, m_k, s, nums, den = pending.pop()
        value = max(abs(nums[0]), abs(nums[-1]))
        if value * low_den > low * den:
            low, low_den = value, den
        upper = max(map(abs, nums))
        # (upper / den - low / low_den) * den * low_den
        gap = upper * low_den - low * den
        if gap <= 0:
            continue
        if gap * tol.denominator <= tol.numerator * den * low_den:
            uppers.append((upper, den))
            continue
        a_k, m_k = a_k << 1, m_k << 1
        sign = homogeneous_value(g, a_k + w, m_k)
        left, right = bernstein_split(nums)
        den <<= n
        if sign == 0:
            value = abs(left[-1])
            if value * low_den > low * den:
                low, low_den = value, den
        elif (sign > 0) == (s > 0):
            pending.append((a_k, m_k, s, left, den))
        else:
            pending.append((a_k + w, m_k, s, right, den))
    high, high_den = low, low_den
    for upper, den in uppers:
        if upper * high_den > high * den:
            high, high_den = upper, den
    return Fraction(low, low_den), Fraction(high, high_den)


def rational_point_lower_bound(f: IntPoly, p) -> Fraction:
    """|f(a/b)| for monic integer f, certified >= 1/b**deg f.

    b**n * f(a/b) is a nonzero integer: a monic integer polynomial has no
    non-integer rational root.
    """
    if not isinstance(f, IntPoly) or not f.is_monic:
        raise ValueError("polynomial must be a monic IntPoly")
    p = Fraction(p)
    if p.denominator < 2:
        raise ValueError(f"{p} is an integer point")
    n = f.degree
    scaled = homogeneous_value(f, p.numerator, p.denominator)
    assert scaled != 0, "monic integer polynomial cannot vanish at a non-integer rational"
    value = Fraction(abs(scaled), p.denominator**n)
    assert value >= Fraction(1, p.denominator**n)
    return value


@dataclass(frozen=True)
class WitnessRecord:
    """A pair, a monic polynomial, and the certified verdict tying them.

    A certified record proves the interval's constant is at most
    bound**(1/degree); when both endpoint denominators are >= 2 the
    endpoint lower bounds force sup |f| to equal the bound exactly.
    """

    pair: FareyPair
    poly: IntPoly
    degree: int
    bound: Fraction
    certificate: NormCertificate
    tm_upper: ConstantValue

    def is_proof_for(self, pair: FareyPair) -> bool:
        return (
            self.pair == pair
            and self.certificate.verdict is Verdict.CERTIFIED_AT_MOST
            and self.bound == _witness_bound(pair, self.degree)
        )

    def render(self) -> list[str]:
        lines = [
            f"interval={format_rational(self.pair.lo)}..{format_rational(self.pair.hi)}",
            f"degree={self.degree}",
        ]
        lines.extend(self.certificate.render())
        # only a certified record bounds the constant
        if self.certificate.verdict is Verdict.CERTIFIED_AT_MOST:
            lines.append(f"tm_upper={self.tm_upper}")
        return lines


def _witness_bound(pair: FareyPair, n: int) -> Fraction:
    """The bound a degree-n witness must certify on the pair's interval: the
    conjectured constant of conjecture_value, to the n-th power."""
    return conjecture_value(pair)[0].r ** n


def verify_witness(pair: FareyPair, f: IntPoly) -> WitnessRecord:
    """Check that f witnesses the conjectured constant on the pair's interval.

    The target bound is conjecture_value(pair)**deg f = 1/b**deg f, for
    the endpoint a/b of least denominator b >= 2 (conjecture_anchor),
    built from those integers; a pair of two integer endpoints has none
    and is refused with ValueError.  The record's tm_upper is 1/b, the
    canonical form of bound**(1/deg f).  As b**deg f * f(a/b) is a nonzero
    integer, sup |f| >= the bound, so a certified record has sup |f| equal
    to the bound; the check that |b**deg f * f(a/b)| is 1 asserts it.
    """
    if not isinstance(f, IntPoly) or not f.is_monic:
        raise ValueError("witness must be a monic IntPoly")
    n = f.degree
    if n < 1:
        raise ValueError("witness must have degree >= 1")
    a, b = conjecture_anchor(pair)
    bound = Fraction(1, b**n)
    cert = certify_sup_bound(f, pair.interval(), bound)
    record = WitnessRecord(pair, f, n, bound, cert, ConstantValue(Fraction(1, b)))
    if cert.verdict is Verdict.CERTIFIED_AT_MOST:
        assert abs(homogeneous_value(f, a, b)) == 1
    return record
