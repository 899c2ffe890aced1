"""The former Sturm decision, kept as the oracle for the subdivision decision
in monicheb.certify: a point where h < 0 is found by isolating the roots of
h's odd-multiplicity part with one Sturm chain, then bisecting and probing."""
from fractions import Fraction

from monicheb import IntPoly
from monicheb.certify import _halve, _odd_part_chain, _root_intervals, _sign_at


def reference_probe(h, u, v):
    """A point of (u, v) with h < 0, or None when h > 0 there, given that h
    keeps one sign on (u, v) apart from its zeros.

    Samples u + (v - u) / 2**k for k = 1, 2, ... and stops at the first
    where h != 0: its sign is the sign of h on all of (u, v).  Of deg h + 1
    samples at least one is not a zero of h.
    """
    step = (v - u) / 2
    for _ in range(h.degree + 1):
        sign = _sign_at(h, u + step)
        if sign:
            return u + step if sign < 0 else None
        step /= 2
    raise AssertionError("nonzero polynomial vanished at every probe")


def reference_negative_point(h, lo, hi):
    """A point of the open (lo, hi) where h < 0, or None when h >= 0 on all
    of it, given h >= 0 at lo and at hi.

    h changes sign across each root of its odd-multiplicity part g and only
    there, and one Sturm chain of g isolates those roots in (lo, hi).  With
    none, h keeps one sign inside and a probe decides.  On the first
    isolating interval (u, v), h keeps one sign on each side of the root
    apart from touch points: check u and v, then bisect by the sign of g,
    whose midpoints land on both sides of the root.  A root hit exactly
    splits its interval into two pieces free of sign changes, and a probe
    of each finds the negative side.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if h.degree < 1:
        return None
    chain = _odd_part_chain(h)
    g = chain[0]
    roots = _root_intervals(chain, lo, hi)
    first = next(roots, None)
    if first is None:
        return reference_probe(h, lo, hi)
    u, v, s = first
    if u == v:
        # h keeps one sign on (lo, u) and the other just right of u
        point = reference_probe(h, lo, u)
        if point is not None:
            return point
        r = u
        u, v, s = next(roots, (hi, hi, 0))
        if u > r:
            point = reference_probe(h, r, u)
            assert point is not None, "no negative probe right of a sign change"
            return point
    for x in (u, v):
        if lo < x < hi and _sign_at(h, x) < 0:
            return x
    for _ in range(4 * max(len(h.coeffs), 8) * 64):
        mid, half = _halve(g, u, v, s)
        if _sign_at(h, mid) < 0:
            return mid
        if half is None:
            point = reference_probe(h, u, mid)
            if point is None:
                point = reference_probe(h, mid, v)
            assert point is not None, "no negative probe beside a sign change"
            return point
        u, v = half
    raise AssertionError("sign-change bisection failed to converge")


def reference_decide_factors(f, interval, bound):
    """The former factored decision: the refutation point, or None when the
    bound is certified, from the Sturm routine on N - D f, then N + D f."""
    for x in (interval.lo, interval.hi):
        if abs(f(x)) > bound:
            return x
    num = IntPoly([bound.numerator])
    for q in (num - f * bound.denominator, num + f * bound.denominator):
        point = reference_negative_point(q, interval.lo, interval.hi)
        if point is not None:
            return point
    return None
