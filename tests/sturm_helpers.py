"""Sturm code, kept only as an oracle for monicheb.certify.  The Sturm
chain, the odd-part chain and the chain-based root isolation check the
subdivision isolation behind the enclosure; the former Sturm decision built
on them checks the subdivision decision.  That decision finds a point where
h < 0 by isolating the roots of h's odd-multiplicity part with one Sturm
chain, then bisecting and probing."""
from fractions import Fraction

from monicheb import IntPoly
from monicheb.certify import _odd_part, _sign_at, _variations
from monicheb.numpoly import primitive_remainder


def _halve(g: IntPoly, u: Fraction, v: Fraction, s: int):
    """Split (u, v) at its midpoint m toward the one root r of g inside.

    s is the sign of g on (r, v).  Returns (m, None) when g(m) == 0, else
    (m, the half that holds r).
    """
    mid = (u + v) / 2
    sign = _sign_at(g, mid)
    if sign == 0:
        return mid, None
    if sign == s:
        return mid, (u, mid)
    return mid, (mid, v)


def _sturm_chain(g: IntPoly) -> list[IntPoly]:
    """Signed remainder sequence as primitive integer polynomials.

    Each term is a positive multiple of the rational remainder, so the
    variation counts are those of the exact rational chain.  The sequence
    is also Euclid's for gcd(g, g'): the last term is that gcd, primitive
    and up to sign, and it is a constant exactly when g is squarefree.
    """
    chain = [g.primitive()]
    d = g.derivative()
    if d:
        chain.append(d.primitive())
    while chain[-1].degree >= 1:
        rem = primitive_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(-rem)
    return chain


def _odd_part_chain(h: IntPoly) -> list[IntPoly]:
    """Sturm chain whose first term is the odd-multiplicity part of nonzero
    h, primitive with a positive leading coefficient.

    For squarefree h that part is h itself, and the chain of h, negated
    when its leading coefficient is negative, is kept.  Otherwise the last
    term is gcd(h, h'), from which _odd_part divides the odd part out, and
    that part gets its own chain.
    """
    chain = _sturm_chain(h)
    if chain[-1].degree == 0:
        return chain if chain[0].coeffs[-1] > 0 else [-p for p in chain]
    odd = _odd_part(h, chain[-1])
    return _sturm_chain(odd if odd.coeffs[-1] > 0 else -odd)


def _root_intervals(chain: list[IntPoly], lo: Fraction, hi: Fraction):
    """Isolate the distinct real roots of squarefree g = chain[0] in the
    open (lo, hi), chain being the Sturm chain of g.

    Yields, left to right, (u, u, 0) for a root hit exactly by a bisection
    point, else (u, v, s) with u < v, exactly one root r in (u, v), g
    nonzero at u or at v, and s the sign of g on (r, v).  One Sturm chain
    serves every count: with zero signs skipped, V(u) - V(v) is the number
    of roots in (u, v].
    """
    if chain[0].degree < 1:
        return

    def point(x):
        signs = [_sign_at(p, x) for p in chain]
        return x, _variations(signs), signs[0]

    stack = [(point(lo), point(hi))]
    while stack:
        left, right = stack.pop()
        (u, v_u, g_u), (v, v_v, g_v) = left, right
        if u == v:
            yield u, u, 0
            continue
        count = v_u - v_v - (g_v == 0)
        if count == 0:
            continue
        if count == 1 and (g_u or g_v):
            yield u, v, g_v or -g_u
            continue
        mid = point((u + v) / 2)
        stack.append((mid, right))
        if mid[2] == 0:
            stack.append((mid, mid))
        stack.append((left, mid))


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
