"""Monic integer polynomials with prescribed rational values.

Two layers: closed-form two- and three-point formulas on consecutive
Farey pairs, and the general inductive construction that hits
F(a_i/b_i) = 1/b_i**n exactly for arbitrary finite sets of reduced
non-integer rationals.  The admissible degree n is governed by
multiplicative orders and can be astronomically large for some inputs,
so the general construction takes an explicit degree cap and refuses
loudly instead of running forever.

Both layers assemble their output in place: one kernel,
_add_binomial_term, adds each term scale * (l x - f)**e * V(x) straight
into the output's coefficient list, so a degree-n output is held about
once while it is built.  The induction takes the value it needs at each
next point from the closed form of the terms so far, and checks every
point once, on the assembled coefficients.

The induction needs only some Bezout pair a*l - b*f = 1 per point; it
takes the one with -b/2 < l <= b/2.  So a point (b-1)/b with b > 2 gets
the factor (1 - x), and its term's coefficients are +-scale * C(e, i)
with no power of l or f in them; a point 1/b keeps the factor x.

The kernel computes each row by the binomial recurrence, one exact
division by a small int per coefficient, which is most of its cost.
When l**2 = f**2 = 1, as for (1 - x), the row is symmetric up to one
sign, so it takes floor(e/2) divisions, each result added at both ends;
any other (l, f) takes e.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Sequence

from .farey import FareyPair, mediant
from .numpoly import IntPoly, extended_gcd, homogeneous_value


class CongruenceError(ValueError):
    """A prescribed value violates its congruence precondition."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class DegreeSearchError(ValueError):
    """No admissible degree within the requested cap."""

    def __init__(self, minimal: int, cap: int):
        super().__init__(
            f"minimal admissible degree is {minimal}, above the cap {cap}"
        )
        self.minimal = minimal
        self.cap = cap


# Trial division runs over d < _TRIAL_BOUND; a cofactor left over is split
# by Miller-Rabin and Pollard's rho.
_TRIAL_BOUND = 1 << 12
# Rho iterations allowed per factorization before it is refused.
_RHO_BUDGET = 1 << 18
# Products of this many differences share one gcd in Brent's rho.
_RHO_BATCH = 128
# Miller-Rabin to these bases proves primality below _MR_LIMIT
# (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for odd n > 41.

    False is always proof of compositeness.  True is a proof only below
    _MR_LIMIT; above it, ValueError, since no fixed base set is known to
    be a proof there.
    """
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ValueError(f"cannot prove {n} prime: above the deterministic Miller-Rabin range")
    return True


def _rho_factor(n: int) -> int:
    """A factor d of odd composite n with 1 < d < n.

    Brent's variant of Pollard's rho (BIT 1980) on x -> x**2 + c for
    c = 1, 2, ..., with the differences multiplied in batches of
    _RHO_BATCH per gcd.  ValueError once at least _RHO_BUDGET iterations
    in all have found none (the budget is checked between rounds, and a
    round at most doubles the count).
    """
    steps = c = 0
    while steps < _RHO_BUDGET:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < _RHO_BUDGET:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            steps += r + min(k, r)
            r *= 2
        if g == n:
            # the batch overshot: step through it one difference at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g
    raise ValueError(f"no factor of {n} found within {_RHO_BUDGET} rho iterations")


def _iroot(n: int, k: int) -> tuple[int, bool]:
    """Integer k-th root: (floor(n ** (1/k)), exact?).

    Integer Newton iteration from the overestimate 2**ceil(bits/k); the
    iterates decrease strictly until they reach the floor root.  A k of at
    least bits answers 1 at once, so it never builds 2**(k - 1).
    """
    if n < 0:
        raise ValueError("negative radicand")
    if n < 2 or k == 1:
        return n, True
    if k >= n.bit_length():
        return 1, False
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r, r**k == n
        r = s


def _perfect_power(m: int, least: int) -> tuple[int, int]:
    """(r, k) with m = r**k for the least k >= 2, or (m, 1) if there is
    none.  The prime factors of m, and so r, are at least least."""
    k = 2
    while least**k <= m:
        r, exact = _iroot(m, k)
        if exact:
            return r, k
        k += 1
    return m, 1


def _factorize(n: int) -> dict[int, int]:
    """Prime factorization of n != 0, with bounded work.

    Trial division by d < _TRIAL_BOUND; a cofactor below d**2 is prime.
    A larger composite cofactor r**k is replaced by k copies of r, and
    any other is split by Brent's rho, until Miller-Rabin proves every
    part prime.  ValueError when a part has no factor within the rho
    budget or is a probable prime too large to prove.
    """
    n = abs(n)
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d < _TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        # no prime below d divides m
        if m < d * d or _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root, k = _perfect_power(m, d)
        if k > 1:
            pending += [root] * k
        else:
            f = _rho_factor(m)
            pending += [f, m // f]
    return out


def multiplicative_order(a: int, modulus: int) -> int:
    """Order of a in (Z/modulus)*; modulus 1 gives 1.  ValueError when the
    modulus cannot be factored within _factorize's bounded work."""
    if modulus < 1:
        raise ValueError("modulus must be positive")
    return _order(a, modulus, _factorize(modulus))


def _order(a: int, modulus: int, factors: dict[int, int]) -> int:
    """Order of a modulo modulus = prod(p**e for p, e in factors.items()).

    Euler's phi and its primes come from the factorization: phi's primes
    are those of each p - 1, and p itself when e > 1.  So a modulus that
    is a high power of a large prime is never trial-divided.
    """
    a %= modulus
    if gcd(a, modulus) != 1:
        raise ValueError(f"{a} is not invertible mod {modulus}")
    phi = 1
    primes: set[int] = set()
    for p, e in factors.items():
        phi *= (p - 1) * p ** (e - 1)
        primes.update(_factorize(p - 1))
        if e > 1:
            primes.add(p)
    # Strip from phi every prime power the order does not need.
    order = phi
    for p in sorted(primes):
        while order % p == 0 and pow(a, order // p, modulus) == 1:
            order //= p
    return order


def _add_binomial_term(
    coeffs: list, scale: int, l: int, f: int, e: int, factor: Sequence[int] = (1,)
) -> None:
    """Add scale * (l*x - f)**e * V(x) to coeffs in place, V = sum factor[j] x**j.

    Coefficient i of the binomial power is scale * C(e, i) * l**i * (-f)**(e-i).
    Starting from scale * (-f)**e, the next one is c * ((e-i)*l) // ((i+1)*(-f)),
    an exact division, so each step is one big-by-small product and one exact
    division.  Each one is added at once, times each factor[j], into
    coeffs[i + j]; no list of the power is built.  coeffs must have room for
    degree e + len(factor) - 1.

    When l**2 = f**2 = 1 the row is symmetric up to sign: coefficient e - i
    is (l*(-f))**(e - 2i) = (-l*f)**e times coefficient i.  Then only
    i <= e // 2 is computed, floor(e/2) exact divisions in place of e, and
    each c is added at both ends.  A factor entry of +-1 adds or subtracts
    c rather than multiplying by it.
    """
    if scale == 0:
        return
    if f == 0:
        c = scale * l**e
        for j, v in enumerate(factor, e):
            coeffs[j] += c * v
        return
    c = scale * (-f) ** e
    if l * l == f * f == 1:
        step = -l * f
        mirror = [v * step**e for v in factor]
        for i in range(e // 2 + 1):
            if i:
                c = c * ((e - i + 1) * step) // i
            _add_scaled(coeffs, i, c, factor)
            if 2 * i != e:
                _add_scaled(coeffs, e - i, c, mirror)
        return
    for i in range(e + 1):
        if i:
            c = c * ((e - i + 1) * l) // (i * -f)
        _add_scaled(coeffs, i, c, factor)


def _add_scaled(coeffs: list, start: int, c: int, factor: Sequence[int]) -> None:
    """coeffs[start + j] += c * factor[j], adding or subtracting c for +-1."""
    for j, v in enumerate(factor, start):
        if v == 1:
            coeffs[j] += c
        elif v == -1:
            coeffs[j] -= c
        else:
            coeffs[j] += c * v


def endpoint_corrections(
    pair: FareyPair, n: int, a_hi: int = 1, a_lo: int = 1
) -> tuple[int, int]:
    """(a_hi - a1**n)/b1 and (a_lo - a2**n)/b2, the coefficients of the two
    endpoint corrections of pair_polynomial.  Raises CongruenceError (index
    1, then 2) when a division is not exact."""
    a1, b1, a2, b2 = pair.a1, pair.b1, pair.a2, pair.b2
    c1, r1 = divmod(a_hi - a1**n, b1)
    if r1:
        raise CongruenceError(1, f"{a_hi} is not congruent to {a1}^{n} mod {b1}")
    c2, r2 = divmod(a_lo - a2**n, b2)
    if r2:
        raise CongruenceError(2, f"{a_lo} is not congruent to {a2}^{n} mod {b2}")
    return c1, c2


def pair_polynomial(pair: FareyPair, n: int, a_hi: int = 1, a_lo: int = 1) -> IntPoly:
    """Monic degree-n polynomial hitting prescribed values at both endpoints.

    The value at the upper endpoint a1/b1 is a_hi/b1**n and at the lower
    endpoint a2/b2 is a_lo/b2**n.  Requires a_hi = a1**n (mod b1) and
    a_lo = a2**n (mod b2); explicit closed form:

        x**n + ((a_hi - a1**n)/b1) (b2 x - a2)**(n-1)
             + ((a_lo - a2**n)/b2) (a1 - b1 x)**(n-1)
    """
    if n < 2:
        raise ValueError("degree must be >= 2")
    c1, c2 = endpoint_corrections(pair, n, a_hi, a_lo)
    coeffs = [0] * n + [1]
    _add_binomial_term(coeffs, c1, pair.b2, pair.a2, n - 1)
    _add_binomial_term(coeffs, c2, -pair.b1, -pair.a1, n - 1)
    result = IntPoly(coeffs)
    assert result.is_monic and result.degree == n
    return result


def triple_polynomial(
    pair: FareyPair, n: int, a_hi: int, a_lo: int, a_med: int, j: int
) -> IntPoly:
    """Extend pair_polynomial to also hit a_med/b3**n at the mediant a3/b3.

    The correction term (b2 x - a2)**j (a1 - b1 x)**(n-1-j) vanishes at
    both endpoints, so their values are untouched; any 1 <= j <= n-2 works.
    """
    if n < 3:
        raise ValueError("degree must be >= 3")
    if not 1 <= j <= n - 2:
        raise ValueError(f"exponent split j={j} outside [1, {n - 2}]")
    med = mediant(pair)
    a3, b3 = med.numerator, med.denominator
    if (a_med - a3**n) % b3 != 0:
        raise CongruenceError(3, f"{a_med} is not congruent to {a3}^{n} mod {b3}")
    # the pair polynomial's int coefficients are shared, not copied
    coeffs = list(pair_polynomial(pair, n, a_hi, a_lo).coeffs)
    c1, c2 = endpoint_corrections(pair, n, a_hi, a_lo)
    c3 = (a_med - a3**n) // b3
    tail = [0] * (n - j)
    _add_binomial_term(tail, 1, -pair.b1, -pair.a1, n - 1 - j)
    _add_binomial_term(coeffs, c3 - c2 - c1, pair.b2, pair.a2, j, tail)
    result = IntPoly(coeffs)
    assert result.is_monic and result.degree == n
    return result


@dataclass(frozen=True)
class ConstructionState:
    """All quantities of the inductive construction for a point list.

    E_list[j] (keyed from 2) are the products of pairwise determinants,
    D their lcm, m the smallest exponent bound with p**a | D implying
    a < m, and l/f the Bezout data a_i*l_i - b_i*f_i = 1 with
    -b_i/2 < l_i <= b_i/2, the cofactor of least magnitude.  n is the
    minimal admissible degree.
    """

    points: tuple[Fraction, ...]
    e_values: dict[int, int] = field(repr=False)
    d_value: int
    m: int
    n: int
    bezout: tuple[tuple[int, int], ...] = field(repr=False)

    @property
    def k(self) -> int:
        return len(self.points)


def _validate_points(points) -> list[Fraction]:
    pts = [Fraction(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    if len(set(pts)) != len(pts):
        raise ValueError("points must be pairwise distinct")
    for p in pts:
        if p.denominator < 2:
            raise ValueError(f"integer point {p} not allowed")
    return pts


def construction_state(points) -> ConstructionState:
    """Compute determinants, lcm data, and the minimal admissible degree.

    The degree must be a common multiple of the orders of a_j modulo
    b_j**(k*m) and of b_j modulo D2(j)**(k*m), and at least k*m.
    """
    pts = _validate_points(points)
    k = len(pts)
    e_values: dict[int, int] = {}
    for j in range(2, k + 1):
        e_j = 1
        aj, bj = pts[j - 1].numerator, pts[j - 1].denominator
        for i in range(1, j):
            ai, bi = pts[i - 1].numerator, pts[i - 1].denominator
            e_j *= aj * bi - ai * bj
        e_values[j] = e_j
    d_value = 1
    for e in e_values.values():
        d_value = lcm(d_value, abs(e))
    d_factors = _factorize(d_value)
    m = 1 + max(d_factors.values(), default=0)
    km = k * m

    # b_j and D are factored once; the moduli's factorizations are those
    # lifted to the power k*m, so no huge modulus is trial-divided.
    order_lcm = 1
    for p in pts:
        aj, bj = p.numerator, p.denominator
        b_lifted = {q: e * km for q, e in _factorize(bj).items()}
        d2_lifted = {q: e * km for q, e in d_factors.items() if bj % q}
        order_lcm = lcm(
            order_lcm,
            _order(aj, bj**km, b_lifted),
            _order(bj, prod(q**e for q, e in d2_lifted.items()), d2_lifted),
        )
    n = order_lcm * ((km + order_lcm - 1) // order_lcm)

    bezout = []
    for p in pts:
        a, b = p.numerator, p.denominator
        g, l, f = extended_gcd(a, b)
        assert g == 1
        if 2 * l > b:
            # keeps a*l - b*f = 1 and moves l into -b/2 < l <= b/2
            l, f = l - b, f - a
        bezout.append((l, f))
    return ConstructionState(tuple(pts), e_values, d_value, m, n, tuple(bezout))


def admissible_degree(points) -> int:
    """Minimal degree for which the inductive construction is guaranteed."""
    return construction_state(points).n


def _closed_form_value(terms, n: int, a: int, b: int) -> int:
    """b**n * F(a/b) for F = x**n + the sum of the terms.

    A term (scale, l, f, e, V) is scale * (l*x - f)**e * V(x) with V an
    IntPoly; at degree n it contributes
    scale * (l*a - f*b)**e * V_h(a, b) * b**(n - e - deg V), where V_h is V
    homogenised at its own degree.  x**n contributes a**n.
    """
    total = a**n
    for scale, l, f, e, factor in terms:
        total += (
            scale
            * (l * a - f * b) ** e
            * homogeneous_value(factor, a, b)
            * b ** (n - e - factor.degree)
        )
    return total


def multipoint_monic(points, max_degree: int) -> tuple[int, IntPoly]:
    """Monic integer F of admissible degree n with F(a_i/b_i) = 1/b_i**n.

    Runs the induction over the points: the base polynomial fixes the
    first point via a Bezout power, and each step adds
    A * (l x - f)**(n-(k-r)m-r) * prod(b_i x - a_i) to fix the next point
    without disturbing the previous ones.  The value b**n F(a/b) - 1 at
    the next point, from which A is taken, comes from the closed form of
    the terms so far (_closed_form_value), not from a partial polynomial.
    The required exact divisibility is asserted at each step, so the
    underlying argument is re-checked at runtime.  The terms are then
    added in place into one coefficient list that starts as x**n, so peak
    memory is about one copy of the output.  Each point is checked once,
    at the end, on the assembled coefficients: every later correction
    carries the factor (b_q x - a_q) of each earlier point q, so it leaves
    b_q**n F(a_q/b_q) unchanged, and a wrong induction value gives a wrong
    A, which fails this check.
    """
    state = construction_state(points)
    if state.n > max_degree:
        raise DegreeSearchError(state.n, max_degree)
    pts = state.points
    k, m, n = state.k, state.m, state.n
    km = k * m

    a1, b1 = pts[0].numerator, pts[0].denominator
    l1, f1 = state.bezout[0]
    lead = 1 - a1**n
    assert lead % b1**km == 0, "base-step divisibility must hold"
    vanish = IntPoly([1])
    terms = [(lead // b1**km, l1, f1, n - km, vanish)]

    for r in range(1, k):
        ar, br = pts[r - 1].numerator, pts[r - 1].denominator
        vanish = vanish * IntPoly([-ar, br])
        a_next, b_next = pts[r].numerator, pts[r].denominator
        l_next, f_next = state.bezout[r]
        big_b = _closed_form_value(terms, n, a_next, b_next) - 1
        denom = b_next ** ((k - r) * m) * state.e_values[r + 1]
        assert big_b % denom == 0, "induction divisibility must hold"
        a_mult = -(big_b // denom)
        exponent = n - (k - r) * m - r
        assert exponent >= 0
        terms.append((a_mult, l_next, f_next, exponent, vanish))

    coeffs = [0] * n + [1]
    for scale, l, f, e, factor in terms:
        # every term has degree below n, so F stays monic of degree n
        assert e + factor.degree < n
        _add_binomial_term(coeffs, scale, l, f, e, factor.coeffs)
    poly = IntPoly(coeffs)
    assert poly.is_monic and poly.degree == n
    for p in pts:
        scaled = homogeneous_value(poly, p.numerator, p.denominator)
        if scaled != 1:
            raise AssertionError(f"construction failed at {p}")
    return n, poly
