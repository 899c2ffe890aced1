import dataclasses
import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from monicheb import certify
from monicheb import (
    PROVEN_EQUAL,
    ConstantValue,
    FareyPair,
    IntPoly,
    Interval,
    Verdict,
    bernstein_prefilter,
    bundled_table_path,
    certify_sup_bound,
    conjecture_value,
    decide_sup_bound,
    interval_constant,
    parse_table_file,
    poly_gcd,
    rational_point_lower_bound,
    search_witness,
    sup_norm_enclosure,
    to_bernstein,
    verify_witness,
)
from monicheb.certify import (
    PREFILTER_DEPTH,
    _SQUAREFREE_PRIME,
    _depth_bound,
    _first_exceeding,
    _negative_point,
    _root_intervals,
    _sign_at,
    _squarefree_mod_p,
    _squarefree_odd_part,
    _variations,
    _witness_bound,
)
from monicheb.numpoly import interval_frame

from bernstein_helpers import reference_bernstein_enclosure, reference_bernstein_prefilter
from sturm_helpers import (
    _odd_part_chain,
    _root_intervals as sturm_root_intervals,
    _sturm_chain,
    reference_decide_factors,
    reference_negative_point,
)
from test_acceptance import certifier_cases

WITNESS = IntPoly([1, -3, 1])
PAIR = FareyPair.from_endpoints(F(1, 3), F(2, 5))
I13_25 = PAIR.interval()
TOUCH = IntPoly([0, 6, -9])  # 6x - 9x**2 touches 1 at x = 1/3 on [0, 1/2]


def table_witnesses():
    """(pair, monic witness, bound) for every bundled table entry."""
    out = []
    for entry in parse_table_file(bundled_table_path()):
        poly = entry.poly if entry.poly.coeffs[-1] == 1 else -entry.poly
        bound = max(F(1, entry.pair.b1), F(1, entry.pair.b2)) ** poly.degree
        out.append((entry.pair, poly, bound))
    return out


def reference_enclosure(f, interval, tol):
    """The former kernel: bisection of the bound over exact decisions."""
    lo = max(abs(f(interval.lo)), abs(f(interval.hi)))
    nums, den = to_bernstein(f, interval)
    hi = max(F(1), F(sum(abs(c) for c in nums), den))
    while hi - lo > tol:
        mid = (lo + hi) / 2
        cert = decide_sup_bound(f, interval, mid)
        if cert.verdict is Verdict.CERTIFIED_AT_MOST:
            hi = mid
        else:
            lo = abs(f(cert.refutation_point))
    return lo, hi


def negative_points(h, lo, hi):
    """(subdivision point, former Sturm point) where h < 0 on the open
    (lo, hi), each None when h >= 0 there."""
    interval = Interval(lo, hi)
    return (
        _negative_point(h, interval, to_bernstein(h, interval)[0]),
        reference_negative_point(h, lo, hi),
    )


def integer_ends(interval):
    """(a, w, m) with the interval [a/m, (a + w)/m], m the least common
    denominator of its lower end and its width."""
    lo, width = interval.lo, interval.width
    m = math.lcm(lo.denominator, width.denominator)
    return lo.numerator * (m // lo.denominator), width.numerator * (m // width.denominator), m


def root_intervals(g, interval):
    """_root_intervals on the interval, each node (a', m', s) checked to lie
    on the dyadic grid, a' = (a << k) + i w and m' = m << k with 0 <= i < 2**k,
    and mapped to the Sturm isolation's form: (u, u, 0) for a root hit
    exactly, else (u, v, s) with [u, v] the node."""
    a, w, m = integer_ends(interval)
    for a_k, m_k, s in _root_intervals(g, a, w, m):
        k = m_k.bit_length() - m.bit_length()
        index, rest = divmod(a_k - (a << k), w)
        assert m_k == m << k and rest == 0 and 0 <= index < 1 << k
        u = F(a_k, m_k)
        if s == 0:
            assert index % 2 == 1
            yield u, u, 0
        else:
            yield u, F(a_k + w, m_k), s


def random_case(rng):
    f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [rng.choice([-2, -1, 1, 3])])
    a = F(rng.randint(-6, 6), rng.randint(1, 4))
    interval = Interval(a, a + F(rng.randint(1, 8), rng.randint(2, 8)))
    return f, interval, F(1, rng.randint(1, 10**4))


class TestDecideSupBound:
    def test_table_bound_certifies(self):
        cert = decide_sup_bound(WITNESS, I13_25, F(1, 9))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST
        assert cert.method == "subdivision"

    def test_tighter_bound_refutes_at_endpoint(self):
        cert = decide_sup_bound(WITNESS, I13_25, F(1, 10))
        assert cert.verdict is Verdict.REFUTED
        assert cert.refutation_point == F(1, 3)
        assert abs(WITNESS(cert.refutation_point)) > F(1, 10)

    def test_zero_poly_zero_bound(self):
        cert = decide_sup_bound(IntPoly(), I13_25, F(0))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            decide_sup_bound(WITNESS, I13_25, F(-1))

    def test_interior_touch_certifies(self):
        # |2x**2 - 1| touches 1 at x=0 and both endpoints of [-1, 1]
        f = IntPoly([-1, 0, 2])
        cert = decide_sup_bound(f, Interval(-1, 1), F(1))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST

    def test_interior_touch_irrational_location(self):
        # sup on an interval whose maximizer is not dyadic
        f = IntPoly([0, 0, 1])  # x**2 on [-2/3, 1/2]: sup = 4/9 at -2/3
        cert = decide_sup_bound(f, Interval(F(-2, 3), F(1, 2)), F(4, 9))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST
        cert2 = decide_sup_bound(f, Interval(F(-2, 3), F(1, 2)), F(4, 9) - F(1, 1000))
        assert cert2.verdict is Verdict.REFUTED
        assert abs(f(cert2.refutation_point)) > F(4, 9) - F(1, 1000)

    def test_interior_negative_dip(self):
        # B - f < 0 only well inside the interval
        f = IntPoly([0, 1]) * IntPoly([-1, 1])  # x(x-1), peak 1/4 at 1/2
        cert = decide_sup_bound(f, Interval(0, 1), F(1, 5))
        assert cert.verdict is Verdict.REFUTED
        point = cert.refutation_point
        assert 0 < point < 1 and abs(f(point)) > F(1, 5)

    def test_never_inconclusive_random(self):
        rng = random.Random(12)
        for _ in range(100):
            f = IntPoly([rng.randint(-20, 20) for _ in range(rng.randint(1, 7))])
            interval = Interval(F(-3, 2), F(5, 4))
            bound = F(rng.randint(0, 40), rng.randint(1, 8))
            cert = decide_sup_bound(f, interval, bound)
            assert cert.verdict is not Verdict.INCONCLUSIVE
            if cert.verdict is Verdict.REFUTED:
                assert abs(f(cert.refutation_point)) > bound


class TestBernsteinPrefilter:
    def test_easy_certify_depth_zero(self):
        cert = bernstein_prefilter(IntPoly([0, 1]), Interval(0, 1), F(2))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST
        assert cert.depth == 0
        assert cert.method == "bernstein"

    def test_constant_refuted(self):
        cert = bernstein_prefilter(IntPoly([2]), Interval(0, 1), F(1))
        assert cert.verdict is Verdict.REFUTED

    def test_endpoint_equality_resolved_or_inconclusive(self):
        cert = bernstein_prefilter(WITNESS, I13_25, F(1, 9))
        assert cert.verdict in (Verdict.CERTIFIED_AT_MOST, Verdict.INCONCLUSIVE)
        if cert.verdict is Verdict.INCONCLUSIVE:
            sturm = decide_sup_bound(WITNESS, I13_25, F(1, 9))
            assert sturm.verdict is Verdict.CERTIFIED_AT_MOST

    def test_touch_at_non_dyadic_point_falls_back_to_subdivision(self):
        interval = Interval(0, F(1, 2))
        pre = bernstein_prefilter(TOUCH, interval, F(1))
        assert pre.verdict is Verdict.INCONCLUSIVE
        assert pre.depth == PREFILTER_DEPTH
        cert = certify_sup_bound(TOUCH, interval, F(1))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST
        assert cert.method == "subdivision"

    def test_never_contradicts_sturm(self):
        # against the subdivision decision and the former Sturm decision
        rng = random.Random(21)
        for _ in range(150):
            f = IntPoly([rng.randint(-10, 10) for _ in range(rng.randint(1, 6))])
            interval = Interval(F(-1, 2), F(2, 3))
            bound = F(rng.randint(0, 30), rng.randint(1, 6))
            pre = bernstein_prefilter(f, interval, bound)
            if pre.verdict is Verdict.INCONCLUSIVE:
                continue
            exact = decide_sup_bound(f, interval, bound)
            sturm = reference_decide_factors(f, interval, bound)
            assert pre.verdict == exact.verdict
            assert (exact.verdict is Verdict.REFUTED) == (sturm is not None)

    @pytest.mark.parametrize("f, prefilter, decision", [
        # f > 1 at both ends is checked before f < -1, so the prefilter
        # refutes at hi where the decision, lo before hi, refutes at lo
        (IntPoly([-2, 4]), (Verdict.REFUTED, F(1), 0), F(0)),
        # f touches 1 at 1/3 and equals it at 1/2, so the left half stops
        # undecided at depth 12 and the right half still refutes
        (IntPoly([0, 9, -29, 39, -18]), (Verdict.REFUTED, F(3, 4), 12), F(3, 4)),
    ], ids=["ends-before-signs", "refuted-past-undecided"])
    def test_walk_order_corners(self, f, prefilter, decision):
        interval = Interval(0, 1)
        pre = bernstein_prefilter(f, interval, 1)
        assert (pre.verdict, pre.refutation_point, pre.depth) == prefilter
        assert reference_bernstein_prefilter(f, interval, 1) == prefilter
        assert decide_sup_bound(f, interval, 1).refutation_point == decision
        cert = certify_sup_bound(f, interval, 1)
        assert (cert.verdict, cert.refutation_point, cert.depth, cert.method) == (
            *prefilter, "bernstein"
        )
        if prefilter[2] == PREFILTER_DEPTH:
            left = Interval(0, F(1, 2))
            undecided = bernstein_prefilter(f, left, 1)
            assert (undecided.verdict, undecided.depth) == (Verdict.INCONCLUSIVE, PREFILTER_DEPTH)
            assert decide_sup_bound(f, left, 1).verdict is Verdict.CERTIFIED_AT_MOST


class TestRootIsolation:
    def test_exact_and_isolated_roots_in_order(self):
        # roots 1/5, 1/3, 1/2 (the first midpoint) and 1 (an endpoint) on (0, 1)
        roots = [F(1, 5), F(1, 3), F(1, 2), F(1)]
        g = IntPoly([1])
        for r in roots:
            g = g * IntPoly([-r.numerator, r.denominator])
        # the Sturm isolation of the oracle, left to right
        found = list(sturm_root_intervals(_sturm_chain(g), F(0), F(1)))
        assert len(found) == 3
        assert found[2] == (F(1, 2), F(1, 2), 0)
        for (u, v, s), root in zip(found[:2], roots):
            assert u < root < v and (g(u) != 0 or g(v) != 0)
            assert (g((root + v) / 2) > 0) - (g((root + v) / 2) < 0) == s
        assert found[0][1] <= found[1][0]
        # the subdivision isolation, in no particular order
        found = list(root_intervals(g, Interval(0, 1)))
        assert len(found) == 3
        assert (F(1, 2), F(1, 2), 0) in found
        isolated = sorted(x for x in found if x[0] < x[1])
        for (u, v, s), root in zip(isolated, roots):
            assert u < root < v
            assert (g((root + v) / 2) > 0) - (g((root + v) / 2) < 0) == s

    def test_no_roots(self):
        assert list(sturm_root_intervals(_sturm_chain(IntPoly([1, 0, 1])), F(-3), F(3))) == []
        assert list(sturm_root_intervals(_sturm_chain(IntPoly([5])), F(0), F(1))) == []
        assert list(root_intervals(IntPoly([1, 0, 1]), Interval(-3, 3))) == []
        assert list(root_intervals(IntPoly([5]), Interval(0, 1))) == []

    def test_negative_point_after_exact_midpoint_root(self):
        # h = (2x - 1)(4x - 3) > 0 at both ends of [0, 1]: the first bisection
        # point 1/2 is an exact sign change, and h < 0 on (1/2, 3/4)
        h = IntPoly([-1, 2]) * IntPoly([-3, 4])
        assert next(sturm_root_intervals(_odd_part_chain(h), F(0), F(1))) == (F(1, 2), F(1, 2), 0)
        for point in negative_points(h, F(0), F(1)):
            assert F(1, 2) < point < F(3, 4) and h(point) < 0

    def test_negative_point_at_first_isolation_midpoint(self):
        # f = 1 + 4(x - 1/2)(1 - x) crosses 1 upward at the midpoint of [0, 1]
        f = IntPoly([1]) + 2 * IntPoly([-1, 2]) * IntPoly([1, -1])
        cert = decide_sup_bound(f, Interval(0, 1), F(1))
        assert cert.verdict is Verdict.REFUTED
        assert 0 < cert.refutation_point < 1
        assert abs(f(cert.refutation_point)) > 1

    def test_exact_root_next_to_an_isolating_interval(self):
        # f crosses the bound upward at -11/8, a bisection point of [-2, 3],
        # and the next root of N - D f is isolated in (-11/8, -3/4)
        f = IntPoly([6, 1, 6, 1, -1])
        bound = F(40119, 4096)
        chain = _odd_part_chain(factors_of(f, bound)[0])
        assert next(sturm_root_intervals(chain, F(-2), F(3)))[:2] == (F(-11, 8), F(-11, 8))
        cert = decide_sup_bound(f, Interval(-2, 3), bound)
        assert cert.verdict is Verdict.REFUTED
        assert -2 < cert.refutation_point < 3
        assert abs(f(cert.refutation_point)) > bound

    def test_no_sign_change_gives_none(self):
        h = IntPoly([-1, 2]) ** 2
        assert negative_points(h, F(0), F(1)) == (None, None)

    def test_negative_point_searches_open_interval(self):
        h = IntPoly([-1, 2]) * IntPoly([-3, 4])  # (2x - 1)(4x - 3) >= 0 on [0, 1/2]
        assert negative_points(h, F(0), F(1, 2)) == (None, None)
        # zero at both ends of [1/2, 3/4]: h < 0 and -h > 0 strictly inside
        assert negative_points(h, F(1, 2), F(3, 4)) == (F(5, 8), F(5, 8))
        assert negative_points(-h, F(1, 2), F(3, 4)) == (None, None)
        assert negative_points(IntPoly([1]), F(0), F(1)) == (None, None)
        assert negative_points(IntPoly(), F(0), F(1)) == (None, None)

    def test_vanishing_at_both_endpoints_refutes_at_midpoint(self):
        # 1 + x - x**2 equals 1 at both ends of [0, 1] and exceeds it inside
        f = IntPoly([1, 1, -1])
        cert = decide_sup_bound(f, Interval(0, 1), F(1))
        assert cert.verdict is Verdict.REFUTED
        assert cert.refutation_point == F(1, 2) and abs(f(cert.refutation_point)) > 1


def neighbour_polys(seed):
    """(g, interval, bound) for g = f + sign * x**j * v, j seeded, over the
    degree >= 3 table witnesses f with bound N/D, v = (b1 x - a1)(b2 x - a2).
    g equals f at both endpoints, so a decision on g reaches the interior."""
    rng = random.Random(seed)
    out = []
    for pair, f, bound in table_witnesses():
        if f.degree < 3:
            continue
        v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
        j = rng.randrange(f.degree - 2)
        for sign in (1, -1):
            out.append((f + sign * (IntPoly.monomial(j) * v), pair.interval(), bound))
    return out


def h_of(f, bound):
    """h = N**2 - D**2 f**2 for the bound N/D."""
    return IntPoly([bound.numerator**2]) - f * f * bound.denominator**2


def factors_of(f, bound):
    """(N - D f, N + D f) for the bound N/D: |f| <= N/D where both are >= 0."""
    num, scaled = IntPoly([bound.numerator]), f * bound.denominator
    return num - scaled, num + scaled


def neighbour_cases():
    """(h, interval) for the neighbours g of seed 59: first h = h_of(g, bound)
    for each g, then h = each of the two factors_of(g, bound)."""
    cases = neighbour_polys(59)
    return [(h_of(g, bound), interval) for g, interval, bound in cases] + [
        (q, interval) for g, interval, bound in cases for q in factors_of(g, bound)
    ]


def random_kernel_cases(count):
    """(h, interval) with h = c * prod p_k**e_k, multiplicities 1..4."""
    rng = random.Random(61)
    out = []
    for _ in range(count):
        h = IntPoly([rng.choice([-6, -1, 1, 4])])
        for _ in range(rng.randint(1, 4)):
            p = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [rng.randint(1, 3)])
            h = h * p ** rng.randint(1, 4)
        a = F(rng.randint(-12, 12), rng.randint(1, 4))
        out.append((h, Interval(a, a + F(rng.randint(1, 16), rng.randint(1, 4)))))
    return out


def sympy_odd_part(sympy, h):
    """Odd-multiplicity part of h from sympy's sqf_list, primitive with a
    positive leading coefficient."""
    x = sympy.Symbol("x")
    _, factors = sympy.Poly(h.coeffs[::-1], x, domain="ZZ").sqf_list()
    odd = sympy.Poly(1, x, domain="ZZ")
    for factor, mult in factors:
        if mult % 2:
            odd = odd * factor
    want = IntPoly([int(c) for c in odd.all_coeffs()[::-1]]).primitive()
    return want if want.coeffs[-1] > 0 else -want


class TestIntegerKernelOracle:
    """The odd-multiplicity part and the Sturm count against sympy, an
    independent oracle."""

    CASES = neighbour_cases() + random_kernel_cases(200)

    def test_odd_multiplicity_part_matches_sqf_list(self):
        sympy = pytest.importorskip("sympy")
        assert len(self.CASES) == 102 + 2 * 102 + 200
        for h, _ in self.CASES:
            assert _odd_part_chain(h)[0] == sympy_odd_part(sympy, h), h

    def test_squarefree_odd_part_matches_sqf_list(self):
        # the decision's and the enclosure's squarefree part: h itself when
        # the modular test proves it squarefree, up to a constant factor
        sympy = pytest.importorskip("sympy")
        for h, _ in self.CASES:
            got = _squarefree_odd_part(h).primitive()
            assert (got if got.coeffs[-1] > 0 else -got) == sympy_odd_part(sympy, h), h

    def test_sturm_count_matches_count_roots(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")

        def sturm_count(h, interval):
            chain = _odd_part_chain(h)

            def variations(point):
                return _variations([_sign_at(p, point) for p in chain])

            return variations(interval.lo) - variations(interval.hi)

        def sympy_count(h, interval):
            g = _odd_part_chain(h)[0]
            lo, hi = sympy.Rational(interval.lo), sympy.Rational(interval.hi)
            oracle = sympy.Poly(g.coeffs[::-1], x, domain="ZZ")
            # count_roots counts the closed [lo, hi]; Sturm counts (lo, hi]
            return oracle.count_roots(lo, hi) - (oracle.eval(lo) == 0)

        squares, rest = self.CASES[:102], self.CASES[102:]
        counts = [sympy_count(h, interval) for h, interval in rest]
        for (h, interval), want in zip(rest, counts):
            assert sturm_count(h, interval) == want, (h, interval)
        # each h = (N - D g)(N + D g) of the first 102 cases has its two
        # factors among the next 204, already checked against sympy; with
        # N != 0 they share no root, so h's odd-multiplicity roots in
        # (lo, hi] are theirs, and its count is the sum of theirs
        for i, (h, interval) in enumerate(squares):
            (minus, lo_int), (plus, hi_int) = rest[2 * i], rest[2 * i + 1]
            assert minus * plus == h and lo_int == interval == hi_int
            assert minus + plus  # 2N, a nonzero constant
            want = counts[2 * i] + counts[2 * i + 1]
            assert sturm_count(h, interval) == want, (h, interval)


def yun_squarefree_factors(h):
    """Yun's decomposition (Yun, SYMSAC 1976): f_1, f_2, ... with
    h = c prod f_i**i for a rational c, every f_i from poly_gcd.

    b and c carry one common scale, so d = c - b' is Yun's d up to that
    scale, and every division is by a primitive gcd that divides exactly.
    """
    g = poly_gcd(h, h.derivative())
    b = h // g
    c = h.derivative() // g
    d = c - b.derivative()
    factors = []
    while b.degree > 0:
        f = poly_gcd(b, d)
        factors.append(f)
        b = b // f
        c = d // f
        d = c - b.derivative()
    return factors


def reference_odd_part_chain(h):
    """The former two-sequence path: Yun's split from poly_gcd(h, h'),
    then the Sturm chain of the odd-multiplicity part."""
    odd = IntPoly([1])
    for f in yun_squarefree_factors(h)[::2]:
        odd = odd * f
    return _sturm_chain(odd)


def reference_decide_sup_bound(f, interval, bound):
    """The former decision on the degree-2n h = N**2 - D**2 f**2, by the
    former Sturm routine: the refutation point, or None when the bound is
    certified."""
    for x in (interval.lo, interval.hi):
        if abs(f(x)) > bound:
            return x
    return reference_negative_point(h_of(f, bound), interval.lo, interval.hi)


def reference_sup_norm_enclosure(f, interval, tol):
    """sup_norm_enclosure with the critical points taken from the squarefree
    part f' / poly_gcd(f', f''), even-multiplicity roots included."""
    def squarefree_part(p):
        return p // poly_gcd(p, p.derivative())

    with mock.patch.object(certify, "_squarefree_odd_part", squarefree_part):
        return sup_norm_enclosure(f, interval, tol)


def linear(r):
    """The primitive linear polynomial with root r."""
    return IntPoly([-r.numerator, r.denominator])


def touching_cases(count):
    """(F, interval, N) with N - F = s * f * g**k, g linear and k = 2 or 3,
    so the factor N - F of N**2 - F**2 has g**k and is not squarefree.

    The root r of g is inside the interval for k = 2 and its left end for
    k = 3, and s * f(r) >= 0, so N - F >= 0 near r.  Every third f has two
    roots in the interval, around which N - F can dip below zero.
    """
    rng = random.Random(67)
    out = []
    for idx in range(count):
        r = F(rng.randint(-6, 6), rng.randint(1, 4))
        k = 2 + idx % 2
        w = F(rng.randint(1, 4), rng.randint(1, 8))
        lo, hi = (r - w if k == 2 else r), r + w
        if idx % 3:
            f = IntPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [rng.choice([1, 2])])
        else:
            f = linear(lo + w / 3) * linear(hi - w / 5)
        sign = -1 if f(r) < 0 else 1
        bound = rng.randint(1, 40)
        out.append((IntPoly([bound]) - sign * f * linear(r) ** k, Interval(lo, hi), F(bound)))
    return out


def critical_cases(count):
    """(f, interval, tol) with f = p**k * q, k = 3..5, so f' has the factor
    p**(k-1) and is not squarefree."""
    rng = random.Random(71)
    out = []
    for _ in range(count):
        p = IntPoly([rng.randint(-3, 3), rng.choice([1, 2])])
        q = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
        a = F(rng.randint(-4, 4), rng.randint(1, 3))
        interval = Interval(a, a + F(rng.randint(1, 6), 3))
        out.append((p ** rng.randint(3, 5) * q, interval, F(1, 997)))
    return out


def counting(monkeypatch, name):
    """Replace certify.<name> by a wrapper that records (args, result)."""
    calls = []
    original = getattr(certify, name)

    def wrapper(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(certify, name, wrapper)
    return calls


class TestOneSequence:
    """The decision on the two factors N -+ D f matches the former Sturm
    decision on h = N**2 - D**2 f**2.  It builds no Sturm chain: a factor
    whose Bernstein numerators are all >= 0 is settled with no more work,
    a factor that needs subdividing runs one remainder sequence mod p, and
    poly_gcd runs only for a factor that sequence does not prove
    squarefree."""

    def assert_same_decision(self, f, interval, bound):
        got = decide_sup_bound(f, interval, bound)
        want = reference_decide_sup_bound(f, interval, bound)
        assert (got.verdict is Verdict.REFUTED) == (want is not None), (f, interval, bound)
        for point in (got.refutation_point, want):
            if point is not None:
                assert point in interval and abs(f(point)) > bound, (f, interval, bound)

    def test_decision_matches_reference_on_table(self):
        for pair, f, bound in table_witnesses():
            for b in (bound, 2 * bound, bound / 2):
                self.assert_same_decision(f, pair.interval(), b)

    def test_decision_matches_reference_on_neighbours(self):
        cases = neighbour_polys(59) + [
            (g, interval, scale * bound)
            for g, interval, bound in neighbour_polys(73)
            for scale in (2, F(1, 2))
        ]
        assert len(cases) == 3 * 102
        for g, interval, bound in cases:
            self.assert_same_decision(g, interval, bound)

    def test_decision_matches_reference_when_h_is_not_squarefree(self):
        fallback = interior = 0
        for f, interval, bound in touching_cases(90):
            self.assert_same_decision(f, interval, bound)
            if all(abs(f(x)) <= bound for x in (interval.lo, interval.hi)) and any(
                q.degree > 0 and poly_gcd(q, q.derivative()).degree > 0
                for q in factors_of(f, bound)
            ):
                fallback += 1
                point = decide_sup_bound(f, interval, bound).refutation_point
                interior += point is not None
        assert fallback >= 40 and interior >= 5

    def test_enclosure_matches_reference(self):
        cases = [
            (poly, pair.interval(), bound / 1000)
            for pair, poly, bound in table_witnesses()
            if 4 <= poly.degree <= 12
        ]
        rng = random.Random(41)
        cases += [random_case(rng) for _ in range(200)]
        cases += critical_cases(60)
        nonsquarefree = 0
        for f, interval, tol in cases:
            if f.degree >= 2:
                d = f.derivative()
                nonsquarefree += poly_gcd(d, d.derivative()).degree > 0
            assert sup_norm_enclosure(f, interval, tol) == reference_sup_norm_enclosure(
                f, interval, tol
            ), (f, interval)
        assert nonsquarefree >= 60

    def test_squarefree_h_runs_one_remainder_sequence(self, monkeypatch):
        # the degree-18 neighbour: N - D g has every Bernstein coefficient
        # >= 0 and is settled before any subdivision, and one remainder
        # sequence mod p proves N + D g squarefree before its subdivision
        # refutes
        (pair, f, bound), = [w for w in table_witnesses() if w[1].degree == 18]
        v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
        g = f + IntPoly.monomial(7) * v
        low, high = factors_of(g, bound)
        assert min(to_bernstein(low, pair.interval())[0]) >= 0
        gcds = counting(monkeypatch, "poly_gcd")
        tests = counting(monkeypatch, "_squarefree_mod_p")
        cert = decide_sup_bound(g, pair.interval(), bound)
        assert cert.verdict is Verdict.REFUTED
        assert tests == [((high,), True)]
        assert gcds == []

    def test_non_squarefree_h_takes_odd_part_from_poly_gcd(self, monkeypatch):
        # F = 1 - (2x - 1)**2 at bound 1: the factor 1 - F = (2x - 1)**2 is
        # not squarefree, poly_gcd gives gcd(q, q') = 2x - 1 and then its own
        # gcd 1, and the odd part is 1; the factor 1 + F = 2 - (2x - 1)**2
        # has the Bernstein numerators 2, 6, 2 over 2 and is settled before
        # any subdivision
        f = IntPoly([1]) - IntPoly([-1, 2]) ** 2
        low, high = factors_of(f, F(1))
        assert low == IntPoly([-1, 2]) ** 2
        assert to_bernstein(high, Interval(0, 1)) == ((2, 6, 2), 2)
        gcds = counting(monkeypatch, "poly_gcd")
        tests = counting(monkeypatch, "_squarefree_mod_p")
        cert = decide_sup_bound(f, Interval(0, 1), F(1))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST
        assert tests == [((low,), False)]
        assert [args for args, _ in gcds] == [
            (low, low.derivative()), (IntPoly([-1, 2]), IntPoly([2]))
        ]

    def test_certified_decision_converts_f_once(self, monkeypatch):
        # the degree-18 witness: one Bernstein conversion of f serves both
        # factors, each proved squarefree mod p and subdivided to its leaves
        (pair, poly, bound), = [w for w in table_witnesses() if w[1].degree == 18]
        interval = pair.interval()
        conversions = counting(monkeypatch, "to_bernstein")
        tests = counting(monkeypatch, "_squarefree_mod_p")
        gcds = counting(monkeypatch, "poly_gcd")
        cert = decide_sup_bound(poly, interval, bound)
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST
        assert [args for args, _ in conversions] == [(poly, interval)]
        assert tests == [((q,), True) for q in factors_of(poly, bound)]
        assert gcds == []

    def test_factors_with_nonnegative_numerators_are_not_subdivided(self, monkeypatch):
        # x**2 - 3x + 1 on [1/3, 2/5] at 1/9: f's Bernstein numerators over
        # den = 450 are 50, 15, -18, so both factors, with the numerators
        # 450 -+ 9c, are all >= 0, and neither is built nor tested
        assert to_bernstein(WITNESS, I13_25) == ((50, 15, -18), 450)
        conversions = counting(monkeypatch, "to_bernstein")
        negatives = counting(monkeypatch, "_negative_point")
        tests = counting(monkeypatch, "_squarefree_mod_p")
        depths = counting(monkeypatch, "_depth_bound")
        cert = decide_sup_bound(WITNESS, I13_25, F(1, 9))
        assert cert.verdict is Verdict.CERTIFIED_AT_MOST
        assert [args for args, _ in conversions] == [(WITNESS, I13_25)]
        assert negatives == [] and tests == [] and depths == []

    def test_table_decisions_settled_without_subdivision(self, monkeypatch):
        # 43 of the 73 table witnesses need no subdivision at their own bound
        negatives = counting(monkeypatch, "_negative_point")
        settled = 0
        for pair, f, bound in table_witnesses():
            before = len(negatives)
            assert decide_sup_bound(f, pair.interval(), bound).verdict is Verdict.CERTIFIED_AT_MOST
            settled += len(negatives) == before
        assert settled == 43

    def test_endpoint_refutation_reads_end_numerators(self, monkeypatch):
        # x**2 - 3x + 1 is 1/9 and -1/25 at the ends of [1/3, 2/5], both
        # above 1/30 in size: lo refutes first, from the first Bernstein
        # numerator of the one conversion, with no subdivision
        conversions = counting(monkeypatch, "to_bernstein")
        negatives = counting(monkeypatch, "_negative_point")
        cert = decide_sup_bound(WITNESS, I13_25, F(1, 30))
        assert cert.verdict is Verdict.REFUTED
        assert cert.refutation_point == I13_25.lo
        # x is 0 and 1 at the ends of [0, 1]: only hi exceeds 1/2, and refutes
        cert = decide_sup_bound(IntPoly([0, 1]), Interval(0, 1), F(1, 2))
        assert cert.refutation_point == 1
        assert [args for args, _ in conversions] == [
            (WITNESS, I13_25), (IntPoly([0, 1]), Interval(0, 1))
        ]
        assert negatives == []

    def test_decision_matches_reference_on_oracle_instances(self):
        cases = certifier_cases()
        assert len(cases) == 1000
        for f, interval, bound in cases:
            self.assert_same_decision(f, interval, bound)

    def test_degree_30_witnesses_and_neighbours_match_reference(self):
        for lo, hi in ((F(1, 4), F(2, 7)), (F(1, 3), F(3, 8))):
            pair = FareyPair.from_endpoints(lo, hi)
            f = search_witness(pair, 30, radius=0)
            assert f is not None and f.degree == 30
            bound = max(F(1, pair.b1), F(1, pair.b2)) ** 30
            v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
            cases = [f] + [f + s * (IntPoly.monomial(j) * v) for j in (5, 17) for s in (1, -1)]
            for g in cases:
                self.assert_same_decision(g, pair.interval(), bound)
            assert decide_sup_bound(f, pair.interval(), bound).verdict is Verdict.CERTIFIED_AT_MOST

    def test_squarefree_derivative_runs_one_remainder_sequence(self, monkeypatch):
        # the degree-18 witness: the modular test proves f' squarefree once,
        # and its roots are isolated with no gcd
        (pair, poly, bound), = [w for w in table_witnesses() if w[1].degree == 18]
        tests = counting(monkeypatch, "_squarefree_mod_p")
        gcds = counting(monkeypatch, "poly_gcd")
        sup_norm_enclosure(poly, pair.interval(), bound / 1000)
        assert tests == [((poly.derivative(),), True)]
        assert gcds == []


def coset_neighbours():
    """(g, interval, bound) for every g = f + sign * x**j * v, j + 2 < deg f,
    over the table witnesses f with bound N/D, v = (b1 x - a1)(b2 x - a2):
    all of the coset around f that keeps g monic of the same degree."""
    out = []
    for pair, f, bound in table_witnesses():
        v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
        for j in range(f.degree - 2):
            for sign in (1, -1):
                out.append((f + sign * (IntPoly.monomial(j) * v), pair.interval(), bound))
    return out


def prefilter_cases(count):
    """(f, interval, bound) of degree 0 to 12 on intervals with negative and
    integer endpoints.  Four in five f have their roots inside the interval,
    and so extrema inside it, with the bound 0.99 to 1.03 times the largest
    |f| on a 64-step grid; the fifth is N - k g**2 (1 + x**2)**e at bound
    N, touching it at the non-dyadic root of g.  So leaves certify, refute
    and stay open, at every depth."""
    rng = random.Random(83)
    out = []
    for idx in range(count):
        if idx % 2:
            lo = F(rng.randint(-3, 1))
            interval = Interval(lo, lo + rng.randint(1, 2))
        else:
            lo = F(rng.randint(-8, 3), rng.choice([2, 3, 4, 8]))
            interval = Interval(lo, lo + F(rng.randint(1, 8), rng.choice([2, 4, 8])))
        if idx % 5 == 4:
            g = linear(interval.lo + interval.width / 3)
            bound = F(rng.randint(1, 50))
            f = IntPoly([bound.numerator]) - rng.randint(1, 5) * g * g * (
                IntPoly([1, 0, 1]) ** rng.randint(0, 5)
            )
        else:
            f = IntPoly([rng.choice([-3, -1, 1, 2])])
            for _ in range(rng.randint(0, 12)):
                f = f * linear(interval.lo + interval.width * F(rng.randint(0, 12), 12))
            grid_max = max(abs(f(interval.lo + k * interval.width / 64)) for k in range(65))
            bound = grid_max * F(rng.randint(99, 103), 100)
        out.append((f, interval, bound))
    return out


class TestFractionKernelOracle:
    """The integer Bernstein kernel against the former Fraction kernel:
    the same prefilter verdict, refutation point and depth, and the same
    enclosure bracket."""

    def assert_same_prefilter(self, cases):
        got = []
        for f, interval, bound in cases:
            cert = bernstein_prefilter(f, interval, bound)
            outcome = (cert.verdict, cert.refutation_point, cert.depth)
            want = reference_bernstein_prefilter(f, interval, bound)
            assert outcome == want, (f, interval, bound)
            got.append(outcome)
        return got

    def test_prefilter_on_table(self):
        cases = [
            (f, pair.interval(), b)
            for pair, f, bound in table_witnesses()
            for b in (bound, 2 * bound, bound / 2)
        ]
        assert len(cases) == 3 * 73
        verdicts = {verdict for verdict, _, _ in self.assert_same_prefilter(cases)}
        assert verdicts == {Verdict.CERTIFIED_AT_MOST, Verdict.REFUTED}

    def test_prefilter_on_coset_neighbours(self):
        cases = coset_neighbours()
        assert len(cases) == 356
        outcomes = self.assert_same_prefilter(cases)
        assert any(point not in (None, interval.lo, interval.hi)
                   for (_, point, _), (_, interval, _) in zip(outcomes, cases))

    def test_prefilter_on_random_cases(self):
        cases = prefilter_cases(600)
        outcomes = self.assert_same_prefilter(cases)
        assert all(sum(verdict is v for verdict, _, _ in outcomes) >= 25 for v in Verdict)
        assert sum(depth > 0 and verdict is Verdict.CERTIFIED_AT_MOST
                   for verdict, _, depth in outcomes) >= 150
        assert sum(point not in (None, interval.lo, interval.hi)
                   for (_, point, _), (_, interval, _) in zip(outcomes, cases)) >= 40
        assert sum(interval.lo < 0 for _, interval, _ in cases) >= 300
        assert sum(interval.lo.denominator == interval.hi.denominator == 1
                   for _, interval, _ in cases) >= 300

    @pytest.mark.parametrize("tol", ["bound/1000", "1/10**6"])
    def test_enclosure_on_table(self, tol):
        for pair, poly, bound in table_witnesses():
            t = bound / 1000 if tol == "bound/1000" else F(1, 10**6)
            got = sup_norm_enclosure(poly, pair.interval(), t)
            assert got == reference_bernstein_enclosure(poly, pair.interval(), t), (pair, poly)

    def test_enclosure_on_random_cases(self, monkeypatch):
        # the table's interior extrema sit well below its endpoint values, so
        # its enclosures rarely split; these cases split about 160 times
        rng = random.Random(41)
        cases = [random_case(rng) for _ in range(200)] + critical_cases(60)
        splits = counting(monkeypatch, "bernstein_split")
        for f, interval, tol in cases:
            got = sup_norm_enclosure(f, interval, tol)
            assert got == reference_bernstein_enclosure(f, interval, tol), (f, interval)
        assert len(splits) >= 100


class TestFormerSturmDecision:
    """The subdivision decision against the former Sturm decision on the
    same two factors: the same verdict and the same refutation point."""

    def test_same_verdicts_and_points(self):
        cases = [
            (f, pair.interval(), b)
            for pair, f, bound in table_witnesses()
            for b in (bound, 2 * bound, bound / 2)
        ]
        cases += coset_neighbours() + prefilter_cases(600) + touching_cases(100)
        assert len(cases) == 1275
        points = 0
        for f, interval, bound in cases:
            cert = decide_sup_bound(f, interval, bound)
            assert cert.refutation_point == reference_decide_factors(f, interval, bound), (
                f, interval, bound
            )
            if cert.verdict is Verdict.REFUTED:
                points += 1
                assert abs(f(cert.refutation_point)) > bound
        assert points >= 600


nonzero_polys = st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(IntPoly).filter(bool)


def exact_power_depth_bound(q, width):
    """The depth bound from the exact power top = w**2 n**(n+2)
    ||q||**(2n-2), as first computed: least k with 2k >= bits(top) -
    bits(3 d**2) + 1 for the width w / d."""
    n = q.degree
    if n < 2:
        return 0
    top = width.numerator**2 * n ** (n + 2) * sum(c * c for c in q.coeffs) ** (n - 1)
    bottom = 3 * width.denominator**2
    return max(0, -(-(top.bit_length() - bottom.bit_length() + 1) // 2))


def near_touches():
    """(f, interval, bound) with f = 1 - (3x - 1)**(2m) on [0, 1/2], m = 1..5,
    and the bound 1 -+ 10**-k: N - D f has two complex or real roots within
    about 10**(-k/2m) of 1/3, the maximum point of f."""
    out = []
    for m in range(1, 6):
        f = IntPoly([1]) - IntPoly([-1, 3]) ** (2 * m)
        for k in (3, 6, 9, 12):
            for bound in (1 + F(1, 10**k), 1 - F(1, 10**k)):
                out.append((f, Interval(0, F(1, 2)), bound))
    return out


class TestSubdivisionKernel:
    """The modular squarefree test and the depth bound of the subdivision."""

    @settings(max_examples=200, deadline=None)
    @given(nonzero_polys.filter(lambda s: s.degree >= 1), nonzero_polys)
    def test_square_factor_never_called_squarefree(self, s, t):
        assert not _squarefree_mod_p(s * s * t)

    @settings(max_examples=300, deadline=None)
    @given(nonzero_polys)
    def test_modular_test_agrees_with_poly_gcd(self, q):
        # a squarefree q is misjudged only when p = 2**31 - 1 divides its
        # discriminant, which no drawn example is expected to meet
        assert _squarefree_mod_p(q) == (poly_gcd(q, q.derivative()).degree == 0)

    def test_prime_dividing_the_leading_coefficient_proves_nothing(self):
        # f = (p x - 1)(x - 1) on [0, 1] is squarefree, but p | lc(f) and
        # lc(2 -+ f), so both factors at bound 2 take the gcd fallback
        p = _SQUAREFREE_PRIME
        f = IntPoly([-1, p]) * IntPoly([-1, 1])
        assert not _squarefree_mod_p(f) and not _squarefree_mod_p(IntPoly([2]) - f)
        assert poly_gcd(f, f.derivative()).degree == 0
        cert = decide_sup_bound(f, Interval(0, 1), 2)
        assert cert.verdict is Verdict.REFUTED
        assert 0 < cert.refutation_point < 1 and abs(f(cert.refutation_point)) > 2
        assert cert.refutation_point == reference_decide_factors(f, Interval(0, 1), F(2))

    def test_near_touches_stay_within_the_depth_bound(self):
        # the least depth cap that lets each subdivision finish is at most
        # the bound, and one level less leaves the walk incomplete; a walk
        # with cap + 1 splits nodes down to depth cap, as the decision's
        # walk, with _depth_bound + 1, splits them down to the bound
        deepest = 0
        for f, interval, bound in near_touches():
            nums, den = to_bernstein(f, interval)
            frame = interval_frame(interval)
            for sign in (1, -1):
                q = IntPoly([bound.numerator]) - f * (sign * bound.denominator)
                scaled = [bound.numerator * den - sign * bound.denominator * c for c in nums]
                assert _squarefree_mod_p(q)

                def walk(cap):
                    return _first_exceeding(scaled, 0, (-1,), *frame, cap + 1)

                cap = 0
                while not walk(cap)[1]:
                    cap += 1
                point = walk(cap)[0]
                assert cap <= _depth_bound(q, interval.width), (f, bound)
                if cap:
                    assert not walk(cap - 1)[1]
                assert point is None or q(point) < 0
                deepest = max(deepest, cap)
            want = Verdict.CERTIFIED_AT_MOST if bound > 1 else Verdict.REFUTED
            assert decide_sup_bound(f, interval, bound).verdict is want
        assert deepest >= 15

    def test_bit_length_bound_covers_the_exact_power_bound(self):
        # the bound from bit lengths is never shallower than the one from
        # the exact power top = w**2 n**(n+2) ||q||**(2n-2), and its bit
        # lengths overstate bits(top) by less than 2n + 4
        cases = [
            (f, pair.interval(), b)
            for pair, f, bound in table_witnesses()
            for b in (bound, 2 * bound, bound / 2)
        ]
        cases += coset_neighbours() + near_touches()
        for f, interval, bound in cases:
            for sign in (1, -1):
                q = IntPoly([bound.numerator]) - f * (sign * bound.denominator)
                exact = exact_power_depth_bound(q, interval.width)
                assert exact <= _depth_bound(q, interval.width) <= exact + q.degree + 3, (
                    f, interval, bound
                )

    def test_depth_bound_fails_loudly(self, monkeypatch):
        monkeypatch.setattr(certify, "_depth_bound", lambda q, width: 3)
        with pytest.raises(AssertionError, match="root-separation depth"):
            decide_sup_bound(TOUCH, Interval(0, F(1, 2)), 1 + F(1, 10**9))


@st.composite
def squarefree_isolation_cases(draw):
    """(g, interval) with g squarefree of degree <= 12: distinct rational
    roots, some at dyadic points lo + j w / 2**k of the interval, its ends
    included, for depths k = 0..6, the rest anywhere near it, and at times
    an irreducible quadratic factor with irrational or complex roots."""
    lo = F(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3])))
    width = F(draw(st.integers(1, 6)), draw(st.sampled_from([1, 2, 3, 4])))
    dyadic = st.integers(0, 6).flatmap(
        lambda k: st.integers(0, 2**k).map(lambda j: lo + width * F(j, 2**k))
    )
    anywhere = st.builds(F, st.integers(-40, 40), st.integers(1, 12)).map(lambda x: lo - 1 + x / 4)
    roots = draw(st.sets(st.one_of(dyadic, anywhere), min_size=0, max_size=10))
    g = IntPoly([draw(st.sampled_from([-3, -1, 1, 2]))])
    for r in roots:
        g = g * linear(r)
    quadratic = draw(st.sampled_from([None, (-2, 0, 1), (-3, 0, 1), (1, 0, 1), (-1, -1, 1)]))
    if quadratic is not None and g.degree <= 10:
        g = g * IntPoly(list(quadratic))
    return g, Interval(lo, lo + width)


def sturm_roots_in(chain, u, v):
    """The oracle's count of the roots of chain[0] in the open (u, v)."""
    def variations(x):
        return _variations([_sign_at(p, x) for p in chain])

    return variations(u) - variations(v) - (_sign_at(chain[0], v) == 0)


class TestSubdivisionIsolation:
    """_root_intervals, Descartes' rule on the Bernstein numerators, against
    the Sturm isolation of the oracle."""

    @settings(max_examples=300, deadline=None)
    @given(squarefree_isolation_cases())
    def test_matches_the_sturm_isolation(self, case):
        g, interval = case
        chain = _sturm_chain(g)
        assert chain[-1].degree == 0  # squarefree
        found = list(root_intervals(g, interval))
        want = list(sturm_root_intervals(chain, interval.lo, interval.hi))
        assert len(found) == len(want)
        exact = [u for u, v, s in found if u == v]
        isolated = sorted((u, v, s) for u, v, s in found if u < v)
        for x in exact:
            assert interval.lo < x < interval.hi and g(x) == 0
        for u, v, s in isolated:
            assert interval.lo <= u < v <= interval.hi
            assert sturm_roots_in(chain, u, v) == 1
            # g(v), or just left of a simple root at v the sign of -g'(v)
            side = _sign_at(g, v) or -_sign_at(g.derivative(), v)
            assert s == side
            assert not any(u < x < v for x in exact)
        for (_, v, _), (u, _, _) in zip(isolated, isolated[1:]):
            assert v <= u

    @pytest.mark.parametrize("k", range(1, 13))
    def test_close_critical_points_stay_within_the_depth_bound(self, k, monkeypatch):
        # f' = 6 (3x - 1)(3K x - K - 3) for K = 10**k has the roots 1/3 and
        # 1/3 + 1/K on [0, 1/2]: the least depth cap that lets the isolation
        # finish is at most the bound, and one level less fails loudly
        big = 10**k
        f = IntPoly([0, 6 * (big + 3), -3 * (6 * big + 9), 18 * big])
        g = f.derivative()
        interval = Interval(0, F(1, 2))
        bound = _depth_bound(g, interval.width) + 1

        def isolate(cap):
            monkeypatch.setattr(certify, "_depth_bound", lambda q, width: cap - 1)
            return list(root_intervals(g, interval))

        cap = 0
        while True:
            try:
                found = isolate(cap)
                break
            except AssertionError:
                cap += 1
        # the roots part at about log2(10**k) = 3.3 k levels
        assert 3 * k - 2 <= cap <= bound
        with pytest.raises(AssertionError, match="root-separation depth"):
            isolate(cap - 1)
        roots = [F(1, 3), F(1, 3) + F(1, big)]
        assert len(found) == 2
        for (u, v, s), root in zip(sorted(found), roots):
            assert u < root < v and s == _sign_at(g, v)
        monkeypatch.undo()
        assert sup_norm_enclosure(f, interval, F(1, 10**6)) == reference_bernstein_enclosure(
            f, interval, F(1, 10**6)
        )


def multiplicity_cases(count):
    """(h, top) with h = c * prod f_i**i over a few random f_i of degree 1
    or 2 and multiplicities i = 1..5, c of either sign, and top the largest
    multiplicity used."""
    rng = random.Random(79)
    out = []
    for _ in range(count):
        h = IntPoly([rng.choice([-12, -3, -1, 1, 2, 6])])
        top = 0
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(1, 5)
            f = IntPoly([rng.randint(-4, 4) for _ in range(rng.randint(1, 2))] + [rng.randint(1, 3)])
            h = h * f**i
            top = max(top, i)
        out.append((h, top))
    return out


class TestOddPart:
    """The odd part from chain gcds against Yun's split and sympy."""

    CASES = multiplicity_cases(320)

    def test_matches_yun_reference(self):
        signs = {h.coeffs[-1] > 0 for h, _ in self.CASES}
        nonsquarefree = sum(_sturm_chain(h)[-1].degree > 0 for h, _ in self.CASES)
        assert signs == {True, False} and nonsquarefree >= 250
        for h, _ in self.CASES:
            assert _odd_part_chain(h) == reference_odd_part_chain(h), h

    def test_high_multiplicity_matches_sqf_list(self):
        sympy = pytest.importorskip("sympy")
        cases = [h for h, top in self.CASES if top >= 4]
        assert len(cases) >= 150
        for h in cases:
            assert _odd_part_chain(h)[0] == sympy_odd_part(sympy, h), h


class TestPipeline:
    def test_pipeline_matches_sturm(self):
        rng = random.Random(31)
        for _ in range(60):
            f = IntPoly([rng.randint(-15, 15) for _ in range(rng.randint(1, 6))])
            interval = Interval(F(0), F(3, 4))
            bound = F(rng.randint(0, 25), rng.randint(1, 5))
            assert (
                certify_sup_bound(f, interval, bound).verdict
                == decide_sup_bound(f, interval, bound).verdict
            )


class TestEnclosure:
    def test_witness_sup(self):
        lo, hi = sup_norm_enclosure(WITNESS, I13_25, F(1, 1000))
        assert lo <= F(1, 9) <= hi
        assert hi - lo <= F(1, 1000)

    def test_constant(self):
        assert sup_norm_enclosure(IntPoly([-7]), I13_25, F(1, 10)) == (F(7), F(7))

    def test_identity_on_unit(self):
        lo, hi = sup_norm_enclosure(IntPoly([0, 1]), Interval(0, 1), F(1, 50))
        assert lo <= 1 <= hi

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            sup_norm_enclosure(WITNESS, I13_25, F(0))

    def test_interior_max_at_non_dyadic_point(self):
        tol = F(1, 1000)
        lo, hi = sup_norm_enclosure(TOUCH, Interval(0, F(1, 2)), tol)
        assert lo < 1 <= hi and hi - lo <= tol

    def test_critical_point_on_bisection_midpoint(self):
        f = IntPoly([1]) - IntPoly([-1, 2]) ** 2  # 1 - (2x - 1)**2, max 1 at 1/2
        assert sup_norm_enclosure(f, Interval(0, 1), F(1, 1000)) == (1, 1)

    def test_critical_point_hit_by_the_isolation(self):
        # f = 10 - 2x**2 - 10x**4 on [-1, 1]: f' = -4x(10x**2 + 1) has three
        # sign variations, so the isolation splits at 0, a root it yields as
        # (0, 2, 0), and no node is left: the max f(0) = 10 is known from
        # that root alone, where |f(+-1)| = 2
        f = IntPoly([10, 0, -2, 0, -10])
        assert list(_root_intervals(f.derivative(), -1, 2, 1)) == [(0, 2, 0)]
        assert sup_norm_enclosure(f, Interval(-1, 1), F(1, 1000)) == (10, 10)
        assert reference_bernstein_enclosure(f, Interval(-1, 1), F(1, 1000)) == (10, 10)

    def test_degree_18_witness(self):
        (pair, poly, bound), = [w for w in table_witnesses() if w[1].degree == 18]
        lo, hi = sup_norm_enclosure(poly, pair.interval(), bound / 1000)
        assert lo <= bound <= hi and hi - lo <= bound / 1000

    def test_one_conversion_of_f_per_isolating_interval(self, monkeypatch):
        # g is converted once, by the integer kernel on [a/m, (a + w)/m], to
        # isolate the critical points on integer nodes (a', m'); then f once
        # per isolating node, on [a'/m', (a' + w)/m'].  No Interval is built,
        # and the Fractions built are the same four however many refinement
        # steps run: the tolerance, the width for the depth bound and the
        # two ends of the bracket
        (pair, poly, bound), = [
            w for w in table_witnesses() if (w[0].lo, w[0].hi) == (F(6, 13), F(7, 15))
        ]
        assert poly.degree == 12
        # the witness reaches its sup at an end, so its nodes are dropped
        # early; TOUCH's sup, at the non-dyadic 1/3, is refined toward tol
        cases = [(poly, pair.interval(), bound / 1000)] + [
            (TOUCH, Interval(0, F(1, 2)), tol) for tol in (F(1, 10), F(1, 10**30))
        ]
        want = []
        for f, interval, tol in cases:
            a, w, m = integer_ends(interval)
            g = _squarefree_odd_part(f.derivative())
            nodes = [(a_k, m_k) for a_k, m_k, s in _root_intervals(g, a, w, m) if s]
            nums = [to_bernstein(f, Interval(F(a_k, m_k), F(a_k + w, m_k))) for a_k, m_k in nodes]
            want.append((a, w, m, g, nodes, nums, reference_bernstein_enclosure(f, interval, tol)))
        assert len(want[0][4]) >= 2
        built = []
        post_init = Interval.__post_init__
        monkeypatch.setattr(
            Interval, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        made = []
        monkeypatch.setattr(certify, "Fraction", lambda *args: made.append(args) or F(*args))
        conversions = counting(monkeypatch, "to_bernstein")
        kernel = counting(monkeypatch, "bernstein_numerators")
        splits = counting(monkeypatch, "bernstein_split")
        steps = []
        for (f, interval, tol), (a, w, m, g, nodes, nums, ref) in zip(cases, want):
            for calls in (made, kernel, splits):
                calls.clear()
            assert sup_norm_enclosure(f, interval, tol) == ref
            assert built == [] and conversions == []
            assert len(made) == 4 and made[:2] == [(tol,), (w, m)]
            assert kernel[0][0] == (g.coeffs, a, w, m)
            assert len(kernel) == 1 + len(nodes)
            for ((coeffs, a_k, w_k, m_k), result), node, node_nums in zip(kernel[1:], nodes, nums):
                assert coeffs == f.coeffs and w_k == w and (a_k, m_k) == node
                assert result == node_nums
            steps.append(len(splits))
        assert steps[2] > steps[1] + 40

    def test_matches_reference_on_table(self):
        witnesses = [w for w in table_witnesses() if 4 <= w[1].degree <= 12]
        assert len(witnesses) == 37
        for pair, poly, bound in witnesses:
            tol = bound / 1000
            lo, hi = sup_norm_enclosure(poly, pair.interval(), tol)
            ref_lo, ref_hi = reference_enclosure(poly, pair.interval(), tol)
            assert lo <= bound <= hi and hi - lo <= tol
            assert lo <= ref_hi and ref_lo <= hi

    def test_matches_reference_random(self):
        rng = random.Random(41)
        for _ in range(200):
            f, interval, tol = random_case(rng)
            lo, hi = sup_norm_enclosure(f, interval, tol)
            ref_lo, ref_hi = reference_enclosure(f, interval, tol)
            assert 0 <= hi - lo <= tol
            assert lo <= ref_hi and ref_lo <= hi

    def test_sympy_sup(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        eps = sympy.Rational(1, 10**40)
        rng = random.Random(43)
        for _ in range(50):
            f, interval, tol = random_case(rng)
            lo, hi = sup_norm_enclosure(f, interval, tol)
            expr = sum(c * x**i for i, c in enumerate(f.coeffs))
            a, b = sympy.Rational(interval.lo), sympy.Rational(interval.hi)
            points = [a, b] + [
                r for r in sympy.Poly(sympy.diff(expr, x), x).real_roots() if a < r < b
            ]
            sup = max(abs(expr.subs(x, p)).evalf(50) for p in points)
            assert sympy.Rational(lo) - eps <= sup <= sympy.Rational(hi) + eps


class TestRationalPointLowerBound:
    def test_equality_case(self):
        assert rational_point_lower_bound(IntPoly([0, -1, 1]), F(1, 2)) == F(1, 4)

    def test_linear(self):
        assert rational_point_lower_bound(IntPoly([0, 1]), F(1, 2)) == F(1, 2)

    def test_witness_endpoint(self):
        assert rational_point_lower_bound(WITNESS, F(1, 3)) == F(1, 9)

    def test_rejects_integer_point(self):
        with pytest.raises(ValueError):
            rational_point_lower_bound(WITNESS, F(3))

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            rational_point_lower_bound(IntPoly([1, -3, 2]), F(1, 2))

    def test_bound_holds_random(self):
        rng = random.Random(8)
        for _ in range(300):
            coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [1]
            f = IntPoly(coeffs)
            p = F(rng.randint(-20, 20), rng.randint(2, 9))
            if p.denominator < 2:
                continue
            value = rational_point_lower_bound(f, p)
            assert value >= F(1, p.denominator**f.degree)


class TestVerifyWitness:
    def test_table_entry(self):
        record = verify_witness(PAIR, WITNESS)
        assert record.certificate.verdict is Verdict.CERTIFIED_AT_MOST
        assert record.tm_upper == F(1, 3)
        assert record.bound == F(1, 9)
        assert record.is_proof_for(PAIR)

    def test_second_table_entry(self):
        pair = FareyPair.from_endpoints(F(1, 4), F(2, 7))
        record = verify_witness(pair, IntPoly([1, -4, 1]))
        assert record.certificate.verdict is Verdict.CERTIFIED_AT_MOST
        assert record.tm_upper == F(1, 4)

    def test_x_squared_refuted(self):
        record = verify_witness(PAIR, IntPoly([0, 0, 1]))
        assert record.certificate.verdict is Verdict.REFUTED
        assert not record.is_proof_for(PAIR)

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            verify_witness(PAIR, IntPoly([1, -3, -1]))

    def test_equality_chain(self):
        # certified record on denominators >= 2: sup equals the bound exactly
        record = verify_witness(PAIR, WITNESS)
        lo, hi = sup_norm_enclosure(WITNESS, I13_25, F(1, 10_000))
        assert lo <= record.bound <= hi
        anchor = PAIR.hi if PAIR.b1 <= PAIR.b2 else PAIR.lo
        assert rational_point_lower_bound(WITNESS, anchor) == record.bound

    @pytest.mark.parametrize("poly", [IntPoly([0, -1, 1]), IntPoly([0, 1])])
    def test_no_witness_on_integer_endpoints(self, poly):
        # both endpoints integers: no conjectured value, so no witness target;
        # the constant of [0, 1] is cataloged by interval_constant
        pair = FareyPair.from_endpoints(F(0), F(1))
        with pytest.raises(ValueError, match="interval_constant"):
            conjecture_value(pair)
        with pytest.raises(ValueError, match="interval_constant"):
            verify_witness(pair, poly)
        assert interval_constant(F(0), F(1))[0] == F(1, 2)

    def test_integer_endpoint_proof_matches_catalog(self):
        # an integer endpoint contributes nothing: x on [0, 1/7] proves 1/7
        pair = FareyPair.from_endpoints(F(0), F(1, 7))
        record = verify_witness(pair, IntPoly([0, 1]))
        assert record.bound == F(1, 7)
        assert record.is_proof_for(pair)
        value, label = conjecture_value(pair, record)
        assert label == PROVEN_EQUAL
        assert value == interval_constant(F(0), F(1, 7))[0] == record.tm_upper

    def test_render_lines(self):
        record = verify_witness(PAIR, WITNESS)
        lines = record.render()
        assert "status=certified" in lines
        assert "bound=1/9" in lines
        assert any(line.startswith("method=") for line in lines)
        assert "tm_upper=1/3" in lines

    def test_refuted_record_renders_no_tm_upper(self):
        record = verify_witness(PAIR, IntPoly([0, 0, 1]))
        lines = record.render()
        assert "status=refuted" in lines
        assert not any(line.startswith("tm_upper=") for line in lines)

    def test_certificate_render_refutation(self):
        cert = decide_sup_bound(WITNESS, I13_25, F(1, 10))
        lines = cert.render()
        assert "status=refuted" in lines
        assert "refutation_point=1/3" in lines


def least_denominator_end(pair):
    """The anchor as a Fraction: the endpoint of least denominator >= 2."""
    ends = [e for e in (pair.lo, pair.hi) if e.denominator >= 2]
    return min(ends, key=lambda e: e.denominator)


# (pair, witness root, verdict of (x - root)**n at every n) for pairs whose
# least denominator b >= 2 is a perfect power: b at the upper endpoint, at
# the lower one, and beside an integer endpoint.  (x - root)**n reaches the
# bound at the anchor and certifies, except on [1/b, 2/(2b - 1)], where it
# exceeds the bound at the upper endpoint
PERFECT_POWER_CASES = [
    case
    for b in (4, 8, 9, 16, 27)
    for case in [
        (FareyPair.from_endpoints(F(1, b + 1), F(1, b)), 0, Verdict.CERTIFIED_AT_MOST),
        (FareyPair.from_endpoints(F(1, b), F(2, 2 * b - 1)), 0, Verdict.REFUTED),
        (FareyPair.from_endpoints(F(0), F(1, b)), 0, Verdict.CERTIFIED_AT_MOST),
        (FareyPair.from_endpoints(F(b - 1, b), F(1)), 1, Verdict.CERTIFIED_AT_MOST),
    ]
]


class TestIntegerWitnessPath:
    """verify_witness builds its bound and tm_upper from the anchor's
    integers; they must equal the Fraction forms it built before."""

    @staticmethod
    def check(pair, f):
        record = verify_witness(pair, f)
        n = f.degree
        assert record.bound == _witness_bound(pair, n)
        former = ConstantValue(record.bound, n)
        assert (record.tm_upper.r, record.tm_upper.k) == (former.r, former.k)
        assert str(record.tm_upper) == str(former)
        assert record.render() == dataclasses.replace(record, tm_upper=former).render()
        if record.certificate.verdict is Verdict.CERTIFIED_AT_MOST:
            assert rational_point_lower_bound(f, least_denominator_end(pair)) == record.bound
        return record

    def test_every_table_entry(self):
        for pair, f, bound in table_witnesses():
            record = self.check(pair, f)
            assert record.bound == bound
            assert record.certificate.verdict is Verdict.CERTIFIED_AT_MOST

    @pytest.mark.parametrize("pair, root, verdict", PERFECT_POWER_CASES,
                             ids=[str(case[0]) for case in PERFECT_POWER_CASES])
    def test_perfect_power_denominators(self, pair, root, verdict):
        for n in range(1, 13):
            record = self.check(pair, IntPoly([-root, 1]) ** n)
            assert record.certificate.verdict is verdict


class TestSubadditivity:
    def test_degree_360_power_of_degree_18_witness(self):
        # the 20th power of a witness is a witness on the same interval
        (pair, poly, bound), = [
            w for w in table_witnesses() if (w[0].lo, w[0].hi) == (F(9, 19), F(10, 21))
        ]
        assert poly.degree == 18
        record = verify_witness(pair, poly**20)
        assert record.degree == 360 and record.bound == bound**20
        assert record.certificate.verdict is Verdict.CERTIFIED_AT_MOST
        assert str(record.tm_upper) == "1/19"

    def test_product_of_witnesses(self):
        record = verify_witness(PAIR, WITNESS)
        prod = WITNESS * WITNESS
        lo, hi = sup_norm_enclosure(prod, I13_25, F(1, 100_000))
        assert hi <= record.bound * record.bound + F(1, 100_000)
