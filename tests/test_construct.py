import hashlib
import itertools
import random
import sys
import time
import tracemalloc
from fractions import Fraction as F
from math import gcd

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from monicheb import (
    CongruenceError,
    DegreeSearchError,
    FareyPair,
    extended_gcd,
    IntPoly,
    admissible_degree,
    construction_state,
    farey_intervals,
    farey_sequence,
    mediant,
    multipoint_monic,
    multiplicative_order,
    pair_polynomial,
    triple_polynomial,
)
from monicheb import construct
from construct_helpers import reference_binomial_power, reference_multipoint_monic


def band_pairs(max_degree):
    """The construct benchmark's point pairs below max_degree: pairs from
    the order-10 Farey sequence, not both of numerator 1, with admissible
    degree in [16, max_degree)."""
    points = [q for q in farey_sequence(10) if q.denominator > 1]
    return [
        (pts, n)
        for pts in itertools.combinations(points, 2)
        if not all(q.numerator == 1 for q in pts)
        and 16 <= (n := admissible_degree(pts)) < max_degree
    ]


def coefficient_digest(poly):
    return hashlib.sha256(" ".join(map(hex, poly.coeffs)).encode()).hexdigest()


def minimal_pair_degree(pair):
    """Smallest n >= 2 with a_i**n = 1 (mod b_i) for both endpoints."""
    l = 1
    for a, b in ((pair.a1, pair.b1), (pair.a2, pair.b2)):
        if b > 1:
            order = multiplicative_order(a, b)
            l = l * order // gcd(l, order)
    return l if l >= 2 else 2


class TestPairPolynomial:
    def test_table_witness_shape(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        p = pair_polynomial(pair, 4, 1, 1)
        assert p == IntPoly([3, -27, 81, -81, 1])
        assert p(F(2, 5)) == F(1, 625)
        assert p(F(1, 3)) == F(1, 81)

    def test_collapses_to_x_squared(self):
        pair = FareyPair.from_endpoints(F(0), F(1, 2))
        p = pair_polynomial(pair, 2, 1, 0)
        assert p == IntPoly([0, 0, 1])
        assert p(F(1, 2)) == F(1, 4)
        assert p(F(0)) == 0

    def test_congruence_violation(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(CongruenceError) as exc:
            pair_polynomial(pair, 4, 2, 1)
        assert exc.value.index == 1

    def test_degree_floor(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(ValueError):
            pair_polynomial(pair, 1, 1, 1)

    def test_random_pairs_exact_values(self):
        rng = random.Random(99)
        pairs = farey_intervals(50)
        chosen = 0
        while chosen < 100:
            pair = rng.choice(pairs)
            n = minimal_pair_degree(pair)
            if n > 12:
                continue
            chosen += 1
            a_hi = pow(pair.a1, n, pair.b1)
            a_lo = pow(pair.a2, n, pair.b2)
            p = pair_polynomial(pair, n, a_hi, a_lo)
            assert p.is_monic and p.degree == n
            assert p(pair.hi) == F(a_hi, pair.b1**n)
            assert p(pair.lo) == F(a_lo, pair.b2**n)


class TestTriplePolynomial:
    def test_mediant_value(self):
        pair = FareyPair.from_endpoints(F(0), F(1))
        p = triple_polynomial(pair, 3, 0, 0, 1, 1)
        assert p(F(1, 2)) == F(1, 8)
        assert p(F(0)) == 0
        assert p(F(1)) == 0

    def test_endpoints_unchanged(self):
        rng = random.Random(5)
        for pair in rng.sample(farey_intervals(12), 20):
            med = mediant(pair)
            n = minimal_pair_degree(pair)
            n = max(n, 3)
            if pow(pair.a1, n, pair.b1) != 1 % pair.b1:
                continue
            a_hi = pow(pair.a1, n, pair.b1)
            a_lo = pow(pair.a2, n, pair.b2)
            a_med = pow(med.numerator, n, med.denominator)
            base = pair_polynomial(pair, n, a_hi, a_lo)
            for j in range(1, n - 1):
                tri = triple_polynomial(pair, n, a_hi, a_lo, a_med, j)
                diff = tri - base
                assert diff(pair.hi) == 0
                assert diff(pair.lo) == 0
                assert tri(med) == F(a_med, med.denominator**n)

    def test_split_out_of_range(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(ValueError):
            triple_polynomial(pair, 4, 1, 1, 1, 3)


class TestAdmissibleDegree:
    def test_single_point_order(self):
        assert admissible_degree([F(2, 3)]) == 2

    def test_two_points(self):
        assert admissible_degree([F(1, 2), F(1, 3)]) == 2

    def test_half(self):
        assert admissible_degree([F(1, 2)]) == 1

    def test_state_fields(self):
        st = construction_state([F(1, 2), F(1, 3)])
        assert st.k == 2
        assert st.e_values[2] == -1
        assert st.d_value == 1
        assert st.m == 1
        assert st.n == 2

    def test_rejects_integers(self):
        with pytest.raises(ValueError):
            admissible_degree([F(2)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            admissible_degree([F(1, 2), F(1, 2)])


class TestMultipoint:
    def test_single_point(self):
        # the Bezout pair (-1, -1) gives the term -(1 - x)
        n, p = multipoint_monic([F(2, 3)], 10)
        assert (n, p) == (2, IntPoly([-1, 1, 1]))
        assert p(F(2, 3)) == F(1, 9)

    def test_pair_collapses(self):
        n, p = multipoint_monic([F(1, 2), F(1, 3)], 10)
        assert (n, p) == (2, IntPoly([0, 0, 1]))

    def test_half_linear(self):
        n, p = multipoint_monic([F(1, 2)], 10)
        assert (n, p) == (1, IntPoly([0, 1]))

    def test_cap_reports_minimum(self):
        with pytest.raises(DegreeSearchError) as exc:
            multipoint_monic([F(1, 4), F(3, 4)], 100)
        assert exc.value.minimal == 16384

    def test_identity_small_universe(self):
        # denominators <= 4, all sets of size <= 2 with feasible degree
        points = [F(a, b) for b in (2, 3, 4) for a in range(1, b) if gcd(a, b) == 1]
        sets = [[p] for p in points]
        sets += [[p, q] for i, p in enumerate(points) for q in points[i + 1 :]]
        built = 0
        for pts in sets:
            try:
                n, poly = multipoint_monic(pts, 600)
            except DegreeSearchError as exc:
                assert exc.minimal > 600
                continue
            built += 1
            assert poly.is_monic and poly.degree == n
            for p in pts:
                assert p.denominator**n * poly(p) == 1
        # 12 of the 15 sets are feasible below the cap; the other three
        # need degrees 8000, 13500, and 16384.
        assert built == 12

    def test_order_independent_guarantee(self):
        # same set, different orders: both must satisfy the identity
        for pts in ([F(1, 3), F(2, 5), F(1, 2)], [F(1, 2), F(2, 5), F(1, 3)]):
            n, poly = multipoint_monic(pts, 1000)
            for p in pts:
                assert p.denominator**n * poly(p) == 1


class TestMultiplicativeOrder:
    def test_basics(self):
        assert multiplicative_order(2, 3) == 2
        assert multiplicative_order(2, 5) == 4
        assert multiplicative_order(1, 7**3) == 1
        assert multiplicative_order(3, 1) == 1

    def test_matches_brute_force(self):
        rng = random.Random(4)
        for _ in range(200):
            m = rng.randint(2, 400)
            a = rng.randint(1, m - 1)
            if gcd(a, m) != 1:
                continue
            order = multiplicative_order(a, m)
            assert pow(a, order, m) == 1
            value = a % m
            brute = 1
            while value != 1:
                value = value * a % m
                brute += 1
            assert order == brute

    def test_not_invertible(self):
        with pytest.raises(ValueError):
            multiplicative_order(2, 4)


def criterion_3_sets(cap):
    """Acceptance criterion 3's point sets of size <= 3 with denominators
    <= 5 whose admissible degree is at most cap."""
    points = [F(a, b) for b in range(2, 6) for a in range(1, b) if gcd(a, b) == 1]
    sets = [pts for k in (1, 2, 3) for pts in itertools.combinations(points, k)]
    return [pts for pts in sets if admissible_degree(pts) <= cap]


def oracle_sets():
    """The 48 band sets below 1024, criterion 3's buildable sets, and
    {1/3, 5/6} at n = 3888, with the cap to build each at."""
    bands = [(pts, 1024) for pts, _ in band_pairs(1024)]
    assert len(bands) == 48
    small = [(pts, 1000) for pts in criterion_3_sets(1000)]
    return bands + small + [((F(1, 3), F(5, 6)), 4096)]


def added_term(base, scale, l, f, e, factor=(1,)):
    """IntPoly of base after construct._add_binomial_term adds the term."""
    coeffs = list(base) + [0] * max(0, e + len(factor) - len(base))
    construct._add_binomial_term(coeffs, scale, l, f, e, factor)
    return IntPoly(coeffs)


TERM_FACTORS = [(1,), (-1,), (7,), (-1, 3), (0, 5), (2, -9, 9), (-4, 0, 1)]


class TestKernelsAgainstReference:
    @given(
        st.integers(-40, 40),
        st.integers(-40, 40),
        st.integers(0, 60),
        st.integers(-(10**30), 10**30),
        st.lists(st.integers(-50, 50), min_size=1, max_size=3),
        st.lists(st.integers(-(10**40), 10**40), max_size=70),
    )
    @settings(max_examples=300, deadline=None)
    def test_binomial_power_is_scaled_power(self, l, f, e, scale, factor, base):
        expected = IntPoly(base) + scale * IntPoly([-f, l]) ** e * IntPoly(factor)
        assert added_term(base, scale, l, f, e, factor) == expected
        assert added_term([], 1, l, f, e) == reference_binomial_power(l, f, e)

    @given(
        st.sampled_from([-1, 1]),
        st.sampled_from([-1, 1]),
        st.integers(0, 150),
        st.one_of(st.sampled_from([0, 1, -1]), st.integers(-(10**30), 10**30)),
        st.one_of(
            st.sampled_from(TERM_FACTORS),
            st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=3),
            st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        ),
        st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=160),
    )
    @settings(max_examples=300, deadline=None)
    def test_mirrored_row_is_scaled_power(self, l, f, e, scale, factor, base):
        # l**2 = f**2 = 1: the row is computed up to e // 2 and mirrored
        expected = IntPoly(base) + scale * IntPoly([-f, l]) ** e * IntPoly(factor)
        assert added_term(base, scale, l, f, e, factor) == expected
        assert added_term([], 1, l, f, e) == reference_binomial_power(l, f, e)

    @given(st.integers(2, 120), st.integers(-(10**20), 10**20), st.integers(-(10**20), 10**20))
    @settings(max_examples=60, deadline=None)
    def test_pair_polynomial_at_integer_endpoints(self, n, a_hi, a_lo):
        # a denominator 1 makes a Bezout coefficient +-1, so these pairs
        # take the mirrored row; every value is admissible mod 1
        for lo, hi in ((F(0), F(1)), (F(1), F(2))):
            pair = FareyPair.from_endpoints(lo, hi)
            c1, c2 = construct.endpoint_corrections(pair, n, a_hi, a_lo)
            expected = (
                IntPoly([0] * n + [1])
                + c1 * reference_binomial_power(pair.b2, pair.a2, n - 1)
                + c2 * reference_binomial_power(-pair.b1, -pair.a1, n - 1)
            )
            p = pair_polynomial(pair, n, a_hi, a_lo)
            assert p == expected
            assert p(hi) == a_hi and p(lo) == a_lo

    @pytest.mark.parametrize(
        "l, f, e, scale",
        [(3, 0, 5, 7), (-2, 0, 4, -1), (0, 0, 0, 5), (5, 2, 0, 9), (4, -3, 6, 0), (-7, 2, 3, 1)],
    )
    def test_binomial_power_edges(self, l, f, e, scale):
        for factor in TERM_FACTORS:
            for base in ([], [5, -1, 0, 7], [0] * 9 + [1]):
                expected = IntPoly(base) + scale * IntPoly([-f, l]) ** e * IntPoly(factor)
                assert added_term(base, scale, l, f, e, factor) == expected

    def test_bands_below_1024_match_reference_construction(self):
        sets = oracle_sets()
        assert len(sets) == 48 + 34 + 1
        for pts, cap in sets:
            n, poly, _ = reference_multipoint_monic(pts, cap)
            assert multipoint_monic(pts, cap) == (n, poly), pts

    def test_closed_form_values_match_partial_polynomials(self, monkeypatch):
        recorded = []
        closed_form = construct._closed_form_value

        def recording(terms, n, a, b):
            value = closed_form(terms, n, a, b)
            recorded.append((terms[0][0], value))
            return value

        monkeypatch.setattr(construct, "_closed_form_value", recording)
        steps = zero_base = 0
        for pts, cap in oracle_sets():
            recorded.clear()
            multipoint_monic(pts, cap)
            _, _, values = reference_multipoint_monic(pts, cap)
            assert [value for _, value in recorded] == values, pts
            steps += len(values)
            zero_base += sum(scale == 0 for scale, _ in recorded)
        assert steps == 79 and zero_base >= 1

    @pytest.mark.parametrize("points", [(F(1, 3), F(5, 6)), (F(2, 3), F(8, 9))])
    def test_peak_memory_is_about_one_output(self, points):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            _, poly = multipoint_monic(points, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output = sum(sys.getsizeof(c) for c in poly.coeffs)
        assert peak <= 1.25 * output, (peak, output)

    @pytest.mark.parametrize(
        "points, degree, digest, bits",
        [
            ((F(1, 3), F(5, 6)), 3888,
             "4633bec733f0fa69d0798ae1655df93f09e2eeadf993c1de53382dc5b870b2c5", 21325),
            ((F(2, 3), F(8, 9)), 2916,
             "c5e12305956875f8b9a5b95c884a58239e6a7a23ee63aee20e390e3de9cb8ce5", 22466),
        ],
    )
    def test_top_band_coefficients_pinned(self, points, degree, digest, bits):
        # the digests multipoint_monic gave with the [1, b] Bezout pairs: the
        # reference kernels given those pairs still build the same polynomial,
        # so the size comparison in TestBezoutNormalization is against it
        n, former, _ = reference_multipoint_monic(points, 4096, bezout=former_bezout(points))
        assert n == degree
        assert coefficient_digest(former) == digest
        assert max_coefficient_bits(former) == bits

    @pytest.mark.parametrize(
        "points, degree, digest, bits",
        [
            ((F(1, 3), F(5, 6)), 3888,
             "bb4c4d8d010e95ccc1db047b3dc314afb5703b9f275986f23c7cf9fa26364321", 12897),
            ((F(2, 3), F(8, 9)), 2916,
             "025bb67c9facaa32b9edf4484028d02169aabdb96aed7a9bc2231ede641b02d5", 11649),
        ],
    )
    def test_top_band_normalized_coefficients_pinned(self, points, degree, digest, bits):
        # digests of the coefficients built by the reference kernels; the
        # largest coefficient has fewer bits than with the former pairs
        # (test_top_band_coefficients_pinned)
        n, poly = multipoint_monic(points, 4096)
        assert n == degree
        assert coefficient_digest(poly) == digest
        assert max_coefficient_bits(poly) == bits


def max_coefficient_bits(poly):
    return max(abs(c).bit_length() for c in poly.coeffs)


def former_bezout(points):
    """The Bezout pairs with l in [1, b], as extended_gcd gives them."""
    return tuple(extended_gcd(p.numerator, p.denominator)[1:] for p in points)


class TestBezoutNormalization:
    def test_pairs_are_least_magnitude(self):
        for pts, _ in oracle_sets():
            state = construction_state(pts)
            for p, (l, f) in zip(state.points, state.bezout, strict=True):
                a, b = p.numerator, p.denominator
                assert a * l - b * f == 1, (p, l, f)
                assert -b < 2 * l <= b, (p, l, f)

    def test_outputs_smaller_than_with_former_pairs(self):
        # not smaller on every set: 2/3's former pair (2, 1) also solves
        # 2*3 - 1*5 = 1 at its Farey neighbour 3/5, so {2/3, 3/5} and
        # {1/2, 2/3, 3/5} grow
        total_new = total_former = 0
        for pts, cap in oracle_sets():
            n, poly = multipoint_monic(pts, cap)
            _, former, _ = reference_multipoint_monic(pts, cap, bezout=former_bezout(pts))
            for p in pts:
                assert p.denominator**n * former(p) == 1
            total_new += max_coefficient_bits(poly)
            total_former += max_coefficient_bits(former)
        assert (total_former, total_new) == (85054, 61594)


class TestBoundedOrderWork:
    def test_large_prime_denominator_refused_quickly(self):
        # b = 10**12 + 39 is prime: trial division of b**6 would not end
        state = construction_state([F(1, 10**12 + 39), F(1, 3)])
        assert (state.k, state.m, state.d_value) == (2, 3, 10**12 + 36)
        with pytest.raises(DegreeSearchError) as exc:
            multipoint_monic([F(1, 10**12 + 39), F(1, 3)], 10)
        assert exc.value.minimal == state.n > 10**60

    @pytest.mark.parametrize("a, modulus", [
        (2, 1000003**3), (10, 999983**2 * 3**4), (7, 2**20 * 5**3), (3, 1000003),
    ])
    def test_order_modulo_prime_powers_matches_sympy(self, a, modulus):
        assert multiplicative_order(a, modulus) == sympy.n_order(a, modulus)


# b = 1000000007 * 1000000009: trial division up to sqrt(b) never returned
SEMIPRIME_DENOMINATOR = 1000000016000000063


class TestBoundedFactoring:
    def test_matches_factorint_on_seeded_inputs(self):
        rng = random.Random(83)
        values = [1, 2, 4095, 4096, 4097, 4093**2, 4099**2, 2**61 - 1, 3**40 * 65537,
                  (2**31 - 1) ** 2 * (2**61 - 1), SEMIPRIME_DENOMINATOR]
        values += [rng.randrange(2, 10**15) for _ in range(40)]
        for _ in range(20):
            # semiprimes near 10**18
            p = sympy.nextprime(rng.randrange(10**8, 10**9))
            q = sympy.nextprime(10**18 // p + rng.randrange(10**6))
            values.append(p * q)
        for _ in range(10):
            small = rng.choice([1, 6, 2**10 * 3**5, 4091 * 4099])
            values.append(small * sympy.nextprime(rng.randrange(10**15, 10**20)))
        for value in values:
            assert construct._factorize(value) == sympy.factorint(value), value
            assert construct._factorize(-value) == construct._factorize(value)

    def test_product_of_40_digit_primes_refused_within_budget(self):
        n = sympy.nextprime(10**39) * sympy.nextprime(3 * 10**39)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="rho iterations"):
            construct._factorize(n)
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("power", [2, 3])
    def test_prime_power_above_rho_reach(self, monkeypatch, power):
        # rho would have to find the prime itself; the root test finds it
        q = 2999080821787536587
        assert sympy.isprime(q)

        def no_rho(n):
            raise AssertionError(f"rho called on {n}")

        monkeypatch.setattr(construct, "_rho_factor", no_rho)
        start = time.perf_counter()
        assert construct._factorize(q**power) == sympy.factorint(q**power)
        assert construct._factorize(6 * q**power) == sympy.factorint(6 * q**power)
        assert time.perf_counter() - start < 1

    def test_perfect_powers_match_factorint(self):
        rng = random.Random(29)
        for _ in range(30):
            base = rng.randrange(2, 10**7)
            value = base ** rng.randrange(2, 9) * rng.choice([1, 4097, 65537**2])
            assert construct._factorize(value) == sympy.factorint(value), value
        for m in (0, 1, 7, 2**64, 3**41 - 1, 10**30 + 7):
            for k in (2, 3, 5, 12):
                r, exact = construct._iroot(m, k)
                assert r**k <= m < (r + 1) ** k
                assert exact == (r**k == m)

    def test_unprovable_probable_prime_refused(self):
        with pytest.raises(ValueError, match="cannot prove"):
            construct._factorize(sympy.nextprime(10**30))

    def test_semiprime_denominator_degree_matches_factorint(self, monkeypatch):
        points = [F(1, SEMIPRIME_DENOMINATOR), F(1, 3)]
        degree = admissible_degree(points)
        monkeypatch.setattr(construct, "_factorize", lambda n: sympy.factorint(abs(n)))
        assert admissible_degree(points) == degree
