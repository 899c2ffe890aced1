import dataclasses
import math
import random
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import sympy

from monicheb import (
    IntPoly,
    Interval,
    bernstein_split,
    extended_gcd,
    format_poly,
    homogeneous_value,
    parse_poly,
    parse_rational,
    poly_gcd,
    poly_integrate_product,
    to_bernstein,
)
from monicheb.numpoly import (
    _RATIONAL_RE,
    _bernstein_weights,
    parse_rational_pair,
    primitive_remainder,
)

from bernstein_helpers import (
    former_to_bernstein,
    reference_bernstein_split,
    reference_to_bernstein,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def reference_horner(p, x):
    """The former IntPoly.__call__: Horner's rule, one Fraction operation
    per coefficient."""
    acc = F(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def rand_intpoly(rng, degree):
    return IntPoly([rng.randint(-30, 30) for _ in range(degree + 1)])


class TestParseRational:
    def test_reduction(self):
        assert parse_rational("6/4") == F(3, 2)

    def test_sign_normalization(self):
        assert parse_rational("-2/-4") == F(1, 2)

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            parse_rational("1/0")

    @pytest.mark.parametrize("bad", ["", "x", "1/2/3", "1.5", "1/ /2"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    def test_plain_integer(self):
        assert parse_rational("-7") == F(-7)

    @pytest.mark.parametrize("token", [
        "0", "-0", "0/-5", "+007", "6/4", "-2/-4", "1/-3", "-12/8", "\u0663/\u0661",
        "12345678901234567890/-24691357802469135780", "1/0", "1_0/3", "0x1/2",
        "1/2/3", "/3", "+-1/3", "",
    ])
    def test_pair_is_the_reduced_fraction(self, token):
        try:
            q = parse_rational(token)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                parse_rational_pair(token)
        else:
            pair = parse_rational_pair(token)
            assert pair == (q.numerator, q.denominator)
            assert all(type(x) is int for x in pair)


class TestEval:
    def test_witness_value(self):
        p = IntPoly([3, -27, 81, -81, 1])
        assert p(F(2, 5)) == F(1, 625)

    def test_quadratic(self):
        assert IntPoly([1, -3, 1])(F(1, 3)) == F(1, 9)

    def test_constant_coefficient_at_zero(self):
        p = IntPoly([7, 1, 4])
        assert p(0) == 7

    def test_zero_poly_degree(self):
        assert IntPoly().degree == -1
        assert IntPoly([5]).degree == 0


class TestIntegrateProduct:
    def test_power_rule(self):
        x = IntPoly([0, 1])
        assert poly_integrate_product(x, x, Interval(0, 1)) == F(1, 3)

    def test_interval_length(self):
        one = IntPoly([1])
        assert poly_integrate_product(one, one, Interval(F(1, 3), F(2, 5))) == F(1, 15)

    def test_against_sympy(self):
        xs = sympy.symbols("x")
        v = IntPoly([2, -11, 15])  # (5x-2)(3x-1)
        got = poly_integrate_product(v, v, Interval(F(1, 3), F(2, 5)))
        expr = sympy.Poly([15, -11, 2], xs).as_expr() ** 2
        want = sympy.integrate(expr, (xs, sympy.Rational(1, 3), sympy.Rational(2, 5)))
        assert got == F(int(sympy.numer(want)), int(sympy.denom(want)))

    def test_symmetric_bilinear_positive(self):
        rng = random.Random(7)
        interval = Interval(F(-1, 2), F(3, 4))
        for _ in range(40):
            p = rand_intpoly(rng, rng.randint(0, 10))
            q = rand_intpoly(rng, rng.randint(0, 10))
            r = rand_intpoly(rng, rng.randint(0, 10))
            a = rng.randint(-5, 5)
            assert poly_integrate_product(p, q, interval) == poly_integrate_product(q, p, interval)
            lhs = poly_integrate_product(a * p + r, q, interval)
            rhs = a * poly_integrate_product(p, q, interval) + poly_integrate_product(r, q, interval)
            assert lhs == rhs
            if p:
                assert poly_integrate_product(p, p, interval) > 0


def fractions_of(nums, den):
    """The Bernstein coefficients nums[j] / den as Fractions."""
    return tuple(F(c, den) for c in nums)


def bernstein(p, interval):
    return fractions_of(*to_bernstein(p, interval))


def split(coeffs, den=1):
    """bernstein_split on numerators over den, as Fractions."""
    left, right = bernstein_split(coeffs)
    n = len(coeffs) - 1
    return fractions_of(left, den << n), fractions_of(right, den << n)


class TestBernstein:
    def test_linear_on_unit(self):
        assert bernstein(IntPoly([0, 1]), Interval(0, 1)) == (F(0), F(1))

    def test_constant(self):
        assert bernstein(IntPoly([5]), Interval(-2, 3)) == (F(5),)

    def test_endpoint_coefficients(self):
        p = IntPoly([1, -3, 1])
        interval = Interval(F(1, 3), F(2, 5))
        coeffs = bernstein(p, interval)
        assert coeffs[0] == F(1, 9)
        assert coeffs[-1] == F(-1, 25)

    def test_endpoints_random_degree_20(self):
        rng = random.Random(3)
        for _ in range(30):
            p = rand_intpoly(rng, rng.randint(0, 20))
            lo = F(rng.randint(-8, 7), rng.randint(1, 5))
            interval = Interval(lo, lo + F(rng.randint(1, 9), rng.randint(1, 4)))
            coeffs = bernstein(p, interval)
            assert coeffs[0] == p(interval.lo)
            assert coeffs[-1] == p(interval.hi)

    def test_interior_coefficients(self):
        # sum_j b_j C(d, j) t**j (1 - t)**(d - j) == p(lo + w t) at d + 1
        # distinct t, which pins all d + 1 coefficients
        rng = random.Random(5)
        for _ in range(40):
            p = rand_intpoly(rng, rng.randint(0, 20))
            lo = F(rng.randint(-8, 7), rng.randint(1, 5))
            interval = Interval(lo, lo + F(rng.randint(1, 9), rng.randint(1, 4)))
            coeffs = bernstein(p, interval)
            d = len(coeffs) - 1
            assert d == max(p.degree, 0)
            for k in range(d + 1):
                t = F(2 * k + 1, 2 * d + 2)
                value = sum(
                    b * math.comb(d, j) * t**j * (1 - t) ** (d - j)
                    for j, b in enumerate(coeffs)
                )
                assert value == p(interval.lo + interval.width * t)

    def test_split_linear(self):
        assert split((0, 1)) == ((F(0), F(1, 2)), (F(1, 2), F(1)))

    def test_split_constant(self):
        assert split((2, 2, 2)) == ((F(2),) * 3, (F(2),) * 3)

    def test_split_midpoint_shared(self):
        rng = random.Random(11)
        for _ in range(25):
            p = rand_intpoly(rng, rng.randint(1, 12))
            interval = Interval(F(-1, 3), F(5, 6))
            nums, den = to_bernstein(p, interval)
            left, right = split(nums, den)
            assert left[-1] == right[0] == p(interval.midpoint)

    def test_split_empty(self):
        with pytest.raises(ValueError):
            bernstein_split(())

    def test_integer_numerators_over_one_denominator(self):
        rng = random.Random(13)
        for _ in range(40):
            p = rand_intpoly(rng, rng.randint(0, 14))
            lo = F(rng.randint(-8, 7), rng.randint(1, 5))
            interval = Interval(lo, lo + F(rng.randint(1, 9), rng.randint(1, 4)))
            nums, den = to_bernstein(p, interval)
            assert type(den) is int and den > 0
            assert type(nums) is tuple and all(type(c) is int for c in nums)
            for half in bernstein_split(nums):
                assert type(half) is tuple and len(half) == len(nums)
                assert all(type(c) is int for c in half)

    def test_matches_fraction_kernel(self):
        # the integer kernel against the former Fraction kernel, three
        # levels of halving deep
        rng = random.Random(17)
        for _ in range(60):
            p = rand_intpoly(rng, rng.randint(0, 16))
            lo = F(rng.randint(-8, 7), rng.randint(1, 5))
            interval = Interval(lo, lo + F(rng.randint(1, 9), rng.randint(1, 4)))
            nums, den = to_bernstein(p, interval)
            assert fractions_of(nums, den) == reference_to_bernstein(p, interval)
            rows, ref_rows = [nums], [reference_to_bernstein(p, interval)]
            for _ in range(3):
                den <<= len(nums) - 1
                rows = [half for row in rows for half in bernstein_split(row)]
                ref_rows = [half for row in ref_rows for half in reference_bernstein_split(row)]
                assert [fractions_of(row, den) for row in rows] == ref_rows


# lo: a negative, zero or integer endpoint, or any rational; widths from
# 2**-80 up, with denominators of up to 80 bits
lower_ends = st.one_of(
    st.just(F(0)),
    st.integers(-40, 40).map(F),
    st.fractions(min_value=-40, max_value=-F(1, 10**9), max_denominator=10**9),
    st.fractions(min_value=-40, max_value=40, max_denominator=2**80),
)
widths = st.one_of(
    st.integers(1, 9).map(F),
    st.builds(F, st.integers(1, 2**40), st.integers(1, 2**80)),
)


class TestBinomialTransform:
    """to_bernstein, the binomial transform over a cached weight row, against
    the former kernel with one math.comb per term: the same tuple."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 96).flatmap(
            lambda n: st.lists(st.integers(-2**64, 2**64), min_size=n + 1, max_size=n + 1)
        ),
        lower_ends,
        widths,
    )
    def test_matches_former_kernel(self, coeffs, lo, width):
        p = IntPoly(coeffs)
        interval = Interval(lo, lo + width)
        assert to_bernstein(p, interval) == former_to_bernstein(p, interval)

    @pytest.mark.parametrize("lo", [F(0), F(3), F(-2), F(-7, 3), F(5, 2**70)])
    def test_zero_and_constant_polynomials(self, lo):
        interval = Interval(lo, lo + F(1, 3**40))
        for p in (IntPoly([]), IntPoly([0]), IntPoly([-5])):
            assert to_bernstein(p, interval) == former_to_bernstein(p, interval)
        assert to_bernstein(IntPoly([]), interval) == ((0,), 1)

    def test_weight_row(self):
        # C(4, i) = 1, 4, 6, 4, 1 and L = 12
        assert _bernstein_weights(4) == (12, (12, 3, 2, 3, 12))
        assert _bernstein_weights(0) == (1, (1,))

    def test_evicted_degree_converts_the_same(self):
        # more than the cache's 32 degrees in between push degree 5 out,
        # and its weight row is built again
        rng = random.Random(19)
        interval = Interval(F(-3, 7), F(2, 5))
        first = rand_intpoly(rng, 5)
        want = to_bernstein(first, interval)
        for n in range(40, 80):
            p = rand_intpoly(rng, n)
            assert to_bernstein(p, interval) == former_to_bernstein(p, interval)
        assert _bernstein_weights.cache_info().maxsize == 32
        misses = _bernstein_weights.cache_info().misses
        assert to_bernstein(first, interval) == want == former_to_bernstein(first, interval)
        assert _bernstein_weights.cache_info().misses == misses + 1


def rational_remainder(a, b):
    """Remainder of a by b over the rationals, by Fraction long division."""
    rem = [F(c) for c in a.coeffs]
    den = b.coeffs
    while len(rem) >= len(den):
        q = rem[-1] / den[-1]
        shift = len(rem) - len(den)
        for j, d in enumerate(den):
            rem[shift + j] -= q * d
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


class TestIntegerKernel:
    def test_primitive_keeps_sign(self):
        assert IntPoly([-6, 4, -2]).primitive() == IntPoly([-3, 2, -1])
        assert IntPoly([3, 5]).primitive() == IntPoly([3, 5])
        assert IntPoly().primitive() == IntPoly()

    def test_remainder_is_positive_multiple_of_rational_one(self):
        rng = random.Random(17)
        for _ in range(300):
            a = rand_intpoly(rng, rng.randint(0, 12))
            b = rand_intpoly(rng, rng.randint(0, 8))
            if not b:
                continue
            got = primitive_remainder(a, b)
            want = rational_remainder(a, b)
            assert len(got.coeffs) == len(want)
            if want:
                scale = want[-1] / got.coeffs[-1]
                assert scale > 0
                assert [c * scale for c in got.coeffs] == want
                assert math.gcd(*got.coeffs) == 1

    def test_exact_division(self):
        rng = random.Random(19)
        for _ in range(100):
            a = rand_intpoly(rng, rng.randint(0, 8))
            b = rand_intpoly(rng, rng.randint(0, 8))
            if b:
                assert (a * b) // b == a
        with pytest.raises(ValueError, match="inexact"):
            IntPoly([1, 0, 1]) // IntPoly([1, 1])
        with pytest.raises(ValueError, match="inexact"):
            IntPoly([1, 1]) // IntPoly([0, 2])
        with pytest.raises(ZeroDivisionError):
            IntPoly([1]) // IntPoly()

    def test_gcd_normalisation(self):
        # primitive, with a positive leading coefficient
        x_minus_1 = IntPoly([-1, 1])
        assert poly_gcd(IntPoly([6, -3, -3]), IntPoly([10, -10])) == x_minus_1
        assert poly_gcd(IntPoly([0, -4]), IntPoly([0, 0, 6])) == IntPoly([0, 1])
        assert poly_gcd(IntPoly(), IntPoly([-4, -6])) == IntPoly([2, 3])
        assert poly_gcd(IntPoly([5]), IntPoly([0, 1])) == IntPoly([1])
        assert poly_gcd(IntPoly(), IntPoly()) == IntPoly()

    def test_gcd_divides_and_is_greatest(self):
        rng = random.Random(23)
        for _ in range(100):
            common = rand_intpoly(rng, rng.randint(0, 3))
            a = common * rand_intpoly(rng, rng.randint(0, 5))
            b = common * rand_intpoly(rng, rng.randint(0, 5))
            g = poly_gcd(a, b)
            if not a and not b:
                assert not g
                continue
            assert g.coeffs[-1] > 0 and math.gcd(*g.coeffs) == 1
            assert (a // g) * g == a and (b // g) * g == b
            if common:
                # common divides a and b, so it divides their gcd
                assert (g // common.primitive()) * common.primitive() == g


class TestExtendedGcd:
    def test_hand_example(self):
        assert extended_gcd(2, 5) == (1, 3, 1)

    def test_unit_denominator(self):
        a = 41
        assert extended_gcd(a, 1) == (1, 1, a - 1)

    def test_common_factor(self):
        g, l, f = extended_gcd(4, 6)
        assert g == 2 and 4 * l - 6 * f == 2

    def test_identity_bulk(self):
        rng = random.Random(2024)
        for _ in range(10_000):
            a = rng.randint(-10**9, 10**9)
            b = rng.randint(-10**9, 10**9)
            if a == 0 and b == 0:
                continue
            g, l, f = extended_gcd(a, b)
            assert g > 0
            assert a * l - b * f == g

    def test_both_zero(self):
        with pytest.raises(ValueError):
            extended_gcd(0, 0)


@given(
    st.lists(st.integers(-10**6, 10**6), max_size=8),
    st.lists(st.integers(-10**6, 10**6), max_size=8),
    rationals,
)
def test_eval_ring_homomorphism(a, b, x):
    p, q = IntPoly(a), IntPoly(b)
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(st.lists(st.integers(-9, 9), max_size=6), st.integers(0, 4))
@settings(max_examples=50)
def test_int_poly_pow_matches_repeated_mul(coeffs, e):
    p = IntPoly(coeffs)
    expected = IntPoly([1])
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


class TestSerialization:
    def test_round_trip_int(self):
        p = IntPoly([3, -27, 81, -81, 1])
        assert parse_poly(format_poly(p)) == p

    def test_round_trip_rat(self):
        # integer coefficients written as fractions read back as integers
        p = parse_poly("poly 4/2 -21/7 -0/5")
        assert p == IntPoly([2, -3])
        assert parse_poly(format_poly(p)) == p
        with pytest.raises(ValueError, match="integer coefficients"):
            parse_poly("poly 1/2 -3/7")

    def test_canonical_form(self):
        assert format_poly(IntPoly([1, -3, 1])) == "poly 1 -3 1"
        assert parse_poly("poly 1 -3 1") == IntPoly([1, -3, 1])

    def test_zero(self):
        assert parse_poly(format_poly(IntPoly())) == IntPoly()

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_poly("1 -3 1")

    @pytest.mark.parametrize("text", ["poly 1_0", "poly 0x10"])
    def test_int_literal_forms_refused(self, text):
        # int() takes "1_0" as 10; the rational grammar takes neither token
        with pytest.raises(ValueError, match="malformed rational"):
            parse_poly(text)

    def test_signed_and_fraction_tokens(self):
        p = parse_poly("poly +3 -4 4/2")
        assert p.coeffs == (3, -4, 2)
        assert all(type(c) is int for c in p.coeffs)

    @pytest.mark.parametrize("token", [
        "0", "-0", "+007", "12345678901234567890", "\u0663\u0661", "-\u0967",
        "+", "-", "+-3", "--3", "1_0", "0x10", "0b1", "1e3", "1.0", "\u00b2",
        "\u0663/\u0661", "6/-3", "1/0",
    ])
    def test_tokens_read_as_parse_rational_reads_them(self, token):
        try:
            expected = IntPoly([parse_rational(token)])
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                parse_poly(f"poly {token}")
        else:
            assert parse_poly(f"poly {token}") == expected

    def test_isdecimal_is_the_pattern_digit_class(self):
        # the integer fast path tests str.isdecimal where _RATIONAL_RE uses \d
        digit = re.compile(r"\d")
        assert _RATIONAL_RE.pattern.count(r"\d") == 2
        assert all(
            ch.isdecimal() == (digit.fullmatch(ch) is not None)
            for ch in map(chr, range(sys.maxunicode + 1))
        )


class TestIntervalType:
    def test_requires_order(self):
        with pytest.raises(ValueError):
            Interval(F(1, 2), F(1, 2))

    def test_contains(self):
        i = Interval(F(1, 3), F(2, 5))
        assert F(1, 3) in i and F(3, 8) in i and F(1, 2) not in i

    def test_width_stored_once(self):
        i = Interval(1, F(5, 2))
        assert i.width == i.hi - i.lo == F(3, 2)
        assert type(i.lo) is type(i.width) is F
        assert dataclasses.replace(i, hi=4).width == 3

    def test_frozen(self):
        i = Interval(F(1, 3), F(2, 5))
        for name in ("lo", "hi", "width"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(i, name, F(1, 2))

    def test_fields_eq_hash_repr_see_endpoints_only(self):
        i, j = Interval(F(1, 3), F(2, 5)), Interval(F(2, 6), F(4, 10))
        assert [f.name for f in dataclasses.fields(Interval)] == ["lo", "hi"]
        assert i == j and hash(i) == hash(j) == hash((F(1, 3), F(2, 5)))
        assert i != Interval(F(1, 3), F(1, 2))
        assert repr(i) == "Interval(lo=Fraction(1, 3), hi=Fraction(2, 5))"
        assert dataclasses.astuple(i) == (F(1, 3), F(2, 5))


class TestHomogeneousValue:
    # degrees up to 100 cover runs on both sides of the 32-coefficient leaf
    @given(
        st.lists(st.integers(-(10**9), 10**9), max_size=101),
        st.integers(-(10**6), 10**6),
        st.integers(1, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_horner(self, coeffs, a, b):
        p = IntPoly(coeffs)
        value = homogeneous_value(p, a, b)
        if not p:
            assert value == 0
            return
        assert value == b**p.degree * reference_horner(p, F(a, b))
        assert p(F(a, b)) == reference_horner(p, F(a, b))
        assert type(p(a)) is int and p(a) == reference_horner(p, a)

    def test_zero_polynomial(self):
        assert homogeneous_value(IntPoly(), 3, 7) == 0
        assert IntPoly()(F(2, 3)) == 0 and IntPoly()(5) == 0

    def test_unreduced_point(self):
        # a/b need not be in lowest terms: the value is b**deg * p(a/b)
        p = IntPoly([1, -3, 1])
        assert homogeneous_value(p, 2, 6) == 36 * p(F(1, 3))
