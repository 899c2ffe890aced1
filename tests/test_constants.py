import decimal
import math
import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from monicheb import constants
from monicheb import (
    CONJECTURED,
    PROVEN_EQUAL,
    ConstantValue,
    FareyPair,
    IntPoly,
    SymbolicEndpoint,
    conjecture_value,
    finite_set_constant,
    interval_constant,
    parse_endpoint,
    point_constant,
    surd_pair_constant,
    transform_constant,
    verify_witness,
)
from monicheb.constants import (
    _SurdSum,
    _iroot,
    PROV_CAPACITY,
    PROV_DOUBLE_UNIT,
    PROV_HALF_UNIT,
    PROV_SILVER,
    PROV_SYMMETRIC_SQRT,
    PROV_SYMMETRIC_UNIT_FRACTION,
    PROV_REFLECTED_UNIT_FRACTION,
    PROV_UNIT,
    PROV_UNIT_FRACTION,
)


class TestIntegerRoot:
    @pytest.mark.parametrize("e", [-1, 0, 1])
    def test_large_cube_root(self, e):
        # beyond float range, where a float seed overflows or walks for ever
        r, exact = _iroot(3**600 + e, 3)
        assert r == (3**200 if e >= 0 else 3**200 - 1)
        assert exact == (e == 0)

    def test_huge_radicands_canonicalize(self):
        assert ConstantValue(F(3**700), 6) == ConstantValue(F(3**350), 3)
        assert ConstantValue(F(1, 2**1100), 5).k == 1


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**3000 - 1), st.integers(min_value=2, max_value=12))
def test_iroot_brackets(n, k):
    r, exact = _iroot(n, k)
    assert r**k <= n < (r + 1) ** k
    assert exact == (r**k == n)


class TestConstantValue:
    def test_canonical_square(self):
        assert ConstantValue(F(1, 9), 2) == ConstantValue(F(1, 3), 1)
        assert ConstantValue(F(1, 9), 2).k == 1

    def test_non_square_stays(self):
        v = ConstantValue(F(1, 2), 2)
        assert (v.r, v.k) == (F(1, 2), 2)

    def test_double_square_idempotent(self):
        v = ConstantValue(F(1, 2), 1)
        w = transform_constant(transform_constant(v, "square"), "square")
        assert (w.r, w.k) == (F(1, 2), 4)
        again = ConstantValue(w.r, w.k)
        assert (again.r, again.k) == (w.r, w.k)

    def test_zero_one(self):
        assert ConstantValue(F(0), 7).k == 1
        assert ConstantValue(F(1), 9).k == 1

    def test_cross_power_order(self):
        # 1/sqrt(2) > 1/2, 1/sqrt(2) < 3/4
        assert ConstantValue(F(1, 2), 2) > ConstantValue(F(1, 2))
        assert ConstantValue(F(1, 2), 2) < ConstantValue(F(3, 4))

    def test_compare_with_fraction(self):
        assert ConstantValue(F(1, 3)) == F(1, 3)
        assert ConstantValue(F(1, 2), 2) > F(7, 10)

    def test_order_matches_high_precision(self):
        rng = random.Random(17)
        ctx = decimal.Context(prec=60)
        for _ in range(1000):
            r1 = F(rng.randint(1, 400), rng.randint(1, 400))
            r2 = F(rng.randint(1, 400), rng.randint(1, 400))
            k1 = rng.randint(1, 6)
            k2 = rng.randint(1, 6)
            v1, v2 = ConstantValue(r1, k1), ConstantValue(r2, k2)
            d1 = ctx.divide(ctx.ln(ctx.divide(decimal.Decimal(r1.numerator), decimal.Decimal(r1.denominator))), decimal.Decimal(k1))
            d2 = ctx.divide(ctx.ln(ctx.divide(decimal.Decimal(r2.numerator), decimal.Decimal(r2.denominator))), decimal.Decimal(k2))
            if abs(d1 - d2) > decimal.Decimal("1e-40"):
                assert (v1 < v2) == (d1 < d2)
            else:
                assert v1 == v2


def _canonical_by_divisors(r, k):
    """Reference canonical form: take an exact d-th root for any d | k,
    scanning d down from k, until none is left."""
    if r in (0, 1):
        return r, 1
    d = k
    while d > 1:
        root = constants._rational_kth_root(r, d) if k % d == 0 else None
        if root is None:
            d -= 1
        else:
            r, k = root, k // d
            d = k
    return r, k


class TestCanonicalizationBound:
    def test_large_index_is_factored_not_scanned(self):
        # the primes of k, not every d <= k: k = 10**12 once hung
        start = time.perf_counter()
        v = ConstantValue(F(2), 10**12)
        assert time.perf_counter() - start < 1
        assert (v.r, v.k) == (F(2), 10**12)

    def test_each_prime_taken_while_it_divides(self):
        v = ConstantValue(F(2) ** 30, 60)
        assert (v.r, v.k) == (F(2), 2)
        w = ConstantValue(F(3) ** 8, 24)
        assert (w.r, w.k) == (F(3), 3)

    def test_large_prime_index(self):
        # 10**12 + 39 is prime and far above the radicand's bit length
        start = time.perf_counter()
        v = ConstantValue(F(2), 10**12 + 39)
        assert time.perf_counter() - start < 1
        assert (v.r, v.k) == (F(2), 10**12 + 39)

    def test_unfactorable_index_refused(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot prove"):
            ConstantValue(F(2), 10**30 + 57)
        assert time.perf_counter() - start < 2

    def test_no_factoring_at_index_one(self):
        with mock.patch.object(constants, "_factorize", side_effect=AssertionError):
            assert ConstantValue(F(1, 7)).k == 1
            assert ConstantValue(F(0), 6).k == 1
            assert ConstantValue(F(1), 6).k == 1


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=60),
)
def test_canonical_form_matches_divisor_scan(num, den, e, k):
    r = F(num, den) ** e
    v = ConstantValue(r, k)
    assert (v.r, v.k) == _canonical_by_divisors(r, k)


class TestPointConstant:
    def test_reduced(self):
        assert point_constant(F(3, 7)) == ConstantValue(F(1, 7))

    def test_integer(self):
        assert point_constant(F(5)) == ConstantValue(F(0))

    def test_half(self):
        assert point_constant(F(1, 2)) == ConstantValue(F(1, 2))


class TestFiniteSet:
    def test_max(self):
        assert finite_set_constant([F(1, 2), F(2, 3)]) == F(1, 2)

    def test_single(self):
        assert finite_set_constant([F(2, 5)]) == F(1, 5)

    def test_three(self):
        assert finite_set_constant([F(1, 3), F(2, 3), F(1, 7)]) == F(1, 3)

    def test_integer_flagged(self):
        with pytest.warns(UserWarning):
            value = finite_set_constant([F(3), F(1, 4)])
        assert value == F(1, 4)


class TestSurdPair:
    def test_sqrt_two(self):
        v = surd_pair_constant(2)
        assert (v.r, v.k) == (F(1, 2), 2)

    def test_square_collapses(self):
        assert surd_pair_constant(4) == F(1, 2)


class TestEndpoints:
    def test_parse_rational(self):
        assert parse_endpoint("3/7") == SymbolicEndpoint(F(3, 7))

    def test_parse_sqrt(self):
        e = parse_endpoint("sqrt(2)")
        assert (e.rat, e.coef, e.surd) == (F(0), F(1), 2)

    def test_parse_inverse_sqrt(self):
        e = parse_endpoint("1/sqrt(2)")
        assert (e.coef, e.surd) == (F(1, 2), 2)
        e2 = parse_endpoint("-1/sqrt(2)")
        assert (e2.coef, e2.surd) == (F(-1, 2), 2)

    def test_parse_silver(self):
        e = parse_endpoint("(1-sqrt(2))/2")
        assert (e.rat, e.coef, e.surd) == (F(1, 2), F(-1, 2), 2)

    def test_surd_normalization(self):
        e = SymbolicEndpoint(0, F(1, 2), 8)  # sqrt(8)/2 = sqrt(2)
        assert (e.coef, e.surd) == (F(1), 2)
        e2 = SymbolicEndpoint(1, 3, 4)  # 1 + 3*sqrt(4) = 7
        assert e2.is_rational and e2.rat == 7

    def test_square_part_beyond_trial_division(self):
        # 4099 is prime and above the trial-division bound of _factorize
        e = SymbolicEndpoint(0, 1, 2 * 3**3 * 4099**2)
        assert (e.coef, e.surd) == (3 * 4099, 6)
        e2 = SymbolicEndpoint(0, 1, 4099**2 * 4111**2)
        assert e2.is_rational and e2.rat == 4099 * 4111

    def test_unprovable_surd_refused(self):
        with pytest.raises(ValueError, match="cannot prove"):
            SymbolicEndpoint(0, 1, 10**30 + 57)

    def test_zero_divisor_refused(self):
        # once surfaced as the bare message "Fraction(1, 0)"
        with pytest.raises(ZeroDivisionError, match=r"zero denominator in endpoint: '\(1\)/0'"):
            parse_endpoint("(1)/0")

    @pytest.mark.parametrize("text", ["1-", "3/7+", "-", "--1", "+-2", "1 2"])
    def test_malformed_refused(self, text):
        # once read as 1, 3/7, 0, -1, -2 and 12
        with pytest.raises(ValueError, match="malformed endpoint"):
            parse_endpoint(text)

    @pytest.mark.parametrize(
        "text, fields",
        [
            ("3/7", (F(3, 7), 0, 1)),
            ("-2", (F(-2), 0, 1)),
            ("sqrt(2)", (0, 1, 2)),
            ("1/sqrt(2)", (0, F(1, 2), 2)),
            ("-1/sqrt(3)", (0, F(-1, 3), 3)),
            ("-1/2*sqrt(5)", (0, F(-1, 2), 5)),
            ("(1-sqrt(2))/2", (F(1, 2), F(-1, 2), 2)),
            ("(1+sqrt(2))/2", (F(1, 2), F(1, 2), 2)),
            ("1+sqrt(3)", (1, 1, 3)),
            ("1 + sqrt(3)", (1, 1, 3)),
            (" -1/2 * sqrt(5) ", (0, F(-1, 2), 5)),
            # the divisor once fell away from 1/sqrt(n)
            ("(1/sqrt(2))/3", (0, F(1, 6), 2)),
        ],
    )
    def test_documented_forms(self, text, fields):
        e = parse_endpoint(text)
        assert (e.rat, e.coef, e.surd) == fields

    def test_orders_endpoints_only(self):
        # the derived orderings use the field-wise __eq__, exact between
        # endpoints only
        assert SymbolicEndpoint(1) <= SymbolicEndpoint(1)
        with pytest.raises(TypeError):
            SymbolicEndpoint(1) <= 1

    def test_exact_comparisons(self):
        assert parse_endpoint("1/sqrt(2)") > SymbolicEndpoint(F(7, 10))
        assert parse_endpoint("1/sqrt(2)") < SymbolicEndpoint(F(71, 100))
        assert parse_endpoint("sqrt(2)") < parse_endpoint("sqrt(3)")
        # two-surd comparison: sqrt(2)+sqrt(3) vs sqrt(10) squared twice
        lhs = SymbolicEndpoint(0, 1, 2) + SymbolicEndpoint(0, 1, 3)
        assert lhs.sign() > 0
        diff = SymbolicEndpoint(0, 1, 3) - SymbolicEndpoint(0, 1, 2)
        assert diff.sign() > 0


_SQUAREFREE = [2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 30]


def _oracle_sign(rat, terms):
    """Sign of rat + sum(c * sqrt(s)) from math.isqrt brackets alone.

    Square roots of distinct squarefree integers are linearly independent
    over the rationals, so the sum is zero only when every part is; any
    other sum is decided once the brackets are narrow enough."""
    if rat == 0 and not any(terms.values()):
        return 0
    den = math.lcm(rat.denominator, *(c.denominator for c in terms.values()))
    a = int(rat * den)
    bits = 8
    while True:
        # the sum, scaled by den * 2**bits, lies in [lo, lo + slack]
        lo = a << bits
        slack = 0
        for s, c in terms.items():
            cc = int(c * den)
            if cc:
                root = math.isqrt(cc * cc * s << 2 * bits)
                lo += root if cc > 0 else -root - 1
                slack += 1
        if lo > 0:
            return 1
        if lo + slack < 0:
            return -1
        bits *= 2


_coefs = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@st.composite
def _surd_sums(draw):
    surds = draw(st.lists(st.sampled_from(_SQUAREFREE), max_size=2, unique=True))
    rat = draw(_coefs)
    terms = {s: draw(_coefs) for s in surds}
    if terms and draw(st.booleans()):
        # near cancellation: the rational part cancels the surds to ~2**-bits
        bits = draw(st.integers(min_value=4, max_value=80))
        total = 0
        for s, c in terms.items():
            num, den = c.numerator, c.denominator
            root = math.isqrt(num * num * s << 2 * bits)
            total += F(root if num > 0 else -root, den << bits)
        rat = -total + draw(st.sampled_from([0, 1, -1])) * F(1, 2 ** (2 * bits))
    return rat, terms


@settings(max_examples=400, deadline=None)
@given(_surd_sums())
def test_surd_sign_matches_isqrt_oracle(case):
    rat, terms = case
    assert _SurdSum(rat, terms).sign() == _oracle_sign(rat, terms)


@pytest.mark.parametrize(
    "rat, terms, sign",
    [
        (F(0), {}, 0),
        (F(0), {2: F(0), 3: F(0)}, 0),
        # sqrt(2) + sqrt(3) - sqrt(10) has the sign of its square's
        # difference (sqrt(2) + sqrt(3))**2 - 10 = 2*sqrt(6) - 5
        (F(-5), {6: F(2)}, -1),
        (F(314626, 100000), {2: F(-1), 3: F(-1)}, -1),
        (F(-314626, 100000), {2: F(1), 3: F(1)}, 1),
        (F(-99, 70), {2: F(1)}, -1),
        (F(665857, 470832), {2: F(-1)}, 1),
        (F(0), {2: F(1), 3: F(-1)}, -1),
    ],
)
def test_surd_sign_near_cancellations(rat, terms, sign):
    assert _SurdSum(rat, terms).sign() == sign == _oracle_sign(rat, terms)


def test_surd_sign_refuses_three_surds():
    with pytest.raises(ValueError, match="more than two"):
        _SurdSum(F(0), {2: F(1), 3: F(1), 5: F(-1)}).sign()


class TestIntervalConstant:
    def test_zero_half_uses_half_unit(self):
        value, prov = interval_constant(F(0), F(1, 2))
        assert value == F(1, 2)
        assert prov == PROV_HALF_UNIT

    def test_unit_fractions(self):
        for n in range(2, 12):
            value, prov = interval_constant(F(0), F(1, n))
            if n == 2:
                continue  # matched by the half-unit pattern first
            assert value == F(1, n)
            assert prov == PROV_UNIT_FRACTION

    def test_reflected(self):
        value, prov = interval_constant(F(4, 5), F(1))
        assert value == F(1, 5)
        assert prov == PROV_REFLECTED_UNIT_FRACTION

    def test_symmetric(self):
        value, prov = interval_constant(F(-1, 3), F(1, 3))
        assert value == F(1, 3)
        assert prov == PROV_SYMMETRIC_UNIT_FRACTION

    def test_sqrt_interval(self):
        for n in (2, 3, 5, 7):
            value, prov = interval_constant(f"-1/sqrt({n})", f"1/sqrt({n})")
            assert value == ConstantValue(F(1, n), 2)
            assert prov == PROV_SYMMETRIC_SQRT

    def test_symmetric_surd_check_factors_each_endpoint_once(self):
        # 1000000007 * 1000000009: one factorization per parsed endpoint,
        # none for the symmetry test
        surd = 1000000016000000063
        with mock.patch.object(constants, "_factorize", wraps=constants._factorize) as factorize:
            assert interval_constant(f"-sqrt({surd})", f"sqrt({surd})") is None
        assert [call.args for call in factorize.call_args_list].count((surd,)) == 2

    def test_half_unit_translates(self):
        for n in (-3, 0, 4):
            value, prov = interval_constant(F(n), F(n) + F(1, 2))
            assert value == F(1, 2) and prov == PROV_HALF_UNIT
            value, prov = interval_constant(F(n) - F(1, 2), F(n))
            assert value == F(1, 2) and prov == PROV_HALF_UNIT

    def test_unit_intervals(self):
        for n in (-2, 0, 5):
            value, prov = interval_constant(F(n), F(n + 1))
            assert value == F(1, 2) and prov == PROV_UNIT

    def test_double_unit(self):
        for n in (-1, 0, 3):
            value, prov = interval_constant(F(n), F(n + 2))
            assert value == ConstantValue(F(1, 2), 2)
            assert prov == PROV_DOUBLE_UNIT
        value, _ = interval_constant(F(-1), F(1))
        assert value == ConstantValue(F(1, 2), 2)

    def test_silver(self):
        value, prov = interval_constant("(1-sqrt(2))/2", "(1+sqrt(2))/2")
        assert value == F(1, 2)
        assert prov == PROV_SILVER

    def test_capacity(self):
        value, prov = interval_constant(F(0), F(4))
        assert value == ConstantValue(F(1))
        assert prov == PROV_CAPACITY
        value, _ = interval_constant(F(-3), F(7, 2))
        assert value == F(13, 8)

    def test_unknown(self):
        assert interval_constant(F(1, 3), F(2, 5)) is None
        assert interval_constant(F(0), F(3)) is None

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            interval_constant(F(1), F(0))

    def test_monotone_under_inclusion(self):
        # catalog values are non-decreasing when one catalog interval
        # contains another (rational endpoints, denominators <= 10)
        cases = []
        for n in range(2, 11):
            cases.append((F(0), F(1, n)))
            cases.append((F(-1, n), F(1, n)))
            cases.append(((F(n - 1, n)), F(1)))
        cases += [(F(0), F(1, 2)), (F(0), F(1)), (F(-1), F(1)), (F(0), F(2)), (F(0), F(4))]
        for lo1, hi1 in cases:
            for lo2, hi2 in cases:
                if lo2 <= lo1 and hi1 <= hi2:
                    r1 = interval_constant(lo1, hi1)
                    r2 = interval_constant(lo2, hi2)
                    if r1 and r2:
                        assert r1[0] <= r2[0], ((lo1, hi1), (lo2, hi2))

    def test_lower_bound_vs_interior_points(self):
        targets = [
            (F(0), F(1, 2)),
            (F(0), F(1, 3)),
            (F(-1, 4), F(1, 4)),
            (F(0), F(1)),
            (F(-1), F(1)),
            (F(0), F(9, 2)),
        ]
        for lo, hi in targets:
            value, _ = interval_constant(lo, hi)
            for b in range(2, 21):
                for a in range(int(lo * b) - 1, int(hi * b) + 2):
                    p = F(a, b)
                    if lo <= p <= hi:
                        assert point_constant(p) <= value, (p, lo, hi)


class TestConjectureValue:
    def test_table_pair(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        value, label = conjecture_value(pair)
        assert value == F(1, 3)
        assert label == CONJECTURED

    def test_integer_endpoint(self):
        pair = FareyPair.from_endpoints(F(0), F(1, 7))
        value, label = conjecture_value(pair)
        assert value == F(1, 7)
        assert label == CONJECTURED

    def test_two_integer_endpoints_refused(self):
        pair = FareyPair.from_endpoints(F(0), F(1))
        with pytest.raises(ValueError, match="interval_constant"):
            conjecture_value(pair)

    def test_high_denominators(self):
        pair = FareyPair.from_endpoints(F(4, 9), F(5, 11))
        value, _ = conjecture_value(pair)
        assert value == F(1, 9)

    def test_witness_upgrades(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        record = verify_witness(pair, IntPoly([1, -3, 1]))
        value, label = conjecture_value(pair, record)
        assert value == F(1, 3)
        assert label == PROVEN_EQUAL

    def test_mismatched_witness_rejected(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        other = FareyPair.from_endpoints(F(1, 4), F(2, 7))
        record = verify_witness(other, IntPoly([1, -4, 1]))
        with pytest.raises(ValueError):
            conjecture_value(pair, record)

    def test_refuted_witness_rejected(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        record = verify_witness(pair, IntPoly([0, 0, 1]))  # x**2 fails here
        with pytest.raises(ValueError):
            conjecture_value(pair, record)


class TestTransform:
    def test_logistic_pullback(self):
        assert transform_constant(ConstantValue(F(1, 4)), "logistic") == ConstantValue(F(1, 2))

    def test_square_pullback(self):
        v = transform_constant(ConstantValue(F(1, 2)), "square")
        assert (v.r, v.k) == (F(1, 2), 2)

    def test_shift_negate_identity(self):
        v = ConstantValue(F(3, 5), 2)
        assert transform_constant(v, "shift") == v
        assert transform_constant(v, "negate") == v

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            transform_constant(ConstantValue(F(1, 2)), "cube")
