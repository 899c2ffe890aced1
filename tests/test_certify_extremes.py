"""Sup-norm verdicts at the extremes against an independent sympy oracle:
degrees 0 to 4, integer and negative endpoints, bounds attained at one or
both endpoints, and bounds just below and just above the larger endpoint
value; and the same at degrees 0 to 6 with coefficients up to 2**200.
The integer Bernstein prefilter is held to the former Fraction kernel at
degrees 0 to 12 on the same kinds of interval and bound."""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from monicheb import (
    IntPoly,
    Interval,
    Verdict,
    bernstein_prefilter,
    certify_sup_bound,
    decide_sup_bound,
)

from bernstein_helpers import reference_bernstein_prefilter

sympy = pytest.importorskip("sympy")
X = sympy.Symbol("x")


def nonnegative_on(q, lo, hi):
    """q >= 0 on [lo, hi] for a sympy Poly q, decided by sympy alone.

    q changes sign only at the roots of its odd-multiplicity factors.  With
    none inside (lo, hi), q keeps one sign there apart from its zeros, and
    by continuity at the endpoints too, so one point where q != 0 decides.
    """
    if q.is_zero:
        return True
    for factor, mult in q.sqf_list()[1]:
        if mult % 2 and factor.count_roots(lo, hi) > sum(
            factor.eval(x) == 0 for x in (lo, hi)
        ):
            return False
    samples = (lo + (hi - lo) * sympy.Rational(k, 7) for k in range(1, 7))
    return next(value for value in map(q.eval, samples) if value != 0) > 0


def oracle_certifies(f, interval, bound):
    """|f| <= N/D on the interval iff N - D f >= 0 and N + D f >= 0 there."""
    lo, hi = sympy.Rational(interval.lo), sympy.Rational(interval.hi)
    fx = sympy.Poly(f.coeffs[::-1] or [0], X, domain="ZZ")
    n = sympy.Poly(bound.numerator, X, domain="ZZ")
    return all(nonnegative_on(n + sign * bound.denominator * fx, lo, hi) for sign in (-1, 1))


def vanishing_at(a):
    """The primitive linear polynomial with root a."""
    return IntPoly([-a.numerator, a.denominator])


@st.composite
def extreme_cases(draw):
    """(f, interval, bound); every other f takes one value at both ends:
    f = c + k x**j (b2 x - a2)(b1 x - a1) with [a2/b2, a1/b1] the interval."""
    lo = F(draw(st.integers(-6, 3)), draw(st.sampled_from([1, 1, 2, 3])))
    interval = Interval(lo, lo + F(draw(st.integers(1, 6)), draw(st.sampled_from([1, 1, 2, 4]))))
    if draw(st.booleans()):
        f = IntPoly(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=5)))
    else:
        v = vanishing_at(interval.lo) * vanishing_at(interval.hi)
        f = IntPoly([draw(st.integers(-4, 4))]) + draw(st.integers(-3, 3)) * (
            IntPoly.monomial(draw(st.integers(0, 2))) * v
        )
    attained = max(abs(f(interval.lo)), abs(f(interval.hi)))
    step = F(1, draw(st.sampled_from([1, 7, 10**6])))
    bound = draw(st.sampled_from([attained, max(attained - step, F(0)), attained + step]))
    return f, interval, bound


@settings(max_examples=150, deadline=None)
@given(extreme_cases())
def test_verdicts_match_sympy_oracle(case):
    f, interval, bound = case
    want = Verdict.CERTIFIED_AT_MOST if oracle_certifies(f, interval, bound) else Verdict.REFUTED
    for decide in (decide_sup_bound, certify_sup_bound):
        cert = decide(f, interval, bound)
        assert cert.verdict is want, (decide.__name__, f, interval, bound)
        if cert.verdict is Verdict.REFUTED:
            assert cert.refutation_point in interval
            assert abs(f(cert.refutation_point)) > bound


@st.composite
def huge_cases(draw):
    """(f, interval, bound) as in extreme_cases, at degree <= 6 with
    coefficients up to 2**200 in size, and the bound moved off the larger
    endpoint value by an absolute step or by a relative one of 2**-64."""
    lo = F(draw(st.integers(-6, 3)), draw(st.sampled_from([1, 1, 2, 3])))
    interval = Interval(lo, lo + F(draw(st.integers(1, 6)), draw(st.sampled_from([1, 1, 2, 4]))))
    big = st.integers(-(2**200), 2**200)
    if draw(st.booleans()):
        f = IntPoly(draw(st.lists(big, min_size=1, max_size=7)))
    else:
        v = vanishing_at(interval.lo) * vanishing_at(interval.hi)
        f = IntPoly([draw(big)]) + draw(big) * (IntPoly.monomial(draw(st.integers(0, 4))) * v)
    attained = max(abs(f(interval.lo)), abs(f(interval.hi)))
    step = draw(st.sampled_from([F(1, 7), F(1), max(attained, F(1)) / 2**64]))
    bound = draw(st.sampled_from([attained, max(attained - step, F(0)), attained + step]))
    return f, interval, bound


@settings(max_examples=150, deadline=None)
@given(huge_cases())
def test_huge_coefficients_match_sympy_oracle(case):
    f, interval, bound = case
    want = Verdict.CERTIFIED_AT_MOST if oracle_certifies(f, interval, bound) else Verdict.REFUTED
    for decide in (decide_sup_bound, certify_sup_bound):
        cert = decide(f, interval, bound)
        assert cert.verdict is want, (decide.__name__, f, interval, bound)
        if cert.verdict is Verdict.REFUTED:
            assert cert.refutation_point in interval
            assert abs(f(cert.refutation_point)) > bound


@st.composite
def prefilter_cases(draw):
    """(f, interval, bound) of degree 0 to 12, the bound a value of |f| on a
    9-point grid of the interval, exact or moved by 1%."""
    lo = F(draw(st.integers(-6, 3)), draw(st.sampled_from([1, 1, 2, 3])))
    interval = Interval(lo, lo + F(draw(st.integers(1, 6)), draw(st.sampled_from([1, 1, 2, 4]))))
    f = IntPoly(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=13)))
    grid = [abs(f(interval.lo + k * interval.width / 8)) for k in range(9)]
    bound = draw(st.sampled_from(grid)) * draw(st.sampled_from([F(1), F(99, 100), F(101, 100)]))
    return f, interval, bound


@settings(max_examples=200, deadline=None)
@given(prefilter_cases())
def test_prefilter_matches_fraction_kernel(case):
    f, interval, bound = case
    cert = bernstein_prefilter(f, interval, bound)
    assert (cert.verdict, cert.refutation_point, cert.depth) == reference_bernstein_prefilter(
        f, interval, bound
    )
