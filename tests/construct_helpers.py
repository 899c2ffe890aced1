"""The former IntPoly-product induction, kept as the oracle for the in-place
construction in monicheb.construct: each step expands its binomial power
as a polynomial, multiplies it by the vanishing product, adds it to the
partial polynomial, and evaluates that polynomial at the next point."""
from monicheb import DegreeSearchError, IntPoly, construction_state, homogeneous_value


def reference_binomial_power(l, f, e):
    """(l*x - f)**e from binomial coefficients and tables of powers."""
    coeffs = [0] * (e + 1)
    binom = 1
    f_pow = [1] * (e + 1)
    for i in range(1, e + 1):
        f_pow[i] = f_pow[i - 1] * (-f)
    l_pow = 1
    for i in range(e + 1):
        coeffs[i] = binom * l_pow * f_pow[e - i]
        binom = binom * (e - i) // (i + 1)
        l_pow *= l
    return IntPoly(coeffs)


def reference_multipoint_monic(points, max_degree):
    """(n, F, values): multipoint_monic's output, built step by step as
    IntPoly sums and products, and b**n * F_r(a/b) of each partial
    polynomial F_r at the point the next step fixes."""
    state = construction_state(points)
    if state.n > max_degree:
        raise DegreeSearchError(state.n, max_degree)
    pts = state.points
    k, m, n = state.k, state.m, state.n
    km = k * m

    a1, b1 = pts[0].numerator, pts[0].denominator
    l1, f1 = state.bezout[0]
    lead = 1 - a1**n
    assert lead % b1**km == 0
    poly = IntPoly.monomial(n) + (lead // b1**km) * reference_binomial_power(l1, f1, n - km)

    values = []
    vanish = IntPoly([1])
    for r in range(1, k):
        ar, br = pts[r - 1].numerator, pts[r - 1].denominator
        vanish = vanish * IntPoly([-ar, br])
        a_next, b_next = pts[r].numerator, pts[r].denominator
        l_next, f_next = state.bezout[r]
        values.append(homogeneous_value(poly, a_next, b_next))
        denom = b_next ** ((k - r) * m) * state.e_values[r + 1]
        assert (values[-1] - 1) % denom == 0
        a_mult = -((values[-1] - 1) // denom)
        exponent = n - (k - r) * m - r
        poly = poly + a_mult * reference_binomial_power(l_next, f_next, exponent) * vanish
    return n, poly, values
