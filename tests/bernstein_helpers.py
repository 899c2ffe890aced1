"""The former Fraction Bernstein kernel, kept as the oracle for the integer
kernel in monicheb.numpoly and the prefilter and enclosure built on it:
one reduced Fraction per coefficient, halved at every de Casteljau step.
The former integer conversion, one math.comb per term, is kept as the
exact oracle for the binomial transform that replaced it.
The oracle enclosure isolates its critical points with the Sturm chain of
sturm_helpers.
The former frame function of numpoly, from lo and the width, is kept as
the oracle for Interval.frame."""
import math
from fractions import Fraction

from monicheb import Interval, Verdict
from monicheb.certify import PREFILTER_DEPTH

from sturm_helpers import _halve, _odd_part_chain, _root_intervals


def reference_frame(interval):
    """(a, w, m) with the interval [a/m, (a + w)/m], from lo and the width
    hi - lo: m > 0 the least common denominator of lo and the width, and
    w > 0."""
    lo, width = interval.lo, interval.hi - interval.lo
    m = math.lcm(lo.denominator, width.denominator)
    return lo.numerator * (m // lo.denominator), width.numerator * (m // width.denominator), m


def reference_to_bernstein(p, interval):
    """Bernstein coefficients of p on the interval as Fractions."""
    coeffs = p.coeffs or (0,)
    n = len(coeffs) - 1
    a, w, m = reference_frame(interval)
    q = [c * m ** (n - i) for i, c in enumerate(coeffs)]
    if a:
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                q[k] += a * q[k + 1]
    power = 1
    for i in range(n + 1):
        q[i] *= power
        power *= w
    den = m**n
    return tuple(
        Fraction(
            sum(math.comb(n - i, j - i) * q[i] for i in range(j + 1)),
            math.comb(n, j) * den,
        )
        for j in range(n + 1)
    )


def former_to_bernstein(p, interval):
    """The integer kernel before the binomial transform: (nums, den) with
    nums[j] = L / C(n, j) * sum_i C(n-i, j-i) q_i, one math.comb per term."""
    coeffs = p.coeffs or (0,)
    n = len(coeffs) - 1
    a, w, m = reference_frame(interval)
    q = [c * m ** (n - i) for i, c in enumerate(coeffs)]
    if a:
        for i in range(n):
            for k in range(n - 1, i - 1, -1):
                q[k] += a * q[k + 1]
    power = 1
    for i in range(n + 1):
        q[i] *= power
        power *= w
    binomials = [math.comb(n, j) for j in range(n + 1)]
    lcm = math.lcm(*binomials)
    nums = tuple(
        sum(math.comb(n - i, j - i) * q[i] for i in range(j + 1)) * (lcm // binomials[j])
        for j in range(n + 1)
    )
    return nums, lcm * m**n


def reference_bernstein_split(coeffs):
    """de Casteljau subdivision at the parameter midpoint, in Fractions."""
    if not coeffs:
        raise ValueError("empty Bernstein coefficient list")
    row = [Fraction(c) for c in coeffs]
    left = [row[0]]
    right = [row[-1]]
    while len(row) > 1:
        row = [(row[i] + row[i + 1]) / 2 for i in range(len(row) - 1)]
        left.append(row[0])
        right.append(row[-1])
    return tuple(left), tuple(right[::-1])


def reference_bernstein_prefilter(f, interval, bound):
    """(verdict, refutation point or None, deepest level visited) of the
    prefilter on the Fraction kernel."""
    bound = Fraction(bound)
    deepest = 0

    def visit(coeffs, lo, hi, depth):
        nonlocal deepest
        deepest = max(deepest, depth)
        for sign in (1, -1):
            if sign * coeffs[0] > bound:
                return Verdict.REFUTED, lo
            if sign * coeffs[-1] > bound:
                return Verdict.REFUTED, hi
        if all(-bound <= c <= bound for c in coeffs):
            return Verdict.CERTIFIED_AT_MOST, None
        if depth >= PREFILTER_DEPTH:
            return Verdict.INCONCLUSIVE, None
        mid = (lo + hi) / 2
        c_left, c_right = reference_bernstein_split(coeffs)
        left, point = visit(c_left, lo, mid, depth + 1)
        if left is Verdict.REFUTED:
            return left, point
        right, point = visit(c_right, mid, hi, depth + 1)
        if right is Verdict.REFUTED:
            return right, point
        if Verdict.INCONCLUSIVE in (left, right):
            return Verdict.INCONCLUSIVE, None
        return Verdict.CERTIFIED_AT_MOST, None

    coeffs = reference_to_bernstein(f, interval)
    verdict, point = visit(coeffs, interval.lo, interval.hi, 0)
    return verdict, point, deepest


def reference_bernstein_enclosure(f, interval, tol):
    """sup_norm_enclosure with its upper bounds from the Fraction kernel."""
    tol = Fraction(tol)
    if f.degree <= 0:
        value = Fraction(abs(f.coeffs[0])) if f else Fraction(0)
        return value, value
    chain = _odd_part_chain(f.derivative())
    g = chain[0]
    lo_b = max(abs(f(interval.lo)), abs(f(interval.hi)))
    pending = []
    for u, v, s in _root_intervals(chain, interval.lo, interval.hi):
        if u == v:
            lo_b = max(lo_b, abs(f(u)))
        else:
            pending.append((u, v, s, reference_to_bernstein(f, Interval(u, v))))
    uppers = []
    while pending:
        u, v, s, coeffs = pending.pop()
        lo_b = max(lo_b, abs(coeffs[0]), abs(coeffs[-1]))
        upper = max(abs(c) for c in coeffs)
        if upper <= lo_b:
            continue
        if upper - lo_b <= tol:
            uppers.append(upper)
            continue
        mid, half = _halve(g, u, v, s)
        left, right = reference_bernstein_split(coeffs)
        if half is None:
            lo_b = max(lo_b, abs(left[-1]))
        else:
            pending.append((*half, s, left if half == (u, mid) else right))
    return lo_b, max([lo_b] + uppers)
