"""Exact LLL under positive-definite rational forms, witness search over
endpoint-vanishing sublattices, and the small-values construction for
conjugation-closed point sets.

All arithmetic is exact: lll_reduce is one integral LLL kernel on a Gram
matrix held as integer rows over one scale, and _babai is one nearest-plane
step on its integer Gram-Schmidt data.  The witness search reduces the
closed-form integer Gram of its product basis, with the members in
ascending order of their Gram diagonal, takes Babai's point toward -p and
enumerates offsets around it; at radius 0 it tries Babai's point alone,
with no offset walk.  Each candidate is held as its integer coordinates in
the degree-n forms u**k w**(n-k) and turned into a polynomial by one
Horner pass, so the search builds no member polynomial.  The
small-values construction reduces a Gram built from the exact centers of
the points, takes Babai's point toward -x**n, and verifies the result
with an exact Taylor bound on a disc about each center.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .certify import Verdict, verify_witness
from .construct import endpoint_corrections, pair_polynomial
from .farey import FareyPair
from .numpoly import IntPoly, Interval, poly_integrate_product

# Lovasz parameter of every reduction the package runs.
LLL_DELTA = Fraction(3, 4)


@dataclass(frozen=True, init=False)
class GramMatrix:
    """Symmetric rational matrix G of inner products, from int or Fraction
    entries, held as the integer rows of scale * G for the least positive
    such scale (1 for integer entries).  lll_reduce proves it positive
    definite."""

    rows: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, entries) -> None:
        scale = math.lcm(*(x.denominator for row in entries for x in row))
        rows = tuple(
            tuple(x.numerator * (scale // x.denominator) for x in row)
            for row in entries
        )
        d = len(rows)
        if any(len(row) != d for row in rows):
            raise ValueError("matrix must be square")
        if any(rows[i][j] != rows[j][i] for i in range(d) for j in range(i)):
            raise ValueError("matrix must be symmetric")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "scale", scale)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, self.scale) for x in row) for row in self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)


def gram_matrix(polys, interval: Interval) -> GramMatrix:
    """G_ij = integral of polys_i * polys_j over the interval, exact."""
    polys = list(polys)
    entries = [[Fraction(0)] * len(polys) for _ in polys]
    for i, p in enumerate(polys):
        for j in range(i + 1):
            value = poly_integrate_product(p, polys[j], interval)
            entries[i][j] = value
            entries[j][i] = value
    return GramMatrix(entries)


@dataclass(frozen=True)
class ReductionResult:
    """LLL output as the integral kernel leaves it, on the form scale * G.

    basis[j] holds the coordinates of the j-th reduced vector in the
    original basis; dets[i + 1] = d_i is the Gram determinant of the first
    i + 1 of them (dets[0] = 1); and lam[i][j] = d_j mu_ij for j < i.  The
    transform U (column j is basis[j]) and the Gram-Schmidt data of the
    reduced basis under G, mu and norms (the squared GS lengths), are
    computed from them on access.
    """

    basis: tuple[tuple[int, ...], ...]
    dets: tuple[int, ...]
    lam: tuple[tuple[int, ...], ...]
    scale: int

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def transform(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.basis))

    @property
    def mu(self) -> tuple[tuple[Fraction, ...], ...]:
        zeros = (Fraction(0),) * self.dim
        return tuple(
            tuple(map(Fraction, row, self.dets[1:])) + zeros[i:]
            for i, row in enumerate(self.lam)
        )

    @property
    def norms(self) -> tuple[Fraction, ...]:
        dets = self.dets
        return tuple(Fraction(dets[i + 1], dets[i] * self.scale) for i in range(self.dim))


def _nearest(a: int, b: int) -> int:
    """a / b rounded to the nearest integer, half to even, for b > 0: what
    round() gives on Fraction(a, b)."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q % 2):
        q += 1
    return q


def _gs_row(inner, lam, dets) -> list[int]:
    """lam_j = d_j mu_j for a vector b against the GS vectors of the basis
    vectors b_j, from inner[j] = <b, b_j> by the recurrence of Cohen,
    Alg. 2.6.7.  lam holds the rows of b_0 .. b_(len(lam) - 1); when inner
    reaches j = len(lam), b is b_j itself and that last entry is d_j."""
    out: list[int] = []
    for j, u in enumerate(inner):
        row = lam[j] if j < len(lam) else out
        for l in range(j):
            u = (dets[l + 1] * u - out[l] * row[l]) // dets[l]
        out.append(u)
    return out


def lll_reduce(gram: GramMatrix) -> ReductionResult:
    """Integral LLL (Cohen, A Course in Computational Algebraic Number
    Theory, Alg. 2.6.7) of Z^d under the integer form gram.rows, at
    LLL_DELTA.

    Divisions are exact, and size reduction rounds lam/d_j half to even, so
    the swaps, the transform and the GS data are the rational algorithm's
    on G.  Every d_i is positive (tested when its row is first reached,
    kept by the swaps): by Sylvester's criterion that proves G positive
    definite, and ValueError is raised otherwise.
    """
    g = gram.rows
    d = len(g)
    dp, dq = LLL_DELTA.numerator, LLL_DELTA.denominator
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    dets = [1] + [0] * d
    lam: list[list[int]] = []

    def add_row(i: int) -> None:
        # GS data of row i, computed when the loop first reaches it; vector
        # i is still e_i then, so <b_i, b_j> = (G U)_ij
        inner = [sum(map(mul, g[i], basis[j])) for j in range(i + 1)]
        row = _gs_row(inner, lam, dets)
        dets[i + 1] = row.pop()
        if dets[i + 1] <= 0:
            raise ValueError("form is not positive definite on the basis")
        lam.append(row)

    def size_reduce(k: int, j: int) -> None:
        q = _nearest(lam[k][j], dets[j + 1])
        if q:
            basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
            for l in range(j):
                lam[k][l] -= q * lam[j][l]
            lam[k][j] -= q * dets[j + 1]

    if d:
        add_row(0)
    k = 1
    while k < d:
        if k == len(lam):
            add_row(k)
        size_reduce(k, k - 1)
        m = lam[k][k - 1]
        if dq * (dets[k + 1] * dets[k - 1] + m * m) >= dp * dets[k] ** 2:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
        else:
            swapped = (dets[k - 1] * dets[k + 1] + m * m) // dets[k]
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            for i in range(k + 1, len(lam)):
                t = lam[i][k]
                lam[i][k] = (dets[k + 1] * lam[i][k - 1] - m * t) // dets[k]
                lam[i][k - 1] = (swapped * t + m * lam[i][k]) // dets[k + 1]
            dets[k] = swapped
            k = max(k - 1, 1)
    return ReductionResult(
        tuple(map(tuple, basis)), tuple(dets), tuple(map(tuple, lam)), gram.scale
    )


def _babai(red: ReductionResult, products, scale: int) -> list[int]:
    """Babai's nearest plane (Combinatorica 6, 1986) toward a target t on
    the reduction's own Gram-Schmidt data: the integer coordinates, in the
    reduced basis, of the lattice point it rounds t to.

    products[j] = scale <t, e_j> under the integer form the reduction ran
    on, so scale t has integer inner products, and _gs_row gives its
    lam_i = scale d_i y_i, y_i being t's coefficient along the i-th GS
    vector; rounding y_i changes the lower lam_j by multiples of scale
    lam_ij.
    """
    dets, lam = red.dets, red.lam
    inner = [sum(map(mul, row, products)) for row in red.basis]
    target = _gs_row(inner, lam, dets)
    center = [0] * red.dim
    for i in range(red.dim - 1, -1, -1):
        center[i] = _nearest(target[i], scale * dets[i + 1])
        for j in range(i):
            target[j] -= center[i] * scale * lam[i][j]
    return center


def _offsets_by_length(red: ReductionResult, radius: int):
    """Yield every offset in {-radius..radius}**d in (form, offset) order.

    form(off) = sum_i (d_i off_i + sum_{j>i} lam_ji off_j)**2 / (d_(i-1) d_i)
    is off^T G' off for G' the reduced basis's Gram on the kernel's scale,
    and the walk runs on it times the lcm of the d_(i-1) d_i, so on integer
    weights.  The box is walked in shells of growing bound, 0, s, 3s, 7s,
    ... with s the least squared GS length: each shell is a depth-first
    walk from the last coordinate down that prunes on the partial sums, and
    only the points with previous bound < form <= bound are sorted and
    yielded.
    """
    dets, lam, d = red.dets, red.lam, red.dim
    unit = math.lcm(*(dets[i] * dets[i + 1] for i in range(d)))
    weights = [unit // (dets[i] * dets[i + 1]) for i in range(d)]
    # the least nonzero form is at least the least squared GS length, since
    # its last nonzero coordinate i alone contributes weights_i (d_i off_i)**2
    step = min((w * dets[i + 1] ** 2 for i, w in enumerate(weights)), default=0)
    off = [0] * d

    def walk(i: int, partial: int, prev: int, bound: int, shell: list) -> bool:
        """Add the points below off[i+1:] with prev < form <= bound to shell;
        True when some point below has a form above bound."""
        if i < 0:
            if partial > prev:
                shell.append((partial, tuple(off)))
            return False
        # the term is convex in off_i, so scan out from its minimum both ways
        di = dets[i + 1]
        sigma = sum(lam[j][i] * off[j] for j in range(i + 1, d))
        start = min(max(-sigma // di, -radius), radius)
        pruned = False
        for x, stop, inc in ((start, -radius - 1, -1), (start + 1, radius + 1, 1)):
            while x != stop:
                term = weights[i] * (di * x + sigma) ** 2
                if partial + term > bound:
                    pruned = True
                    break
                off[i] = x
                pruned |= walk(i - 1, partial + term, prev, bound, shell)
                x += inc
        return pruned

    prev, bound = -1, 0
    while True:
        shell: list = []
        pruned = walk(d - 1, 0, prev, bound, shell)
        shell.sort()
        for _, point in shell:
            yield point
        if not pruned:
            return
        prev, bound = bound, 2 * bound + step


@dataclass(frozen=True)
class SearchBasis:
    """Basis (p, w**(n-3) v, u w**(n-4) v, ..., u**(n-3) v) for the
    degree-n witness coset, with u = b2 x - a2, w = a1 - b1 x, v = -u w.

    p hits 1/b_i**n at both endpoints and every other member vanishes
    there, so p plus any integer combination of the rest is a monic
    degree-n candidate with the same endpoint values.  The members span
    the same lattice as x**j v, since x = a1 u + a2 w and 1 = b1 u + b2 w.
    search_witness does not build this basis: it works on the members'
    coordinates.  The basis is kept for demos/search_with_lll.py and the
    tests.
    """

    pair: FareyPair
    n: int
    p: IntPoly
    v: IntPoly
    members: tuple[IntPoly, ...]


def build_search_basis(pair: FareyPair, n: int) -> SearchBasis:
    """The SearchBasis of the degree-n (1, 1) coset, as polynomials.  The
    search does not call it; the demo and the tests do."""
    if n < 3:
        raise ValueError("search degree must be >= 3")
    p = pair_polynomial(pair, n, 1, 1)  # raises CongruenceError when n inadmissible
    v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
    u = IntPoly([-pair.a2, pair.b2])
    w = IntPoly([pair.a1, -pair.b1])
    u_side, w_side = [v], [IntPoly([1])]  # v u**j and w**j
    for _ in range(n - 3):
        u_side.append(u_side[-1] * u)
        w_side.append(w_side[-1] * w)
    members = [p] + [u_side[j] * w_side[n - 3 - j] for j in range(n - 2)]
    return SearchBasis(pair, n, p, v, tuple(members))


def _beta_integrals(pair: FareyPair, total: int) -> list[int]:
    """The interval integrals of u**s w**(total-s), s = 0..total, times
    (total+1)! (b1 b2)**(total+1): with t = b1 u in [0, 1] and b2 w = 1 - t
    each is a Beta integral, so entry s is s! (total-s)! b1**(total-s) b2**s.
    """
    b1, b2 = pair.b1, pair.b2
    entry = math.factorial(total) * b1**total
    out = [entry]
    # entry s over entry s - 1 is s b2 / ((total - s + 1) b1), exactly
    for s in range(1, total + 1):
        entry = entry * (s * b2) // ((total - s + 1) * b1)
        out.append(entry)
    return out


def _anchor_coordinates(pair: FareyPair, n: int) -> list[int]:
    """c_k with p = sum c_k u**k w**(n-k) for the (1, 1) anchor p: x**n =
    (a1 u + a2 w)**n, and 1 = b1 u + b2 w homogenizes p's two correction
    terms c u**(n-1) and c w**(n-1)."""
    a1, b1, a2, b2 = pair.a1, pair.b1, pair.a2, pair.b2
    c1, c2 = endpoint_corrections(pair, n)  # raises CongruenceError
    coords = [math.comb(n, k) * a1**k * a2 ** (n - k) for k in range(n + 1)]
    coords[n] += c1 * b1
    coords[n - 1] += c1 * b2
    coords[1] += c2 * b1
    coords[0] += c2 * b2
    return coords


def _w_powers(pair: FareyPair, n: int) -> list[list[int]]:
    """Coefficient lists of w**m, m = 0..n, for w = a1 - b1 x."""
    a1, b1 = pair.a1, pair.b1
    powers = [[1]]
    for _ in range(n):
        last = powers[-1]
        powers.append([a1 * x - b1 * y for x, y in zip(last + [0], [0] + last)])
    return powers


def _from_coordinates(pair: FareyPair, coords, w_powers) -> list[int]:
    """Coefficients of sum_k coords[k] u**k w**(n-k), n = len(coords) - 1,
    by Horner's rule in u = b2 x - a2 over the table w_powers of w**m."""
    a2, b2 = pair.a2, pair.b2
    n = len(coords) - 1
    acc = [coords[n]]
    for k in range(n - 1, -1, -1):
        c = coords[k]
        acc = [
            b2 * x - a2 * y + c * z
            for x, y, z in zip([0] + acc, acc + [0], w_powers[n - k])
        ]
    return acc


# Largest offset box search_witness accepts: degree 12 at radius 1.
MAX_OFFSETS = 3**10
# Largest degree search_witness accepts.  At radius 0 on (1/4, 2/7) degree
# 48 takes about 0.94 s from the command line (median of 7 runs, Python
# 3.11.7, 2-core Xeon), and each 6 more degrees about double that.
MAX_SEARCH_DEGREE = 48


def search_witness(pair: FareyPair, n: int, radius: int = 1) -> IntPoly | None:
    """Search the degree-n coset for a certified witness polynomial.

    Reduces the endpoint-vanishing members of the product basis (see
    SearchBasis) under the interval L2 form, whose Gram matrix is the
    integer Hankel matrix of _beta_integrals, with LLL at LLL_DELTA.  The
    members go to LLL in ascending order of their Gram diagonal, shortest
    first (ties in basis order): the same lattice, reduced with far fewer
    swaps than in basis order.  Babai's nearest plane toward -p runs on the
    reduction's own Gram-Schmidt data.  Candidates p + sum_k z_k member_k,
    with the members in that order and z = U (center + off), are then
    tried for the integer offsets with |off_i| <= radius,
    ordered by quadratic-form length (lexicographic tie-break) and
    generated lazily, shortest first; at radius 0 Babai's point is the one
    candidate and no offset is walked.  Each candidate is built from its
    integer coordinates in the forms u**k w**(n-k) (see
    _anchor_coordinates), so no member polynomial is built; the first one
    that verify_witness certifies is returned.  Raises ValueError, before
    any reduction, for a negative radius, when the (2 radius + 1)**(n - 2)
    offsets would exceed MAX_OFFSETS, and for n above MAX_SEARCH_DEGREE or
    below 3; raises CongruenceError when the degree-n (1, 1) coset does
    not exist.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
    # (2 radius + 1)**k >= 3**k > 2**k > MAX_OFFSETS once k = n - 2 exceeds
    # the bit length of MAX_OFFSETS: refuse before computing that power
    too_many = radius >= 1 and n - 2 > MAX_OFFSETS.bit_length()
    if too_many or (2 * radius + 1) ** (n - 2) > MAX_OFFSETS:
        raise ValueError(
            f"radius {radius} at degree {n} gives more than {MAX_OFFSETS} offsets"
        )
    if n > MAX_SEARCH_DEGREE:
        raise ValueError(f"search degree {n} is above the cap {MAX_SEARCH_DEGREE}")
    if n < 3:
        raise ValueError("search degree must be >= 3")
    anchor = _anchor_coordinates(pair, n)  # raises CongruenceError
    dim = n - 2
    # member_j = -u**(j+1) w**(n-2-j), so the Gram entries are the integrals
    # at total 2n - 2; dividing out their content about halves their bits
    hankel = _beta_integrals(pair, 2 * n - 2)
    common = math.gcd(*hankel[2 : 2 * n - 3])
    # the members shortest first: a permutation is unimodular, so the
    # lattice is the same, and LLL has much less to swap
    order = sorted(range(dim), key=lambda j: hankel[2 * j + 2])
    gram = [[hankel[i + j + 2] // common for j in order] for i in order]
    red = lll_reduce(GramMatrix(gram))

    # Babai's point toward -p.  <-p, member_j> sums p's coordinates against
    # the integrals at total 2n - 1: products[j] / scale on the Gram's scale
    cross = _beta_integrals(pair, 2 * n - 1)
    products = [sum(map(mul, anchor, cross[j + 1 : j + n + 2])) for j in order]
    center = _babai(red, products, 2 * n * pair.b1 * pair.b2 * common)

    # member_j times 1 = b1 u + b2 w is -b1 u**(j+2) w**(n-2-j) - b2
    # u**(j+1) w**(n-1-j): z_j member_j moves two coordinates
    b1, b2 = pair.b1, pair.b2
    w_powers = _w_powers(pair, n)
    transform = red.transform
    offsets = _offsets_by_length(red, radius) if radius else [(0,) * dim]
    for off in offsets:
        point = [c + o for c, o in zip(center, off)]
        coords = list(anchor)
        for j, column in zip(order, transform):
            z = sum(map(mul, point, column))
            coords[j + 2] -= b1 * z
            coords[j + 1] -= b2 * z
        f = IntPoly(_from_coordinates(pair, coords, w_powers))
        record = verify_witness(pair, f)
        if record.certificate.verdict is Verdict.CERTIFIED_AT_MOST:
            return f
    return None


class SmallValueError(ArithmeticError):
    """Verification failed at the given precision; raise it and retry."""


def _small_on_disc(
    f: IntPoly, re: Fraction, im: Fraction, radius: Fraction, eps: Fraction
) -> bool:
    """True when |f| < eps on the disc |z - c| <= radius, c = re + i im.

    The Taylor coefficients t_k of f at c come exactly from the in-place
    shift of to_bernstein on (Re, Im) pairs; f(z) = sum t_k (z - c)**k, so
    |f| <= |t_0| + sum_{k>=1} |t_k| radius**k on the disc, and |t_k| <=
    |Re t_k| + |Im t_k|.
    """
    t = [(Fraction(c), Fraction(0)) for c in f.coeffs]
    n = len(t) - 1
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            (r, s), (hr, hi) = t[k], t[k + 1]
            t[k] = (r + re * hr - im * hi, s + re * hi + im * hr)
    slack = eps - sum((abs(r) + abs(s)) * radius**k for k, (r, s) in enumerate(t) if k)
    r, s = t[0]
    return slack > 0 and r * r + s * s < slack * slack


def _to_exact_complex(value) -> tuple[Fraction, Fraction]:
    if isinstance(value, complex):
        return Fraction(value.real), Fraction(value.imag)
    return Fraction(value), Fraction(0)


def _small_value_candidate(reps, n: int, weight: int) -> IntPoly:
    """x**n + P, with P Babai's point toward -x**n among the integer
    polynomials of degree < n.  Their coefficient vectors a carry the form
    |a|**2 + weight**2 sum |P(alpha)|**2 over the representatives alpha,
    built from the exact center powers."""
    powers = []  # (Re, Im) of alpha**j for j = 0..n, per representative
    for re, im in reps:
        pr, pi = Fraction(1), Fraction(0)
        row = []
        for _ in range(n + 1):
            row.append((pr, pi))
            pr, pi = pr * re - pi * im, pr * im + pi * re
        powers.append(row)
    w2 = weight * weight

    def form(i: int, j: int) -> Fraction:
        """weight**2 sum Re(alpha**i conj(alpha**j)): the value part of the
        form on x**i and x**j."""
        return w2 * sum(p[i][0] * p[j][0] + p[i][1] * p[j][1] for p in powers)

    gram = GramMatrix([[(i == j) + form(i, j) for j in range(n)] for i in range(n)])
    red = lll_reduce(gram)
    # <-x**n, x**j> on the reduction's integer form, over a common scale
    cross = [-gram.scale * form(n, j) for j in range(n)]
    scale = math.lcm(*(x.denominator for x in cross))
    products = [x.numerator * (scale // x.denominator) for x in cross]
    center = _babai(red, products, scale)
    coeffs = [sum(c * row[k] for c, row in zip(center, red.basis)) for k in range(n)]
    return IntPoly(coeffs + [1])


def small_value_polynomial(points, epsilon, precision: int = 64) -> IntPoly:
    """Monic integer F with |F(alpha_i)| < epsilon at every given point.

    Points must be pairwise distinct and closed under complex conjugation;
    each is read exactly as a rational center.  For n = 1 .. k + 8 (k
    points) and four weights, F = x**n + P is Babai's point of
    _small_value_candidate, so at most 4 (k + 8) reductions of dimension
    <= k + 8 run.  The first F proved below epsilon on a disc of radius
    3/2 * 2**-precision about each center is returned; the disc holds the
    box of halfwidth 2**-precision about the center, so the inputs are
    trusted to that accuracy.  Raises ValueError for a precision below 1,
    and SmallValueError when no candidate verifies; callers should then
    raise the precision or supply more accurate points.
    """
    if precision < 1:
        raise ValueError("precision must be at least 1")
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    try:
        exact = [_to_exact_complex(p) for p in points]
    except OverflowError as exc:  # an infinite coordinate
        raise ValueError("points must be finite") from exc
    k = len(exact)
    if k == 0:
        raise ValueError("need at least one point")
    if len(set(exact)) != k:
        raise ValueError("points must be pairwise distinct")
    as_set = set(exact)
    for re, im in exact:
        if im != 0 and (re, -im) not in as_set:
            raise ValueError("points must be closed under complex conjugation")

    # the disc of radius 3h/2 about a center holds its box of halfwidth h,
    # since h sqrt(2) < 3h/2; a conjugate's disc mirrors its partner's
    radius = Fraction(3, 2 << precision)
    reps = [(re, im) for re, im in exact if im >= 0]
    for n in range(1, k + 9):
        for wexp in (12, 24, 48, 96):
            f = _small_value_candidate(reps, n, 1 << wexp)
            if all(_small_on_disc(f, re, im, radius, eps) for re, im in reps):
                return f
    raise SmallValueError(
        "could not verify a small-value polynomial at this precision"
    )
