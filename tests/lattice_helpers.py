"""Exact checks on LLL output, shared by the lattice and acceptance tests,
and the member-polynomial search kept as the oracle of search_witness."""
import math
from fractions import Fraction

from monicheb import GramMatrix, Verdict, build_search_basis, lll_reduce, verify_witness
from monicheb.lattice import _anchor_coordinates, _babai, _offsets_by_length


def form(gram, u, v) -> Fraction:
    """The bilinear form u^T G v for integer or rational vectors."""
    total = 0
    for ui, row in zip(u, gram.rows):
        if ui != 0:
            total += ui * sum(x * vj for x, vj in zip(row, v) if vj != 0)
    return Fraction(total, gram.scale)


def reduced_gram(gram, result) -> GramMatrix:
    """U^T G U for the transform U of an LLL result on gram."""
    cols = [result.basis[j] for j in range(result.dim)]
    return GramMatrix(tuple(tuple(form(gram, a, b) for b in cols) for a in cols))


def det_unimodular(transform) -> int:
    """Integer determinant (Bareiss) of a square integer matrix."""
    m = [list(row) for row in transform]
    d = len(m)
    sign = 1
    prev = 1
    for k in range(d - 1):
        if m[k][k] == 0:
            for swap in range(k + 1, d):
                if m[swap][k] != 0:
                    m[k], m[swap] = m[swap], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, d):
            for j in range(k + 1, d):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[d - 1][d - 1]


def member_search_witness(pair, n, radius=1):
    """search_witness as it ran on member polynomials: build_search_basis
    builds p and every member, each candidate is p plus its integer
    combination of the members, the Beta integrals come from two factorials
    per entry, and the offset walk runs at every radius.  Raises
    CongruenceError on an inadmissible degree, and refuses nothing else."""
    basis = build_search_basis(pair, n)
    dim = n - 2
    f, b1, b2 = math.factorial, pair.b1, pair.b2

    def beta(total):
        return [f(s) * f(total - s) * b1 ** (total - s) * b2**s for s in range(total + 1)]

    hankel = beta(2 * n - 2)
    common = math.gcd(*hankel[2 : 2 * n - 3])
    order = sorted(range(dim), key=lambda j: hankel[2 * j + 2])
    sub = [basis.members[j + 1] for j in order]
    gram = [[hankel[i + j + 2] // common for j in order] for i in order]
    red = lll_reduce(GramMatrix(gram))
    cross = beta(2 * n - 1)
    coords = _anchor_coordinates(pair, n)
    products = [sum(c * cross[k + j + 1] for k, c in enumerate(coords)) for j in order]
    center = _babai(red, products, 2 * n * b1 * b2 * common)
    for off in _offsets_by_length(red, radius):
        point = [c + o for c, o in zip(center, off)]
        z = [sum(c * row[k] for c, row in zip(point, red.basis)) for k in range(dim)]
        candidate = sum((zk * member for zk, member in zip(z, sub) if zk), basis.p)
        if verify_witness(pair, candidate).certificate.verdict is Verdict.CERTIFIED_AT_MOST:
            return candidate
    return None
