"""Exact checks on LLL output, shared by the lattice and acceptance tests."""
from fractions import Fraction

from monicheb import GramMatrix


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
