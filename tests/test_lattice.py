import math
import random
import time
from fractions import Fraction as F

import pytest

from monicheb import (
    CongruenceError,
    FareyPair,
    GramMatrix,
    IntPoly,
    Interval,
    SmallValueError,
    Verdict,
    build_search_basis,
    det_unimodular,
    gram_matrix,
    lll_reduce,
    poly_eval,
    search_witness,
    small_value_polynomial,
    verify_witness,
)


def random_gram(rng, dim, spread=6):
    """Random positive definite rational Gram matrix: A^T A + I."""
    a = [
        [F(rng.randint(-spread, spread), rng.randint(1, 4)) for _ in range(dim)]
        for _ in range(dim)
    ]
    entries = [
        [
            sum(a[k][i] * a[k][j] for k in range(dim)) + (1 if i == j else 0)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return GramMatrix(tuple(tuple(row) for row in entries))


def check_reduction(gram, result):
    d = gram.dim
    delta = result.delta
    # transform is unimodular
    assert abs(det_unimodular(result.transform)) == 1
    # U^T G U equals the reduced Gram exactly
    cols = [result.basis_vector(j) for j in range(d)]
    for i in range(d):
        for j in range(d):
            assert gram.form(cols[i], cols[j]) == result.gram_reduced.entries[i][j]
    # reported GS coefficients agree with an independent recomputation
    norms, mu = _gram_schmidt(result.gram_reduced)
    assert list(result.norms) == norms
    for i in range(d):
        for j in range(i):
            assert mu[i][j] == result.mu[i][j]
            assert abs(result.mu[i][j]) <= F(1, 2)
    # Lovasz condition
    for k in range(1, d):
        assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]
    return norms


def _gram_schmidt(gram):
    d = gram.dim
    mu = [[F(0)] * d for _ in range(d)]
    norms = [F(0)] * d
    inner_cache = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            val = gram.entries[i][j]
            for l in range(j):
                val -= mu[j][l] * inner_cache[i][l]
            inner_cache[i][j] = val
            mu[i][j] = val / norms[j]
        norms[i] = gram.entries[i][i] - sum(
            mu[i][j] * inner_cache[i][j] for j in range(i)
        )
    return norms, mu


class TestGramMatrix:
    def test_monomials_on_unit(self):
        g = gram_matrix([IntPoly([1]), IntPoly([0, 1])], Interval(0, 1))
        assert g.entries == ((F(1), F(1, 2)), (F(1, 2), F(1, 3)))

    def test_single_poly(self):
        g = gram_matrix([IntPoly([2, -11, 15])], Interval(F(1, 3), F(2, 5)))
        assert g.dim == 1 and g.entries[0][0] > 0

    def test_dependent_rejected(self):
        with pytest.raises(ValueError):
            gram_matrix([IntPoly([1]), IntPoly([2])], Interval(0, 1))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            GramMatrix(((F(1), F(2)), (F(3), F(1))))

    def test_not_pd_rejected(self):
        with pytest.raises(ValueError):
            GramMatrix(((F(0), F(0)), (F(0), F(1))))


class TestLLL:
    def test_identity_fixed(self):
        g = GramMatrix(((F(1), F(0)), (F(0), F(1))))
        r = lll_reduce(g)
        assert r.transform == ((1, 0), (0, 1))

    def test_hand_example(self):
        # basis (1,0),(4,1) under the standard form
        g = GramMatrix(((F(1), F(4)), (F(4), F(17))))
        r = lll_reduce(g)
        assert [r.gram_reduced.entries[i][i] for i in range(2)] == [F(1), F(1)]
        check_reduction(g, r)

    def test_delta_range(self):
        g = GramMatrix(((F(1), F(0)), (F(0), F(1))))
        for bad in (F(1, 4), F(1), F(2)):
            with pytest.raises(ValueError):
                lll_reduce(g, bad)

    def test_random_property_suite(self):
        rng = random.Random(77)
        for _ in range(60):
            dim = rng.randint(1, 6)
            g = random_gram(rng, dim)
            r = lll_reduce(g)
            norms = check_reduction(g, r)
            # first-vector bound via cross-powering, no roots:
            # B1**dim <= (4/(4d-1))**(dim(dim-1)) * det(G)
            det = _det_fraction(g.entries)
            lhs = r.gram_reduced.entries[0][0] ** dim
            factor = (F(4) / (4 * r.delta - 1)) ** (dim * (dim - 1))
            assert lhs <= factor * det


def _det_fraction(entries):
    m = [list(row) for row in entries]
    d = len(m)
    det = F(1)
    for k in range(d):
        pivot = None
        for i in range(k, d):
            if m[i][k] != 0:
                pivot = i
                break
        if pivot is None:
            return F(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, d):
            factor = m[i][k] / m[k][k]
            for j in range(k, d):
                m[i][j] -= factor * m[k][j]
    return det


class TestSearchBasis:
    def test_shape_for_table_pair(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        basis = build_search_basis(pair, 4)
        assert basis.p == IntPoly([3, -27, 81, -81, 1])
        assert basis.v == IntPoly([2, -11, 15])
        assert len(basis.members) == 3
        assert basis.members[2] == IntPoly([0, 2, -11, 15])

    def test_members_vanish_at_endpoints(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        basis = build_search_basis(pair, 8)
        for member in basis.members[1:]:
            assert poly_eval(member, pair.lo) == 0
            assert poly_eval(member, pair.hi) == 0
        assert poly_eval(basis.p, pair.lo) == F(1, 3**8)
        assert poly_eval(basis.p, pair.hi) == F(1, 5**8)

    def test_inadmissible_degree(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(CongruenceError):
            build_search_basis(pair, 3)  # 2**3 = 3 (mod 5), not 1


class TestSearchWitness:
    def test_rediscovers_first_interval(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        found = search_witness(pair, 4, radius=1)
        assert found is not None
        record = verify_witness(pair, found)
        assert record.certificate.verdict is Verdict.CERTIFIED_AT_MOST
        assert record.tm_upper == F(1, 3)

    def test_rediscovers_second_interval(self):
        pair = FareyPair.from_endpoints(F(1, 4), F(2, 7))
        found = None
        for n in (3, 6):
            try:
                found = search_witness(pair, n, radius=2)
            except CongruenceError:
                continue
            if found is not None:
                break
        assert found is not None
        record = verify_witness(pair, found)
        assert record.tm_upper == F(1, 4)

    def test_candidates_keep_endpoint_values(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        found = search_witness(pair, 4, radius=1)
        assert found.is_monic and found.degree == 4
        assert poly_eval(found, pair.lo) == F(1, 81)
        assert poly_eval(found, pair.hi) == F(1, 625)

    def test_radius_zero_failing_center_returns_none(self, monkeypatch):
        # contract: only candidates that certify are returned; when every
        # candidate fails (forced here), the search reports none
        import monicheb.lattice as lattice_mod

        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        real = lattice_mod.verify_witness

        def always_refuted(p, f, depth):
            record = real(p, f, depth)
            object.__setattr__(record.certificate, "verdict", Verdict.REFUTED)
            return record

        monkeypatch.setattr(lattice_mod, "verify_witness", always_refuted)
        assert search_witness(pair, 4, radius=0) is None

    def test_search_deterministic(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        first = search_witness(pair, 4, radius=1)
        second = search_witness(pair, 4, radius=1)
        assert first == second

    def test_radius_zero_pinned(self):
        # Babai's center on the reduction's own GS data; the coefficients
        # match the earlier polynomial-level orthogonalization
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        assert search_witness(pair, 8, radius=0) == IntPoly(
            [16797, -319246, 2598816, -11745914, 31833454, -51732937,
             46678191, -18039357, 1]
        )
        assert search_witness(pair, 12, radius=0) == IntPoly(
            [28454079, -852896193, 11616060703, -94886999776, 516532165401,
             -1967525352391, 5351182379918, -10391682086973, 14120658864988,
             -12786981922012, 6944930726564, -1713882069438, 1]
        )

    def test_negative_radius_rejected(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(ValueError, match="radius"):
            search_witness(pair, 4, radius=-1)

    def test_offset_box_too_large_refused(self, monkeypatch):
        import monicheb.lattice as lattice_mod

        def no_basis(*args):
            raise AssertionError("basis built before the size check")

        monkeypatch.setattr(lattice_mod, "build_search_basis", no_basis)
        pair = FareyPair.from_endpoints(F(1, 3), F(3, 8))
        with pytest.raises(ValueError, match="offsets"):
            search_witness(pair, 14, radius=1)

    def test_huge_degree_refused_at_once(self):
        # 3**(10**9 - 2) would have about 1.6e9 bits
        pair = FareyPair.from_endpoints(F(1, 3), F(3, 8))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 59049 offsets"):
            search_witness(pair, 10**9, radius=1)
        assert time.perf_counter() - start < 1


class TestSmallValues:
    def test_single_transcendental_like(self):
        f = small_value_polynomial([3.14159265358979], F(1, 2), precision=48)
        assert f.is_monic
        value = _horner_complex(f, 3.14159265358979)
        assert abs(value) < 0.5

    def test_rational_point_out_of_contract(self):
        f = small_value_polynomial([0.5], F(1, 2), precision=48)
        assert f.is_monic
        assert abs(poly_eval(f, F(1, 2))) < F(1, 2)

    def test_conjugate_pair_real_coefficients(self):
        alpha = complex(0.3, 0.8)
        f = small_value_polynomial([alpha, alpha.conjugate()], F(1, 4), precision=48)
        assert f.is_monic
        assert abs(_horner_complex(f, alpha)) < 0.25
        assert abs(_horner_complex(f, alpha.conjugate())) < 0.25

    def test_two_real_points(self):
        f = small_value_polynomial([math.e, math.pi], F(1, 4), precision=48)
        assert f.is_monic
        for a in (math.e, math.pi):
            assert abs(_horner_complex(f, a)) < 0.25

    def test_integer_point_degenerate(self):
        # integers sit far outside the hypothesis; x - m still answers
        f = small_value_polynomial([3], F(1, 2), precision=48)
        assert f.is_monic and abs(poly_eval(f, F(3))) < F(1, 2)

    def test_rejects_unclosed_conjugates(self):
        with pytest.raises(ValueError):
            small_value_polynomial([complex(0.3, 0.8)], F(1, 2))

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            small_value_polynomial([0.5], F(3, 2))
        with pytest.raises(ValueError):
            small_value_polynomial([0.5], F(0))

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            small_value_polynomial([], F(1, 2))
        with pytest.raises(ValueError):
            small_value_polynomial([0.5, 0.5], F(1, 2))


def _horner_complex(poly, z):
    acc = 0j
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc
