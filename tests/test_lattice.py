import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from monicheb import (
    CongruenceError,
    FareyPair,
    GramMatrix,
    IntPoly,
    Interval,
    SmallValueError,
    Verdict,
    build_search_basis,
    bundled_table_path,
    decide_sup_bound,
    gram_matrix,
    lll_reduce,
    poly_integrate_product,
    parse_table_file,
    search_witness,
    small_value_polynomial,
    verify_witness,
)
from monicheb.lattice import (
    LLL_DELTA,
    _anchor_coordinates,
    _beta_integrals,
    _from_coordinates,
    _nearest,
    _offsets_by_length,
    _small_value_candidate,
    _w_powers,
)

from lattice_helpers import det_unimodular, form, member_search_witness, reduced_gram


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
    delta = LLL_DELTA
    # transform is unimodular
    assert abs(det_unimodular(result.transform)) == 1
    # reported GS coefficients agree with an independent recomputation on
    # U^T G U
    norms, mu = _gram_schmidt(reduced_gram(gram, result))
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
    entries = gram.entries
    mu = [[F(0)] * d for _ in range(d)]
    norms = [F(0)] * d
    inner_cache = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            val = entries[i][j]
            for l in range(j):
                val -= mu[j][l] * inner_cache[i][l]
            inner_cache[i][j] = val
            mu[i][j] = val / norms[j]
        norms[i] = entries[i][i] - sum(
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

    def test_rows_over_one_scale(self):
        g = GramMatrix(((F(1, 2), F(1, 3)), (F(1, 3), F(1, 4))))
        assert g.rows == ((6, 4), (4, 3)) and g.scale == 12
        assert g.entries == ((F(1, 2), F(1, 3)), (F(1, 3), F(1, 4)))
        h = GramMatrix([[2, 3], [3, 10]])
        assert h.rows == ((2, 3), (3, 10)) and h.scale == 1

    def test_dependent_rejected(self):
        # the Gram of dependent polynomials is singular: the kernel's
        # second Gram determinant is 0
        gram = gram_matrix([IntPoly([1]), IntPoly([2])], Interval(0, 1))
        with pytest.raises(ValueError, match="not positive definite"):
            lll_reduce(gram)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            GramMatrix(((F(1), F(2)), (F(3), F(1))))

    def test_not_pd_rejected(self):
        for entries in (((0, 0), (0, 1)), ((1, 2), (2, 1)), ((-1,),)):
            with pytest.raises(ValueError, match="not positive definite"):
                lll_reduce(GramMatrix(entries))


class TestLLL:
    def test_identity_fixed(self):
        g = GramMatrix(((F(1), F(0)), (F(0), F(1))))
        r = lll_reduce(g)
        assert r.transform == ((1, 0), (0, 1))

    def test_hand_example(self):
        # basis (1,0),(4,1) under the standard form
        g = GramMatrix(((F(1), F(4)), (F(4), F(17))))
        r = lll_reduce(g)
        assert [reduced_gram(g, r).entries[i][i] for i in range(2)] == [F(1), F(1)]
        check_reduction(g, r)

    def test_delta_range(self):
        # one Lovasz parameter, inside LLL's range, and no way to pass another
        assert F(1, 4) < LLL_DELTA < 1
        g = GramMatrix(((F(1), F(0)), (F(0), F(1))))
        with pytest.raises(TypeError):
            lll_reduce(g, F(1, 2))

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
            lhs = reduced_gram(g, r).entries[0][0] ** dim
            factor = (F(4) / (4 * LLL_DELTA - 1)) ** (dim * (dim - 1))
            assert lhs <= factor * det


def reference_lll(gram, delta=F(3, 4)):
    """The rational LLL that lll_reduce replaced, kept as its oracle."""
    delta = F(delta)
    if not F(1, 4) < delta < 1:
        raise ValueError("delta must lie in (1/4, 1)")
    d = gram.dim
    basis = [[int(i == j) for j in range(d)] for i in range(d)]
    mu = [[F(0)] * d for _ in range(d)]
    norms = [F(0)] * d  # squared GS lengths

    def recompute_row(i):
        inner = [F(0)] * i
        for j in range(i):
            val = form(gram, basis[i], basis[j])
            for l in range(j):
                val -= mu[j][l] * inner[l]
            inner[j] = val
            mu[i][j] = val / norms[j]
        norms[i] = form(gram, basis[i], basis[i]) - sum(
            mu[i][j] * inner[j] for j in range(i)
        )
        if norms[i] <= 0:
            raise ValueError("form is not positive definite on the basis")

    for i in range(d):
        recompute_row(i)

    def size_reduce(k, j):
        if abs(mu[k][j]) > F(1, 2):
            q = round(mu[k][j])
            basis[k] = [x - q * y for x, y in zip(basis[k], basis[j])]
            for l in range(j):
                mu[k][l] -= q * mu[j][l]
            mu[k][j] -= q

    k = 1
    while k < d:
        size_reduce(k, k - 1)
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            for j in range(k - 2, -1, -1):
                size_reduce(k, j)
            k += 1
        else:
            m = mu[k][k - 1]
            swapped_norm = norms[k] + m * m * norms[k - 1]
            mu[k][k - 1] = m * norms[k - 1] / swapped_norm
            norms[k] = norms[k - 1] * norms[k] / swapped_norm
            norms[k - 1] = swapped_norm
            basis[k], basis[k - 1] = basis[k - 1], basis[k]
            for j in range(k - 1):
                mu[k][j], mu[k - 1][j] = mu[k - 1][j], mu[k][j]
            for i in range(k + 1, d):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)

    transform = tuple(tuple(basis[j][i] for j in range(d)) for i in range(d))
    return transform, tuple(tuple(row) for row in mu), tuple(norms)


def assert_matches_reference(gram):
    # equal transforms also give equal reduced Grams U^T G U
    result = lll_reduce(gram)
    transform, mu, norms = reference_lll(gram, LLL_DELTA)
    assert result.transform == transform
    assert result.mu == mu
    assert result.norms == norms
    return result


def endpoint_vanishing_gram(pair, n):
    """Gram of (v, x v, ..., x**(n-3) v) under the L2 form on the pair."""
    v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
    return gram_matrix([IntPoly.monomial(i) * v for i in range(n - 2)], pair.interval())


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


def table_pairs():
    return [entry.pair for entry in parse_table_file(bundled_table_path())]


class TestIntegralLLL:
    """lll_reduce against reference_lll, field by field."""

    def test_matches_reference_random(self):
        rng = random.Random(2024)
        for _ in range(60):
            g = random_gram(rng, rng.randint(1, 8), rng.choice([2, 6, 30]))
            check_reduction(g, assert_matches_reference(g))

    @pytest.mark.parametrize(
        "n, stride, first", [(14, 4, 0), (18, 12, 1), (22, 25, 2)]
    )
    def test_matches_reference_on_table_lattices(self, n, stride, first):
        # a spread of the table intervals: the reference takes about 0.4 s
        # per lattice at n = 14 and 3 s at n = 22
        for pair in table_pairs()[first::stride]:
            assert_matches_reference(endpoint_vanishing_gram(pair, n))

    def test_matches_reference_on_small_value_gram(self, monkeypatch):
        import monicheb.lattice as lattice_mod

        grams = []

        def recording(gram):
            grams.append(gram)
            return lll_reduce(gram)

        monkeypatch.setattr(lattice_mod, "lll_reduce", recording)
        reps = [(F(math.pi), F(0)), (F(0.3), F(0.8))]
        _small_value_candidate(reps, 5, 1 << 96)
        monkeypatch.undo()
        (gram,) = grams
        assert max(x.denominator for row in gram.entries for x in row) > 2**96
        assert_matches_reference(gram)

    @pytest.mark.parametrize(
        "entries, transform",
        [
            # mu = 3/2 and -3/2: round half to even gives 2 and -2
            (((2, 3), (3, 10)), ((1, -2), (0, 1))),
            (((2, -3), (-3, 10)), ((1, 2), (0, 1))),
            # mu = 5/2: half to even gives 2, half up would give 3
            (((2, 5), (5, 20)), ((1, -2), (0, 1))),
        ],
    )
    def test_size_reduction_rounds_half_to_even(self, entries, transform):
        g = GramMatrix(entries)
        result = assert_matches_reference(g)
        assert result.transform == transform
        assert result.mu[1][0] in (F(1, 2), F(-1, 2))

    def test_nearest_rounds_like_fraction(self):
        for a in range(-40, 41):
            for b in range(1, 9):
                assert _nearest(a, b) == round(F(a, b)), (a, b)

    def test_kernel_and_check_are_gone(self):
        import monicheb.lattice as lattice_mod

        for name in ("_lll_kernel", "_pivots_positive"):
            assert not hasattr(lattice_mod, name)
        assert not hasattr(lll_reduce(GramMatrix([[1]])), "delta")


class TestOffsetsByLength:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_sorted_box(self, data):
        dim = data.draw(st.integers(0, 6), label="dim")
        radius = data.draw(st.integers(0, 2), label="radius")
        cells = st.fractions(min_value=-4, max_value=4, max_denominator=4)
        a = [[data.draw(cells) for _ in range(dim)] for _ in range(dim)]
        g = GramMatrix(
            tuple(
                tuple(
                    sum(a[k][i] * a[k][j] for k in range(dim)) + (i == j)
                    for j in range(dim)
                )
                for i in range(dim)
            )
        )
        red = lll_reduce(g)
        reduced = reduced_gram(g, red)
        expected = sorted(
            itertools.product(range(-radius, radius + 1), repeat=dim),
            key=lambda o: (form(reduced, o, o), o),
        )
        assert list(_offsets_by_length(red, radius)) == expected

    def test_full_box_at_degree_12(self):
        pair = FareyPair.from_endpoints(F(6, 13), F(7, 15))
        gram = endpoint_vanishing_gram(pair, 12)
        red = lll_reduce(gram)
        got = list(_offsets_by_length(red, 1))
        assert len(got) == 3**10 and len(set(got)) == 3**10
        reduced = reduced_gram(gram, red)
        forms = [form(reduced, o, o) for o in got[:2000:7]]
        assert forms == sorted(forms)

    def test_zero_offset_first(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        red = lll_reduce(endpoint_vanishing_gram(pair, 20))
        assert next(_offsets_by_length(red, 3)) == (0,) * 18


class TestSearchBasis:
    def test_shape_for_table_pair(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        basis = build_search_basis(pair, 4)
        assert basis.p == IntPoly([3, -27, 81, -81, 1])
        assert basis.v == IntPoly([2, -11, 15])
        # p, w v and u v, with u = 3x - 1 and w = 2 - 5x
        assert basis.members == (
            basis.p,
            IntPoly([4, -32, 85, -75]),
            IntPoly([-2, 17, -48, 45]),
        )

    def test_members_vanish_at_endpoints(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        basis = build_search_basis(pair, 8)
        for member in basis.members[1:]:
            assert member(pair.lo) == 0
            assert member(pair.hi) == 0
        assert basis.p(pair.lo) == F(1, 3**8)
        assert basis.p(pair.hi) == F(1, 5**8)

    def test_inadmissible_degree(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(CongruenceError):
            build_search_basis(pair, 3)  # 2**3 = 3 (mod 5), not 1


def recording_lll_reduce(monkeypatch):
    """The list of every GramMatrix the search hands to lll_reduce."""
    import monicheb.lattice as lattice_mod

    grams = []

    def recording(gram):
        grams.append(gram)
        return lll_reduce(gram)

    monkeypatch.setattr(lattice_mod, "lll_reduce", recording)
    return grams


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
        assert found(pair.lo) == F(1, 81)
        assert found(pair.hi) == F(1, 625)

    def test_radius_zero_failing_center_returns_none(self, monkeypatch):
        # contract: only candidates that certify are returned; when every
        # candidate fails (forced here), the search reports none
        import monicheb.lattice as lattice_mod

        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        real = lattice_mod.verify_witness

        def always_refuted(p, f):
            record = real(p, f)
            object.__setattr__(record.certificate, "verdict", Verdict.REFUTED)
            return record

        monkeypatch.setattr(lattice_mod, "verify_witness", always_refuted)
        assert search_witness(pair, 4, radius=0) is None

    def test_candidate_order_after_refusals(self, monkeypatch):
        # the search tries p + sum (center_i + off_i) b_i with the offsets in
        # (form, offset) order; refuse the first 40 and record every try
        import monicheb.lattice as lattice_mod

        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        real = lattice_mod.verify_witness
        tried = []

        def refuse_first_40(p, f):
            tried.append(f)
            record = real(p, f)
            if len(tried) <= 40:
                object.__setattr__(record.certificate, "verdict", Verdict.REFUTED)
            return record

        monkeypatch.setattr(lattice_mod, "verify_witness", refuse_first_40)
        found = search_witness(pair, 8, radius=1)
        assert len(tried) > 40 and found == tried[-1]

        # the Gram of the members, in the search's order, as gram_matrix
        # integrates it: the same form up to a scale, so the same reduction
        # and the same order
        sub = search_members(pair, 8)
        gram = gram_matrix(sub, pair.interval())
        red = lll_reduce(gram)
        reduced = [
            sum((c * m for c, m in zip(red.basis[j], sub)), IntPoly())
            for j in range(red.dim)
        ]
        reduced_form = reduced_gram(gram, red)
        order = sorted(
            itertools.product(range(-1, 2), repeat=red.dim),
            key=lambda o: (form(reduced_form, o, o), o),
        )
        assert order[0] == (0,) * red.dim
        expected = [
            sum((o_i * b for o_i, b in zip(off, reduced)), tried[0])
            for off in order[: len(tried)]
        ]
        assert tried == expected

    def test_reduces_once_through_lll_reduce(self, monkeypatch):
        grams = recording_lll_reduce(monkeypatch)
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        assert search_witness(pair, 8, radius=1) is not None
        (gram,) = grams
        assert isinstance(gram, GramMatrix) and gram.dim == 8 - 2
        assert gram.scale == 1

    def test_search_builds_no_fraction(self, monkeypatch):
        # the reduction, Babai's point and the offset walk are integral;
        # only the certification (in certify) works with rationals
        import monicheb.lattice as lattice_mod

        def no_fraction(*args):
            raise AssertionError("the search built a Fraction")

        monkeypatch.setattr(lattice_mod, "Fraction", no_fraction)
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        assert search_witness(pair, 8, radius=1) is not None
        assert search_witness(pair, 12, radius=0) is not None

    def test_search_deterministic(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        first = search_witness(pair, 4, radius=1)
        second = search_witness(pair, 4, radius=1)
        assert first == second

    def test_radius_zero_pinned(self):
        # Babai's center on the reduction's own GS data.  At n = 8 it is
        # the point the monomial basis gave; at n = 12 the members, reduced
        # shortest first, give another basis and Babai another witness
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

    @pytest.mark.parametrize("lo, hi, n", [
        (F(1, 3), F(2, 5), 12), (F(1, 4), F(2, 7), 18), (F(1, 3), F(3, 8), 30),
    ])
    def test_members_reduced_shortest_first(self, monkeypatch, lo, hi, n):
        grams = recording_lll_reduce(monkeypatch)
        pair = FareyPair.from_endpoints(lo, hi)
        assert search_witness(pair, n, radius=0) is not None
        (gram,) = grams
        diagonal = [gram.rows[j][j] for j in range(gram.dim)]
        assert diagonal == sorted(diagonal)
        # the basis order is not already ascending: the search permutes it
        sub = build_search_basis(pair, n).members[1:]
        lengths = [poly_integrate_product(m, m, pair.interval()) for m in sub]
        assert lengths != sorted(lengths)

    def test_negative_radius_rejected(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(ValueError, match="radius"):
            search_witness(pair, 4, radius=-1)

    def test_offset_box_too_large_refused(self, monkeypatch):
        # the Beta integrals of the Gram are the search's first real work
        import monicheb.lattice as lattice_mod

        def no_integrals(*args):
            raise AssertionError("Gram integrals computed before the size check")

        monkeypatch.setattr(lattice_mod, "_beta_integrals", no_integrals)
        pair = FareyPair.from_endpoints(F(1, 3), F(3, 8))
        with pytest.raises(ValueError, match="offsets"):
            search_witness(pair, 14, radius=1)

    def test_degree_above_cap_refused_before_basis(self, monkeypatch):
        import monicheb.lattice as lattice_mod

        def no_integrals(*args):
            raise AssertionError("Gram integrals computed before the degree check")

        monkeypatch.setattr(lattice_mod, "_beta_integrals", no_integrals)
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        n = lattice_mod.MAX_SEARCH_DEGREE + 1
        with pytest.raises(ValueError, match=f"search degree {n} is above the cap"):
            search_witness(pair, n, radius=0)

    def test_huge_degree_refused_at_once(self):
        # 3**(10**9 - 2) would have about 1.6e9 bits
        pair = FareyPair.from_endpoints(F(1, 3), F(3, 8))
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than 59049 offsets"):
            search_witness(pair, 10**9, radius=1)
        assert time.perf_counter() - start < 1


def reference_search_witness(pair, n, radius=1, sub=None):
    """The monomial-basis search that the product basis replaced, kept as
    its oracle: lll_reduce on gram_matrix of (v, x v, ..., x**(n-3) v),
    or of the given members sub, and Babai's products from
    poly_integrate_product."""
    p = build_search_basis(pair, n).p
    if sub is None:
        v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
        sub = [IntPoly.monomial(i) * v for i in range(n - 2)]
    interval = pair.interval()
    red = lll_reduce(gram_matrix(sub, interval))
    reduced = [
        sum((c * m for c, m in zip(red.basis[j], sub)), IntPoly())
        for j in range(red.dim)
    ]
    r = []
    for i, b in enumerate(reduced):
        t = poly_integrate_product(-p, b, interval)
        r.append(t - sum(red.mu[i][j] * r[j] for j in range(i)))
    y = [ri / ni for ri, ni in zip(r, red.norms)]
    center = [0] * red.dim
    for i in range(red.dim - 1, -1, -1):
        center[i] = round(y[i])
        for j in range(i):
            y[j] -= center[i] * red.mu[i][j]
    for off in _offsets_by_length(red, radius):
        f = sum(((c + o) * b for c, o, b in zip(center, off, reduced)), p)
        if verify_witness(pair, f).certificate.verdict is Verdict.CERTIFIED_AT_MOST:
            return f
    return None


def search_members(pair, n):
    """The coset's members in the order search_witness reduces them: by
    ascending interval L2 length, ties in basis order."""
    sub = build_search_basis(pair, n).members[1:]
    interval = pair.interval()
    return sorted(sub, key=lambda m: poly_integrate_product(m, m, interval))


def product_scale(pair, n):
    """The scale (2n-1)! (b1 b2)**(2n-1) of the search's integer Gram."""
    return math.factorial(2 * n - 1) * (pair.b1 * pair.b2) ** (2 * n - 1)


def one_one_cosets(max_degree):
    """(pair, n) for every table pair and 3 <= n <= max_degree whose
    degree-n (1, 1) coset exists."""
    cosets = []
    for pair in table_pairs():
        for n in range(3, max_degree + 1):
            try:
                build_search_basis(pair, n)
            except CongruenceError:
                continue
            cosets.append((pair, n))
    return cosets


def certifies(pair, f):
    bound = max(F(1, pair.b1), F(1, pair.b2)) ** f.degree
    return decide_sup_bound(f, pair.interval(), bound).verdict is Verdict.CERTIFIED_AT_MOST


PRODUCT_CASES = [
    (FareyPair.from_endpoints(F(1, 4), F(1, 3)), 7),
    (FareyPair.from_endpoints(F(1, 3), F(3, 8)), 10),
    (FareyPair.from_endpoints(F(1, 3), F(2, 5)), 28),
]


class TestProductBasis:
    @pytest.mark.parametrize("pair, n", PRODUCT_CASES)
    def test_closed_form_gram_matches_gram_matrix(self, pair, n):
        sub = build_search_basis(pair, n).members[1:]
        gram = gram_matrix(sub, pair.interval())
        hankel = _beta_integrals(pair, 2 * n - 2)
        scale = product_scale(pair, n)
        assert [[x * scale for x in row] for row in gram.entries] == [
            [hankel[i + j + 2] for j in range(n - 2)] for i in range(n - 2)
        ]

    @pytest.mark.parametrize("pair, n", PRODUCT_CASES)
    def test_babai_products_match_integration(self, pair, n):
        basis = build_search_basis(pair, n)
        cross = _beta_integrals(pair, 2 * n - 1)
        coords = _anchor_coordinates(pair, n)
        scale = product_scale(pair, n) * 2 * n * pair.b1 * pair.b2
        for j, member in enumerate(basis.members[1:]):
            product = sum(c * cross[k + j + 1] for k, c in enumerate(coords))
            integral = poly_integrate_product(-basis.p, member, pair.interval())
            assert integral * scale == product

    @pytest.mark.parametrize("pair, n", PRODUCT_CASES)
    def test_anchor_coordinates_give_p(self, pair, n):
        u = IntPoly([-pair.a2, pair.b2])
        w = IntPoly([pair.a1, -pair.b1])
        coords = _anchor_coordinates(pair, n)
        total = sum((c * u**k * w ** (n - k) for k, c in enumerate(coords)), IntPoly())
        assert total == build_search_basis(pair, n).p

    @pytest.mark.parametrize("radius, max_degree", [(0, 14), (1, 12)])
    def test_finds_witness_where_reference_does(self, radius, max_degree):
        # every (1, 1) coset of the table pairs up to the degree, the
        # largest whose radius-1 box search_witness accepts
        for pair, n in one_one_cosets(max_degree):
            found = search_witness(pair, n, radius=radius)
            expected = reference_search_witness(pair, n, radius=radius)
            assert (found is None) == (expected is None), (pair, n)
            # on the product members in the search's order the rational
            # pipeline makes the same reduction, Babai point and offset order
            members = search_members(pair, n)
            assert found == reference_search_witness(pair, n, radius=radius, sub=members)
            if found is not None:
                assert found.is_monic and found.degree == n
                assert certifies(pair, found), (pair, n)

    def test_radius_zero_certifies_every_coset_to_degree_24(self):
        cosets = one_one_cosets(24)
        assert len(cosets) == 219
        for pair, n in cosets:
            found = search_witness(pair, n, radius=0)
            assert found is not None and found.is_monic and found.degree == n, (pair, n)
            assert certifies(pair, found), (pair, n)

    @pytest.mark.parametrize("lo, hi", [(F(1, 4), F(2, 7)), (F(1, 3), F(3, 8))])
    def test_degree_30_radius_zero_certifies(self, lo, hi):
        pair = FareyPair.from_endpoints(lo, hi)
        found = search_witness(pair, 30, radius=0)
        assert found is not None and found.degree == 30
        assert certifies(pair, found)


class TestCoordinateSearch:
    """search_witness builds its candidates from product-basis coordinates;
    member_search_witness, which sums member polynomials, is its oracle."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_coordinates_to_power_basis(self, data):
        pair = data.draw(st.sampled_from(table_pairs()))
        n = data.draw(st.integers(0, 48))
        coords = data.draw(st.lists(
            st.one_of(st.just(0), st.integers(-10**30, 10**30)),
            min_size=n + 1, max_size=n + 1,
        ))
        u = IntPoly([-pair.a2, pair.b2])
        w = IntPoly([pair.a1, -pair.b1])
        expected = sum(
            (c * u**k * w ** (n - k) for k, c in enumerate(coords) if c), IntPoly()
        )
        assert IntPoly(_from_coordinates(pair, coords, _w_powers(pair, n))) == expected

    @pytest.mark.parametrize("radius, max_degree", [(0, 24), (1, 12)])
    def test_matches_member_search(self, radius, max_degree):
        # every table pair and degree: the same polynomial or None, and
        # CongruenceError (same index, same message) on the same degrees
        returned = refused = 0
        for pair in table_pairs():
            for n in range(3, max_degree + 1):
                try:
                    expected = member_search_witness(pair, n, radius=radius)
                except CongruenceError as exc:
                    with pytest.raises(CongruenceError) as info:
                        search_witness(pair, n, radius=radius)
                    assert (info.value.index, str(info.value)) == (exc.index, str(exc))
                    refused += 1
                    continue
                assert search_witness(pair, n, radius=radius) == expected, (pair, n)
                returned += 1
        assert returned == {0: 219, 1: 100}[radius]
        assert refused > 0

    def test_radius_zero_walks_no_offsets(self, monkeypatch):
        import monicheb.lattice as lattice_mod

        def no_walk(*args):
            raise AssertionError("offset walk entered at radius 0")

        monkeypatch.setattr(lattice_mod, "_offsets_by_length", no_walk)
        for lo, hi, n in ((F(1, 3), F(2, 5), 8), (F(1, 4), F(2, 7), 18)):
            pair = FareyPair.from_endpoints(lo, hi)
            assert search_witness(pair, n, radius=0) is not None

    def test_radius_one_walks_offsets(self, monkeypatch):
        import monicheb.lattice as lattice_mod

        walks = []

        def recording(red, radius):
            walks.append(radius)
            return _offsets_by_length(red, radius)

        monkeypatch.setattr(lattice_mod, "_offsets_by_length", recording)
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        assert search_witness(pair, 8, radius=1) is not None
        assert walks == [1]

    def test_inadmissible_degree_refused_before_reduction(self, monkeypatch):
        import monicheb.lattice as lattice_mod

        def forbidden(*args):
            raise AssertionError("p or the Gram built for an inadmissible degree")

        monkeypatch.setattr(lattice_mod, "_beta_integrals", forbidden)
        monkeypatch.setattr(lattice_mod, "pair_polynomial", forbidden)
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        with pytest.raises(CongruenceError) as info:
            search_witness(pair, 3, radius=0)  # 2**3 = 3 (mod 5), not 1
        assert info.value.index == 1


class TestSmallValues:
    def test_single_transcendental_like(self):
        f = small_value_polynomial([3.14159265358979], F(1, 2), precision=48)
        assert f.is_monic
        value = _horner_complex(f, 3.14159265358979)
        assert abs(value) < 0.5

    def test_rational_point_out_of_contract(self):
        f = small_value_polynomial([0.5], F(1, 2), precision=48)
        assert f.is_monic
        assert abs(f(F(1, 2))) < F(1, 2)

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
        assert f.is_monic and abs(f(F(3))) < F(1, 2)

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

    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), complex(0.5, float("inf"))])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            small_value_polynomial([bad], F(1, 2))

    def test_three_real_points(self):
        points = [0.1, 0.2, 0.3]
        f = small_value_polynomial(points, F(1, 4), precision=48)
        assert_small_at_centers(f, points, F(1, 4))

    @pytest.mark.parametrize("seed", range(30))
    def test_verified_or_refused_on_random_closed_sets(self, seed):
        # each call returns a monic F small at every center and at the four
        # corners of its box, or raises SmallValueError; any other exception
        # fails the test
        rng = random.Random(seed)
        points = random_closed_set(rng)
        for eps in (F(1, 2), F(1, 4), F(1, 10), F(1, 100)):
            try:
                f = small_value_polynomial(points, eps, precision=48)
            except SmallValueError:
                continue
            assert_small_at_centers(f, points, eps, halfwidth=F(1, 2**48))

    def test_pi_at_tiny_epsilon(self):
        with pytest.raises(SmallValueError):
            small_value_polynomial([math.pi], F(1, 10**12), precision=48)
        f = small_value_polynomial([math.pi], F(1, 10**12), precision=64)
        assert f.degree == 3
        assert_small_at_centers(f, [math.pi], F(1, 10**12), halfwidth=F(1, 2**64))

    @pytest.mark.parametrize("precision", [0, -1])
    def test_rejects_precision_below_one(self, precision):
        # -1 once failed inside the shift with "negative shift count"
        with pytest.raises(ValueError, match="precision"):
            small_value_polynomial([math.pi], F(1, 2), precision=precision)

    # The check alone: every candidate is replaced by a fixed F at precision
    # 4 (h = 1/16) and epsilon = 1/2, so the call returns F when the check
    # accepts it and raises SmallValueError when it rejects it.
    EPS = F(1, 2)
    H = F(1, 16)

    def accepts(self, monkeypatch, coeffs, points) -> bool:
        import monicheb.lattice as lattice_mod

        monkeypatch.setattr(lattice_mod, "_small_value_candidate", lambda *a: IntPoly(coeffs))
        try:
            small_value_polynomial(points, self.EPS, precision=4)
        except SmallValueError:
            return False
        return True

    def test_box_edge_above_epsilon_rejected(self, monkeypatch):
        # |c| < eps, but the box edge c + h is above it: a check that drops
        # the Taylor tail accepts
        assert not self.accepts(monkeypatch, [0, 1], [self.EPS - self.H / 2])

    def test_well_inside_accepted(self, monkeypatch):
        assert self.accepts(monkeypatch, [0, 1], [self.EPS / 2])

    def test_box_corner_above_epsilon_rejected(self, monkeypatch):
        # c = x + i x with |c| + h < eps, while the corner (x + h, x + h) has
        # |F| >= eps: a disc of radius h misses that corner and accepts
        x = F(19, 64)
        assert (2 * x * x) < (self.EPS - self.H) ** 2
        assert 2 * (x + self.H) ** 2 >= self.EPS**2
        z = complex(x, x)
        assert not self.accepts(monkeypatch, [0, 1], [z, z.conjugate()])


def random_closed_set(rng):
    """1 to 5 distinct points, reals and conjugate pairs."""
    size = rng.randint(1, 5)
    points = []
    while len(points) < size:
        if size - len(points) >= 2 and rng.random() < 0.5:
            z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
            points += [z, z.conjugate()]
        else:
            points.append(rng.uniform(-3, 3))
    return points


def assert_small_at_centers(f, points, eps, halfwidth=F(0)):
    """f is monic and |f(z)|**2 < eps**2 at every exact center alpha and at
    the four corners alpha + halfwidth (+-1 +- i) of its box, by Horner in
    Q(i) on Fractions."""
    assert f.is_monic and f.degree >= 1
    corners = list(itertools.product((-halfwidth, halfwidth), repeat=2)) if halfwidth else []
    for z in map(complex, points):
        for dr, di in [(0, 0)] + corners:
            re, im = F(z.real) + dr, F(z.imag) + di
            vr, vi = F(0), F(0)
            for c in reversed(f.coeffs):
                vr, vi = vr * re - vi * im + c, vr * im + vi * re
            assert vr * vr + vi * vi < eps * eps, (points, eps, f, dr, di)


def _horner_complex(poly, z):
    acc = 0j
    for c in reversed(poly.coeffs):
        acc = acc * z + c
    return acc
