"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""
import itertools
import random
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest

from monicheb import (
    ConstantValue,
    DegreeSearchError,
    FareyPair,
    GramMatrix,
    IntPoly,
    Interval,
    Verdict,
    admissible_degree,
    bundled_table_path,
    decide_sup_bound,
    farey_intervals,
    interval_constant,
    lll_reduce,
    multipoint_monic,
    multiplicative_order,
    parse_table_file,
    run,
    search_witness,
    small_value_polynomial,
    verify_witness,
)
from monicheb.lattice import LLL_DELTA

from lattice_helpers import det_unimodular, reduced_gram


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_table_reproduction():
    """Every transcribed table entry certifies at exactly its bound."""
    entries = parse_table_file(bundled_table_path())
    assert len(entries) == 73
    degrees = {}
    for entry in entries:
        poly = -entry.poly if entry.poly.coeffs[-1] == -1 else entry.poly
        record = verify_witness(entry.pair, poly)
        assert record.certificate.verdict is Verdict.CERTIFIED_AT_MOST, entry.pair
        assert record.bound == max(F(1, entry.pair.b1), F(1, entry.pair.b2)) ** poly.degree
        degrees[poly.degree] = degrees.get(poly.degree, 0) + 1
    assert degrees[12] == 2 and degrees[18] == 1
    report(1, f"all {len(entries)} table entries certified exactly (degrees {sorted(degrees)})")


def test_criterion_2_known_constants():
    """The interval catalog reproduces every closed-form value, byte-exact."""
    checks = 0
    for n in range(2, 30):
        value, _ = interval_constant(F(0), F(1, n))
        assert (value.r, value.k) == (F(1, n), 1)
        value, _ = interval_constant(F(n - 1, n), F(1))
        assert (value.r, value.k) == (F(1, n), 1)
        value, _ = interval_constant(F(-1, n), F(1, n))
        assert (value.r, value.k) == (F(1, n), 1)
        value, _ = interval_constant(f"-1/sqrt({n})", f"1/sqrt({n})")
        assert value == ConstantValue(F(1, n), 2)
        checks += 4
    for m in range(-3, 4):
        for lo, hi, want in [
            (F(m), F(m) + F(1, 2), ConstantValue(F(1, 2))),
            (F(m) - F(1, 2), F(m), ConstantValue(F(1, 2))),
            (F(m), F(m + 1), ConstantValue(F(1, 2))),
            (F(m), F(m + 2), ConstantValue(F(1, 2), 2)),
        ]:
            value, _ = interval_constant(lo, hi)
            assert (value.r, value.k) == (want.r, want.k)
            checks += 1
    value, _ = interval_constant(F(0), F(1, 2))
    assert (value.r, value.k) == (F(1, 2), 1)
    value, _ = interval_constant("(1-sqrt(2))/2", "(1+sqrt(2))/2")
    assert (value.r, value.k) == (F(1, 2), 1)
    value, _ = interval_constant(F(-1), F(1))
    assert (value.r, value.k) == (F(1, 2), 2)
    checks += 3
    report(2, f"{checks} catalog values byte-exact in (r, k) form")


def _minimal_pair_degree(pair):
    l = 1
    for a, b in ((pair.a1, pair.b1), (pair.a2, pair.b2)):
        if b > 1:
            order = multiplicative_order(a, b)
            l = l * order // gcd(l, order)
    return max(l, 2) if l > 1 else 2


def test_criterion_3_construction_identities():
    """Endpoint and multipoint values are exact integer-arithmetic identities.

    The multipoint half runs over every point set of size <= 3 with
    denominators <= 5.  Sets whose minimal admissible degree exceeds 1000
    (they range up to ~10**7 by the congruence conditions on the degree)
    cannot be built in seconds on any machine; for those the documented
    refusal with the exact minimal degree is asserted instead.
    """
    rng = random.Random(1234)
    pairs = farey_intervals(50)
    tested = 0
    while tested < 100:
        pair = rng.choice(pairs)
        n = _minimal_pair_degree(pair)
        if n > 12:
            continue
        a_hi = pow(pair.a1, n, pair.b1)
        a_lo = pow(pair.a2, n, pair.b2)
        from monicheb import pair_polynomial

        poly = pair_polynomial(pair, n, a_hi, a_lo)
        assert poly.is_monic and poly.degree == n
        assert poly(pair.hi) == F(a_hi, pair.b1**n)
        assert poly(pair.lo) == F(a_lo, pair.b2**n)
        tested += 1

    points = [F(a, b) for b in range(2, 6) for a in range(1, b) if gcd(a, b) == 1]
    sets = []
    for k in (1, 2, 3):
        sets.extend(itertools.combinations(points, k))
    assert len(sets) == 129
    built = 0
    refused = 0
    cap = 1000
    for pts in sets:
        minimal = admissible_degree(list(pts))
        if minimal <= cap:
            n, poly = multipoint_monic(list(pts), cap)
            assert n == minimal
            for p in pts:
                assert p.denominator**n * poly(p) == 1
            built += 1
        else:
            with pytest.raises(DegreeSearchError) as exc:
                multipoint_monic(list(pts), cap)
            assert exc.value.minimal == minimal > cap
            refused += 1
    assert built + refused == 129
    report(
        3,
        f"100 pair identities exact; multipoint exact on {built} sets, "
        f"{refused} sets refused with minimal degree reported (> {cap})",
    )


def test_criterion_4_search_rediscovery():
    """LLL search re-proves the two smallest table intervals."""
    results = {}
    for lo, hi, want in [((1, 3), (2, 5), F(1, 3)), ((1, 4), (2, 7), F(1, 4))]:
        pair = FareyPair.from_endpoints(F(*lo), F(*hi))
        found = None
        for n in range(3, 7):
            try:
                found = search_witness(pair, n, radius=2)
            except Exception:
                continue
            if found is not None:
                break
        assert found is not None, (lo, hi)
        record = verify_witness(pair, found)
        assert record.certificate.verdict is Verdict.CERTIFIED_AT_MOST
        assert record.tm_upper == want
        results[(lo, hi)] = (n, found)
    report(4, f"witnesses found: {[(k, v[0]) for k, v in results.items()]}")


def _random_gram(rng, dim):
    a = [
        [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(dim)]
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


def _gram_schmidt(gram):
    d = gram.dim
    entries = gram.entries
    mu = [[F(0)] * d for _ in range(d)]
    norms = [F(0)] * d
    inner = [[F(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            val = entries[i][j]
            for l in range(j):
                val -= mu[j][l] * inner[i][l]
            inner[i][j] = val
            mu[i][j] = val / norms[j]
        norms[i] = entries[i][i] - sum(mu[i][j] * inner[i][j] for j in range(i))
    return norms, mu


def test_criterion_5_lll_property_suite():
    """200 random positive-definite forms, dim <= 8, all conditions exact."""
    rng = random.Random(4321)
    delta = LLL_DELTA
    for trial in range(200):
        dim = rng.randint(1, 8)
        gram = _random_gram(rng, dim)
        result = lll_reduce(gram)
        assert abs(det_unimodular(result.transform)) == 1
        norms, mu = _gram_schmidt(reduced_gram(gram, result))
        assert list(result.norms) == norms
        for i in range(dim):
            for j in range(i):
                assert mu[i][j] == result.mu[i][j]
                assert abs(result.mu[i][j]) <= F(1, 2)
        for k in range(1, dim):
            assert norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]
    report(5, "200 reductions satisfied size-reduction, Lovasz, |det U| = 1, exact GS data of U^T G U")


def _oracle_decide(poly, interval, bound, cells=96):
    """Grid plus derivative-Lipschitz brute force; may be inconclusive."""
    magnitude = max(abs(interval.lo), abs(interval.hi))
    lipschitz = sum(
        i * abs(c) * magnitude ** (i - 1) for i, c in enumerate(poly.coeffs) if i
    )
    h = interval.width / cells
    worst = F(0)
    for j in range(cells + 1):
        worst = max(worst, abs(poly(interval.lo + j * h)))
    if worst > bound:
        return "refuted"
    if worst + lipschitz * h / 2 <= bound:
        return "certified"
    return None


def certifier_cases():
    """The 1000 seeded (poly, interval, bound) instances of criterion 6."""
    rng = random.Random(2718)
    out = []
    for _ in range(1000):
        degree = rng.randint(0, 6)
        poly = IntPoly([rng.randint(-20, 20) for _ in range(degree + 1)])
        lo = F(rng.randint(-16, 8), 8)
        interval = Interval(lo, lo + F(rng.randint(1, 12), 8))
        scale = F(rng.randint(2, 40), 20)  # bound between 0.1x and 2x the grid max
        grid_max = max(
            abs(poly(interval.lo + j * interval.width / 16))
            for j in range(17)
        )
        bound = grid_max * scale if grid_max else F(rng.randint(0, 3))
        out.append((poly, interval, bound))
    return out


def test_criterion_6_certifier_oracle_equivalence():
    """1000 random polynomials: no disagreement with the brute-force oracle."""
    conclusive = 0
    for poly, interval, bound in certifier_cases():
        verdict = decide_sup_bound(poly, interval, bound).verdict
        oracle = _oracle_decide(poly, interval, bound)
        if oracle is None:
            continue
        conclusive += 1
        assert (oracle == "certified") == (verdict is Verdict.CERTIFIED_AT_MOST), (
            poly,
            interval,
            bound,
        )
    assert conclusive >= 500, "oracle should be conclusive on most instances"
    report(6, f"zero disagreements on {conclusive} conclusive instances out of 1000")


def test_criterion_7_small_values_desk_scale():
    """Conjugation-closed sets of any size get exactly verified small
    values; the general conjecture stays open in docs and exit codes."""
    cases = [
        ([2.718281828459045], F(1, 2)),
        ([0.5], F(1, 2)),
        ([complex(0.3, 0.8), complex(0.3, -0.8)], F(1, 4)),
        ([2.718281828459045, 3.141592653589793], F(1, 4)),
    ]
    for pts, eps in cases:
        f = small_value_polynomial(pts, eps, precision=48)
        assert f.is_monic
        for p in pts:
            z = complex(p)
            acc = 0j
            for c in reversed(f.coeffs):
                acc = acc * z + c
            assert abs(acc) < float(eps) + 1e-9  # float echo; the exact check ran inside

    # Exit-code semantics: an unsuccessful search is "not found" (1), never
    # a disproof, and an unwitnessed value stays labeled CONJECTURED.
    from monicheb import CONJECTURED, conjecture_value

    pair = FareyPair.from_endpoints(F(4, 9), F(5, 11))
    assert conjecture_value(pair)[1] == CONJECTURED
    report_obj = run(["search", "--interval", "2/5", "3/7", "--degree", "12", "--radius", "0"])
    assert report_obj.exit_code in (0, 1)  # found or not-found, never "disproved"

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    assert "open" in readme.lower() and "conjecture" in readme.lower()
    report(7, "small-value construction verified; open-conjecture semantics asserted")
