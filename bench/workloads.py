"""Seeded workloads: item generation, the timed call of each item, and the
benchmark's own check of each output.

Every workload is generated as ROUNDS rounds; a pass runs one round.  Each
stratum (a degree, or a degree band) contributes one item per round, drawn
from the stratum's pool by a seeded permutation, so every seed gives the
same item count and the same mix of strata.  A stratum whose single item is
a large share of a pass has its pool capped at ROUNDS members in a fixed
order: every run then covers the same heavy instances once per cycle and
the seed only changes which round holds which, which keeps pass times
comparable across seeds.  Light strata are sampled from their whole pool.

Calls go through module attributes (`mods.certify.decide_sup_bound`) at
call time, so the tracer's wrappers see them.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable

ROUNDS = 4
CONSTRUCT_CAP = 4096
CONSTRUCT_BANDS = ((16, 64), (64, 256), (256, 1024), (1024, CONSTRUCT_CAP))
CONSTRUCT_FAREY_ORDER = 10
ENCLOSURE_DEGREES = (4, 5, 6, 8, 9, 12)
# (degree, radius, heavy): radius-1 items are enumeration-bound and grow as
# 3**(n-2), radius-0 items are reduction-bound.
SEARCH_STRATA = (
    (3, 1, False), (4, 1, False), (5, 1, False), (6, 1, False),
    (8, 1, False), (9, 1, False), (10, 1, True),
    (14, 0, True), (16, 0, True), (18, 0, True),
)


class CheckError(AssertionError):
    """An output failed the benchmark's own check."""


@dataclass(frozen=True)
class Item:
    """One timed call and the untimed check of its output.

    check returns True for a verified answer and False for a search that
    found nothing (not a failure); it raises CheckError on a wrong answer.
    """

    label: str
    stratum: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def scaled_value(coeffs, a: int, b: int, n: int) -> int:
    """b**n * F(a/b) for integer coefficients of degree <= n, in integers."""
    return b ** (n + 1 - len(coeffs)) * _homogeneous(coeffs, a, b)


def _homogeneous(coeffs, a: int, b: int) -> int:
    """sum c_j a**j b**(d-j), d = len(coeffs) - 1.  Splitting in halves keeps
    the big-integer products balanced; Horner's rule would take quadratic
    time at the degrees the construct workload reaches."""
    if len(coeffs) <= 32:
        total, b_pow = 0, 1
        for c in reversed(coeffs):
            total = total * a + c * b_pow
            b_pow *= b
        return total
    m = len(coeffs) // 2
    return (b ** (len(coeffs) - m) * _homogeneous(coeffs[:m], a, b)
            + a**m * _homogeneous(coeffs[m:], a, b))


def witness_bound(pair, n: int) -> Fraction:
    return max(Fraction(1, pair.b1), Fraction(1, pair.b2)) ** n


def label_of(pair) -> str:
    return f"{pair.lo}..{pair.hi}"


def rounds_from(strata, rng: random.Random) -> list[list]:
    """Per stratum, a seeded permutation of its pool spread over ROUNDS."""
    out = [[] for _ in range(ROUNDS)]
    for pool in strata:
        order = rng.sample(pool, len(pool))
        for r in range(ROUNDS):
            out[r].append(order[r % len(order)])
    return out


def is_monic_int(mods, poly, n: int) -> bool:
    return (
        isinstance(poly, mods.numpoly.IntPoly)
        and all(isinstance(c, int) for c in poly.coeffs)
        and poly.degree == n
        and poly.is_monic
    )


# ---------------------------------------------------------------- table-certify


def _check_refutation(poly, interval, bound, cert) -> None:
    p = cert.refutation_point
    require(p is not None, "refutation without a point")
    require(interval.lo <= p <= interval.hi, f"refutation point {p} outside interval")
    require(abs(horner(poly.coeffs, p)) > bound, f"|f({p})| does not exceed the bound")


def _verify_table_item(mods, table) -> Item:
    def check(report) -> bool:
        require(report.exit_code == 0, f"verify-table exit code {report.exit_code}")
        entries = [ln for ln in report.lines if ln.startswith("entry=")]
        require(len(entries) == len(table), "verify-table skipped entries")
        require(all(ln.endswith("status=certified") for ln in entries),
                "a table witness did not certify")
        require(report.lines[-1] == f"total={len(table)}", "verify-table total line")
        return True

    return Item("verify-table", "cli", lambda: mods.cli.run(["verify-table"]), check)


def _sturm_item(mods, entry) -> Item:
    interval = entry.pair.interval()
    bound = witness_bound(entry.pair, entry.poly.degree)

    def check(cert) -> bool:
        require(cert.verdict.value == "certified",
                f"Sturm path did not certify {label_of(entry.pair)}")
        return True

    return Item(
        f"sturm {label_of(entry.pair)}",
        str(entry.poly.degree),
        lambda: mods.certify.decide_sup_bound(entry.poly, interval, bound),
        check,
    )


def _neighbour_item(mods, entry, j: int, sign: int) -> Item:
    """f + sign * x**j * v, where v vanishes at both endpoints."""
    pair, f = entry.pair, entry.poly
    IntPoly = mods.numpoly.IntPoly
    v = IntPoly([-pair.a1, pair.b1]) * IntPoly([-pair.a2, pair.b2])
    g = f + sign * (IntPoly.monomial(j) * v)
    interval = pair.interval()
    bound = witness_bound(pair, f.degree)

    def call():
        return (
            mods.certify.certify_sup_bound(g, interval, bound),
            mods.certify.decide_sup_bound(g, interval, bound),
        )

    def check(out) -> bool:
        fast, exact = out
        require(exact.verdict.value != "inconclusive", "Sturm decision inconclusive")
        require(fast.verdict == exact.verdict,
                f"prefilter path {fast.verdict.value} vs Sturm {exact.verdict.value}")
        for cert in out:
            if cert.verdict.value == "refuted":
                _check_refutation(g, interval, bound, cert)
        return True

    return Item(
        f"neighbour {label_of(pair)} j={j} sign={sign:+d}", str(f.degree), call, check
    )


def table_certify(mods, table, rng) -> list[list[Item]]:
    """verify-table (prefilter path), the 73 witness bounds through Sturm, and
    seeded coset neighbours of every witness of degree >= 3 on both paths."""
    rounds = []
    for _ in range(ROUNDS):
        items = [_verify_table_item(mods, table)]
        items += [_sturm_item(mods, e) for e in table]
        for e in table:
            n = e.poly.degree
            if n >= 3:
                items.append(
                    _neighbour_item(mods, e, rng.randrange(n - 2), rng.choice((1, -1)))
                )
        rounds.append(items)
    return rounds


# ------------------------------------------------------------------- enclosure


def _enclosure_item(mods, entry) -> Item:
    interval = entry.pair.interval()
    bound = witness_bound(entry.pair, entry.poly.degree)
    tol = bound / 1000

    def check(out) -> bool:
        lo, hi = out
        require(lo <= bound <= hi, f"enclosure [{lo}, {hi}] misses {bound}")
        require(hi - lo <= tol, "enclosure wider than the tolerance")
        return True

    return Item(
        f"enclosure {label_of(entry.pair)}",
        str(entry.poly.degree),
        lambda: mods.certify.sup_norm_enclosure(entry.poly, interval, tol),
        check,
    )


def enclosure(mods, table, rng) -> list[list[Item]]:
    """One witness per degree in ENCLOSURE_DEGREES per round, at tol = bound/1000.
    Degree 12 has two witnesses, so every run encloses both."""
    strata = [[e for e in table if e.poly.degree == d] for d in ENCLOSURE_DEGREES]
    return [
        [_enclosure_item(mods, e) for e in chosen] for chosen in rounds_from(strata, rng)
    ]


# ---------------------------------------------------------------------- search


def _search_item(mods, pair, n: int, radius: int) -> Item:
    def check(found) -> bool:
        if found is None:
            return False
        require(is_monic_int(mods, found, n), "search result not monic integer of degree n")
        cert = mods.certify.decide_sup_bound(found, pair.interval(), witness_bound(pair, n))
        require(cert.verdict.value == "certified", "search result does not certify")
        return True

    return Item(
        f"search {label_of(pair)} n={n} radius={radius}",
        str(n),
        lambda: mods.lattice.search_witness(pair, n, radius=radius),
        check,
    )


def search_pool(mods, table, n: int) -> list:
    """Table intervals, in table order, whose degree-n (1, 1) coset exists."""
    pool = []
    for e in table:
        try:
            mods.construct.pair_polynomial(e.pair, n, 1, 1)
        except mods.construct.CongruenceError:
            continue
        pool.append(e.pair)
    return pool


def search(mods, table, rng) -> list[list[Item]]:
    strata = []
    for n, _, heavy in SEARCH_STRATA:
        pool = search_pool(mods, table, n)
        strata.append(pool[:ROUNDS] if heavy else pool)
    rounds = []
    for chosen in rounds_from(strata, rng):
        rounds.append([
            _search_item(mods, pair, n, radius)
            for pair, (n, radius, _) in zip(chosen, SEARCH_STRATA)
        ])
    return rounds


# ------------------------------------------------------------------- construct


def _construct_item(mods, points, degree: int, band: str) -> Item:
    def check(out) -> bool:
        n, poly = out
        require(n == degree, f"degree {n}, expected {degree}")
        require(is_monic_int(mods, poly, n), "output not monic integer of degree n")
        for p in points:
            require(scaled_value(poly.coeffs, p.numerator, p.denominator, n) == 1,
                    f"b^n F(a/b) != 1 at {p}")
        return True

    return Item(
        f"construct {','.join(map(str, points))} n={degree}",
        band,
        lambda: mods.construct.multipoint_monic(points, CONSTRUCT_CAP),
        check,
    )


def _refusal_item(mods, points, degree: int) -> Item:
    def call():
        try:
            return mods.construct.multipoint_monic(points, CONSTRUCT_CAP)
        except mods.construct.DegreeSearchError as refusal:
            return refusal

    def check(out) -> bool:
        require(isinstance(out, mods.construct.DegreeSearchError), "over-cap set not refused")
        require(out.minimal == degree and out.cap == CONSTRUCT_CAP,
                f"refusal reports {out.minimal}, expected {degree}")
        return True

    return Item(f"refuse {','.join(map(str, points))} n={degree}", "refusal", call, check)


def construct_pools(mods) -> tuple[list[list], list]:
    """Point pairs from the Farey sequence, by admissible-degree band.

    Sets whose points all have numerator 1 are left out: their answer is
    x**n and exercises no big-integer work.  The top band keeps the ROUNDS
    sets of highest degree; the refusal pool is every set over the cap.
    """
    points = [q for q in mods.farey.farey_sequence(CONSTRUCT_FAREY_ORDER) if q.denominator > 1]
    bands = [[] for _ in CONSTRUCT_BANDS]
    over = []
    for pts in itertools.combinations(points, 2):
        if all(q.numerator == 1 for q in pts):
            continue
        n = mods.construct.admissible_degree(pts)
        if n > CONSTRUCT_CAP:
            over.append((pts, n))
        for band, (lo, hi) in zip(bands, CONSTRUCT_BANDS):
            if lo <= n < hi:
                band.append((pts, n))
    bands[-1] = sorted(bands[-1], key=lambda s: -s[1])[:ROUNDS]
    return bands, over


def construct(mods, table, rng) -> list[list[Item]]:
    bands, over = construct_pools(mods)
    names = [f"{lo}-{hi}" for lo, hi in CONSTRUCT_BANDS]
    rounds = []
    for chosen in rounds_from(bands + [over], rng):
        items = [
            _construct_item(mods, pts, n, name)
            for (pts, n), name in zip(chosen, names)
        ]
        pts, n = chosen[-1]
        items.append(_refusal_item(mods, pts, n))
        rounds.append(items)
    return rounds


WORKLOADS = {
    "table-certify": table_certify,
    "enclosure": enclosure,
    "search": search,
    "construct": construct,
}


def generate(name: str, mods: SimpleNamespace, table, seed: int) -> list[list[Item]]:
    """The ROUNDS rounds of one workload; the same seed gives the same items."""
    return WORKLOADS[name](mods, table, random.Random(f"{name}/{seed}"))
