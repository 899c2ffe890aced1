import dataclasses
import pickle
from fractions import Fraction as F
from math import gcd

import pytest

from monicheb import (
    FareyPair,
    Interval,
    farey_intervals,
    farey_sequence,
    is_consecutive_pair,
    mediant,
)


def brute_force_sequence(order):
    """Oracle: sort every reduced fraction with denominator <= order."""
    seen = sorted(
        {F(a, b) for b in range(1, order + 1) for a in range(0, b + 1)}
    )
    return seen


def totient(n):
    count = 0
    for a in range(1, n + 1):
        if gcd(a, n) == 1:
            count += 1
    return count


class TestSequence:
    def test_order_one(self):
        assert farey_sequence(1) == [F(0), F(1)]

    def test_order_three(self):
        assert farey_sequence(3) == [F(0), F(1, 3), F(1, 2), F(2, 3), F(1)]

    def test_order_five_count(self):
        seq = farey_sequence(5)
        assert len(seq) == 11
        assert F(2, 5) in seq and F(3, 5) in seq

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            farey_sequence(0)

    @pytest.mark.parametrize("order", [1, 2, 7, 13, 50, 100])
    def test_matches_brute_force(self, order):
        assert farey_sequence(order) == brute_force_sequence(order)

    @pytest.mark.parametrize("order", list(range(1, 101, 9)))
    def test_adjacent_determinants(self, order):
        seq = farey_sequence(order)
        assert all(seq[i] < seq[i + 1] for i in range(len(seq) - 1))
        for lo, hi in zip(seq, seq[1:]):
            assert hi.numerator * lo.denominator - lo.numerator * hi.denominator == 1

    @pytest.mark.parametrize("order", list(range(1, 101, 7)))
    def test_totient_count(self, order):
        expected = 1 + sum(totient(m) for m in range(1, order + 1))
        assert len(farey_sequence(order)) == expected


class TestConsecutivePair:
    def test_table_pair(self):
        assert is_consecutive_pair(F(1, 3), F(2, 5))

    def test_simple(self):
        assert is_consecutive_pair(F(1, 3), F(1, 2))

    def test_determinant_two(self):
        assert not is_consecutive_pair(F(1, 4), F(1, 2))

    def test_order_enforced(self):
        with pytest.raises(ValueError):
            is_consecutive_pair(F(1, 2), F(1, 3))


class TestFareyPairType:
    def test_validates_determinant(self):
        with pytest.raises(ValueError):
            FareyPair(1, 2, 1, 4)

    def test_validates_reduced(self):
        with pytest.raises(ValueError):
            FareyPair(2, 4, 1, 3)

    def test_reversed_endpoints_fail_determinant(self):
        # swapping the endpoints negates a1*b2 - a2*b1, so the determinant
        # check alone keeps lo < hi
        with pytest.raises(ValueError, match="not a consecutive Farey pair"):
            FareyPair.from_endpoints(F(2, 5), F(1, 3))

    def test_interval(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        assert pair.interval().lo == F(1, 3)
        assert pair.interval().hi == F(2, 5)

    def test_endpoints_and_interval_built_once(self):
        pair = FareyPair(2, 5, 1, 3)
        assert pair.lo is pair.lo and pair.hi is pair.hi
        assert pair.interval() is pair.interval()
        assert (pair.lo, pair.hi) == (F(1, 3), F(2, 5))
        assert type(pair.lo) is type(pair.hi) is F
        assert pair.interval() == Interval(F(1, 3), F(2, 5))
        assert pair.interval().width == F(1, 15)
        assert dataclasses.replace(pair, a1=1, b1=2).hi == F(1, 2)
        for name in ("lo", "hi", "a1"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(pair, name, F(1, 2))

    def test_fields_eq_hash_repr_see_integers_only(self):
        pair = FareyPair(2, 5, 1, 3)
        assert [f.name for f in dataclasses.fields(FareyPair)] == ["a1", "b1", "a2", "b2"]
        assert pair == FareyPair.from_endpoints(F(1, 3), F(2, 5))
        assert hash(pair) == hash((2, 5, 1, 3))
        assert pair != FareyPair(1, 2, 1, 3)
        assert repr(pair) == "FareyPair(a1=2, b1=5, a2=1, b2=3)"
        assert str(pair) == "(1/3, 2/5)"
        assert dataclasses.astuple(pair) == (2, 5, 1, 3)
        copy = pickle.loads(pickle.dumps(pair))
        assert copy == pair and copy.interval() == pair.interval()


class TestMediant:
    def test_table_split(self):
        pair = FareyPair.from_endpoints(F(1, 3), F(2, 5))
        assert mediant(pair) == F(3, 8)

    def test_unit(self):
        assert mediant(FareyPair.from_endpoints(F(0), F(1))) == F(1, 2)

    def test_next_denominator(self):
        pair = FareyPair.from_endpoints(F(2, 5), F(3, 7))
        assert mediant(pair) == F(5, 12)

    def test_reduced_and_splits(self):
        for pair in farey_intervals(30):
            med = mediant(pair)
            assert gcd(pair.a1 + pair.a2, pair.b1 + pair.b2) == 1
            assert pair.lo < med < pair.hi
            # Both halves are valid consecutive pairs again.
            FareyPair.from_endpoints(pair.lo, med)
            FareyPair.from_endpoints(med, pair.hi)


class TestIntervals:
    def test_order_two(self):
        pairs = farey_intervals(2)
        assert [(p.lo, p.hi) for p in pairs] == [(F(0), F(1, 2)), (F(1, 2), F(1))]

    def test_order_three_count(self):
        assert len(farey_intervals(3)) == len(farey_sequence(3)) - 1

    def test_construction_invariant(self):
        for pair in farey_intervals(20):
            assert is_consecutive_pair(pair.lo, pair.hi)
