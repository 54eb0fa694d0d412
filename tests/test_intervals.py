"""Unit tests for half-open interval algebra."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import crossing_pair
from repro.util.intervals import (
    Interval,
    intervals_disjoint,
    intervals_nested,
    is_laminar,
    nest,
    union_length,
)


def witness(family):
    """The library's crossing pair of a family, as ``Interval``s."""
    crossing = nest([(iv.start, iv.end) for iv in family]).crossing
    return None if crossing is None else tuple(Interval(*w) for w in crossing)

intervals = st.tuples(
    st.integers(0, 30), st.integers(1, 15)
).map(lambda t: Interval(t[0], t[0] + t[1]))


class TestInterval:
    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            Interval(3, 3)
        with pytest.raises(ValueError):
            Interval(5, 2)

    def test_length(self):
        assert Interval(2, 7).length == 5
        assert len(Interval(0, 1)) == 1

    def test_membership_is_half_open(self):
        iv = Interval(2, 5)
        assert 2 in iv
        assert 4 in iv
        assert 5 not in iv
        assert 1 not in iv

    def test_containment(self):
        assert Interval(0, 10).contains_interval(Interval(3, 5))
        assert Interval(0, 10).contains_interval(Interval(0, 10))
        assert not Interval(0, 10).strictly_contains(Interval(0, 10))
        assert Interval(0, 10).strictly_contains(Interval(0, 9))

    def test_overlap(self):
        assert Interval(0, 3).overlaps(Interval(2, 5))
        assert not Interval(0, 3).overlaps(Interval(3, 5))

    def test_slots(self):
        assert list(Interval(2, 5).slots()) == [2, 3, 4]

    def test_intersect(self):
        assert Interval(0, 5).intersect(Interval(3, 8)) == Interval(3, 5)
        assert Interval(0, 3).intersect(Interval(3, 8)) is None

    def test_ordering_is_lexicographic(self):
        assert Interval(0, 2) < Interval(0, 3) < Interval(1, 2)


class TestLaminarity:
    def test_disjoint_pair_is_laminar(self):
        assert is_laminar([Interval(0, 2), Interval(2, 4)])

    def test_nested_pair_is_laminar(self):
        assert is_laminar([Interval(0, 10), Interval(3, 5)])

    def test_crossing_pair_detected(self):
        family = [Interval(0, 3), Interval(2, 5)]
        assert witness(family) == (Interval(0, 3), Interval(2, 5))
        assert witness(family) == crossing_pair(family)

    def test_duplicates_ignored(self):
        assert is_laminar([Interval(0, 3), Interval(0, 3)])

    def test_deep_nesting(self):
        family = [Interval(0, 2 ** k) for k in range(1, 8)]
        assert is_laminar(family)

    def test_siblings_under_one_parent(self):
        family = [Interval(0, 10), Interval(0, 3), Interval(4, 7), Interval(8, 10)]
        assert is_laminar(family)

    def test_cross_under_parent_detected(self):
        family = [Interval(0, 10), Interval(1, 5), Interval(4, 9)]
        assert not is_laminar(family)

    @given(st.lists(intervals, min_size=0, max_size=8))
    def test_matches_naive_pairwise_check(self, family):
        naive = all(
            intervals_disjoint(a, b) or intervals_nested(a, b)
            for i, a in enumerate(family)
            for b in family[i + 1 :]
        )
        assert is_laminar(family) == naive

    @given(st.lists(intervals, min_size=1, max_size=8))
    def test_crossing_pair_is_a_real_witness(self, family):
        pair = witness(family)
        assert pair == crossing_pair(family)
        if pair is not None:
            a, b = pair
            assert not intervals_disjoint(a, b)
            assert not intervals_nested(a, b)


class TestUnionLength:
    def test_empty(self):
        assert union_length([]) == 0

    def test_disjoint(self):
        assert union_length([Interval(0, 2), Interval(5, 7)]) == 4

    def test_overlapping(self):
        assert union_length([Interval(0, 4), Interval(2, 6)]) == 6

    @given(st.lists(intervals, min_size=0, max_size=8))
    def test_matches_slotwise_union(self, family):
        slots = set()
        for iv in family:
            slots.update(iv.slots())
        assert union_length(family) == len(slots)
