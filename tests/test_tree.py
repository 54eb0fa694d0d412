"""Unit tests for window-forest construction and queries (Section 2)."""

import pytest

from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance
from repro.tree.canonical import canonicalize
from repro.tree.laminar import build_forest
from repro.tree.node import WindowForest
from repro.util.errors import InvalidInstanceError, NotLaminarError
from repro.util.intervals import Interval


def interval(forest, i):
    """``K(i)`` of forest node ``i``."""
    return Interval(forest.start[i], forest.end[i])


@pytest.fixture()
def three_level():
    # [0,10) over [0,4) and [5,9); [0,4) over [1,3).
    inst = Instance.from_triples(
        [(0, 10, 2), (0, 4, 1), (5, 9, 2), (1, 3, 1)], g=2, name="three_level"
    )
    forest, job_node = build_forest(inst)
    return inst, forest, job_node


class TestBuildForest:
    def test_one_node_per_distinct_window(self, three_level):
        _, forest, _ = three_level
        assert forest.m == 4

    def test_rejects_crossing(self, crossing_instance):
        with pytest.raises(NotLaminarError):
            build_forest(crossing_instance)

    def test_parent_child_relations(self, three_level):
        _, forest, _ = three_level
        root = forest.roots[0]
        assert interval(forest, root) == Interval(0, 10)
        kids = {interval(forest, c) for c in forest.children[root]}
        assert kids == {Interval(0, 4), Interval(5, 9)}

    def test_duplicate_windows_share_a_node(self):
        inst = Instance.from_triples([(0, 4, 1), (0, 4, 2)], g=2)
        forest, job_node = build_forest(inst)
        assert forest.m == 1
        assert job_node[0] == job_node[1]

    def test_job_node_mapping(self, three_level):
        inst, forest, job_node = three_level
        for job in inst.jobs:
            assert interval(forest, job_node[job.id]) == job.window

    def test_forest_with_multiple_roots(self):
        inst = Instance.from_triples([(0, 2, 1), (5, 7, 1)], g=1)
        forest, _ = build_forest(inst)
        assert len(forest.roots) == 2


class TestForestQueries:
    def test_descendants_include_self(self, three_level):
        _, forest, _ = three_level
        root = forest.roots[0]
        assert set(forest.descendants(root)) == set(range(forest.m))
        leaf = forest.leaves()[0]
        assert forest.descendants(leaf) == [leaf]

    def test_strict_variants_exclude_self(self, three_level):
        _, forest, _ = three_level
        root = forest.roots[0]
        assert root not in forest.strict_descendants(root)
        assert root not in forest.strict_ancestors(root)

    def test_ancestors_bottom_up(self, three_level):
        _, forest, _ = three_level
        deepest = max(range(forest.m), key=lambda i: forest.depth[i])
        anc = forest.ancestors(deepest)
        assert anc[0] == deepest
        assert forest.parent[anc[-1]] == -1

    def test_is_ancestor_matches_interval_containment(self, three_level):
        _, forest, _ = three_level
        for a in range(forest.m):
            for b in range(forest.m):
                expected = interval(forest, a).contains_interval(interval(forest, b))
                # For laminar distinct windows containment == ancestry.
                assert forest.is_ancestor(a, b) == expected

    def test_length_excludes_children(self, three_level):
        _, forest, _ = three_level
        root = forest.roots[0]
        # |[0,10)| - |[0,4)| - |[5,9)| = 10 - 4 - 4 = 2
        assert forest.length[root] == 2

    def test_exclusive_slots_match_length(self, three_level):
        _, forest, _ = three_level
        for i in range(forest.m):
            slots = forest.exclusive_slots(i)
            assert len(slots) == forest.length[i]
            for t in slots:
                assert t in interval(forest, i)
                for c in forest.children[i]:
                    assert t not in interval(forest, c)

    def test_exclusive_slots_limit_is_a_prefix(self, three_level):
        _, forest, _ = three_level
        for i in range(forest.m):
            slots = forest.exclusive_slots(i)
            for limit in range(len(slots) + 2):
                assert forest.exclusive_slots(i, limit=limit) == slots[:limit]

    @pytest.mark.parametrize("seed", range(6))
    def test_exclusive_runs_expand_to_the_slot_prefix(self, three_level, seed):
        inst = random_laminar(12, 2, horizon=40, seed=seed) if seed else three_level[0]
        forest = canonicalize(inst).forest
        for i in range(forest.m):
            slots = forest.exclusive_slots(i)
            for limit in range(len(slots) + 2):
                runs = forest.exclusive_runs(i, limit)
                assert [t for a, b in runs for t in range(a, b)] == slots[:limit]
                # Non-empty, sorted, and split only where a child sits.
                assert all(a < b for a, b in runs)
                assert all(x[1] < y[0] for x, y in zip(runs, runs[1:]))
                assert len(runs) <= len(forest.children[i]) + 1

    def test_node_at_slot_deepest(self, three_level):
        _, forest, _ = three_level
        # Slot 2 lies in [0,10) ⊃ [0,4) ⊃ [1,3).
        idx = forest.node_at_slot(2)
        assert interval(forest, idx) == Interval(1, 3)
        assert forest.node_at_slot(99) is None

    def test_postorder_children_before_parents(self, three_level):
        _, forest, _ = three_level
        pos = {i: k for k, i in enumerate(forest.postorder)}
        for i, kids in enumerate(forest.children):
            for c in kids:
                assert pos[c] < pos[i]

    def test_preorder_parents_before_children(self, three_level):
        _, forest, _ = three_level
        pos = {i: k for k, i in enumerate(forest.preorder)}
        for i, kids in enumerate(forest.children):
            for c in kids:
                assert pos[c] > pos[i]


class TestWindowForestValidation:
    """The list constructor rejects a malformed forest as invalid input."""

    def test_index_mismatch_rejected(self):
        # A child index outside the node lists, and a node listed as the
        # child of two parents.
        with pytest.raises(InvalidInstanceError):
            WindowForest([0], [2], [[1]])
        with pytest.raises(InvalidInstanceError):
            WindowForest([0, 0, 0], [8, 6, 2], [[2], [2], []])

    def test_child_not_inside_parent_rejected(self):
        with pytest.raises(InvalidInstanceError):
            WindowForest([0, 1], [2, 5], [[1], []])
        # Equal to the parent is not strictly inside either.
        with pytest.raises(InvalidInstanceError):
            WindowForest([0, 0], [4, 4], [[1], []])

    def test_overlapping_siblings_rejected(self):
        with pytest.raises(InvalidInstanceError):
            WindowForest([0, 0, 2], [10, 4, 6], [[1, 2], [], []])
        # Roots are siblings too.
        with pytest.raises(InvalidInstanceError):
            WindowForest([0, 3], [4, 6], [[], []])

    def test_cycle_rejected(self):
        with pytest.raises(InvalidInstanceError):
            WindowForest([0, 1], [4, 3], [[1], [0]])

    def test_well_formed_lists_accepted(self):
        forest = WindowForest([0, 0, 5, 1], [10, 4, 9, 3], [[1, 2], [3], [], []])
        assert forest.parent == [-1, 0, 0, 1]
        assert forest.length == [2, 2, 4, 2]
        assert forest.preorder == [0, 1, 3, 2]
        assert forest.postorder == [3, 1, 2, 0]
