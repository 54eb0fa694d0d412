"""Unit tests for canonicalization (Definition 2.1): binary + rigid leaves."""

import pytest

from repro.instances.generators import random_laminar, wide_star
from repro.instances.jobs import Instance
from repro.tree.canonical import canonicalize, is_canonical


class TestBinarization:
    def test_wide_node_gets_virtual_children(self):
        # Root [0,9) with three children [0,3), [3,6), [6,9).
        inst = Instance.from_triples(
            [(0, 9, 1), (0, 3, 1), (3, 6, 1), (6, 9, 1)], g=2
        )
        canon = canonicalize(inst)
        assert all(len(kids) <= 2 for kids in canon.forest.children)
        assert len(canon.forest.virtual) > 0

    def test_virtual_hull_preserves_total_length(self):
        inst = Instance.from_triples(
            [(0, 12, 1), (0, 3, 1), (4, 6, 1), (8, 11, 1)], g=2
        )
        canon = canonicalize(inst)
        # Sum of L over all nodes must equal the horizon slots covered.
        total = sum(canon.forest.length[i] for i in range(canon.forest.m))
        assert total == 12

    def test_gap_slots_live_in_virtual_hull(self):
        # Children [0,3), [4,6) leave gap slot 3 inside the virtual hull.
        inst = Instance.from_triples(
            [(0, 12, 1), (0, 3, 1), (4, 6, 1), (8, 11, 1)], g=2
        )
        canon = canonicalize(inst)
        virtuals = canon.forest.virtual
        assert virtuals
        assert any(canon.forest.length[v] > 0 for v in virtuals)


class TestRigidLeaves:
    def test_slack_leaf_gets_rigid_child(self):
        inst = Instance.from_triples([(0, 5, 2)], g=1)
        canon = canonicalize(inst)
        jobs = {j.id: j for j in canon.instance.jobs}
        assert is_canonical(canon.forest, jobs)
        # The job's window was shrunk to its first 2 slots.
        assert jobs[0].deadline - jobs[0].release == 2
        assert canon.shrunk_jobs == (0,)

    def test_already_rigid_leaf_untouched(self):
        inst = Instance.from_triples([(0, 3, 3)], g=1)
        canon = canonicalize(inst)
        assert canon.shrunk_jobs == ()
        assert canon.instance.jobs == inst.jobs

    def test_longest_job_chosen(self):
        inst = Instance.from_triples([(0, 6, 2), (0, 6, 4)], g=2)
        canon = canonicalize(inst)
        jobs = {j.id: j for j in canon.instance.jobs}
        # The p=4 job defines the rigid child.
        assert canon.shrunk_jobs == (1,)
        assert jobs[1].deadline == 4
        assert jobs[0].deadline == 6  # the shorter job keeps its window


class TestCanonicalInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances_become_canonical(self, seed):
        inst = random_laminar(10, 3, horizon=24, seed=seed)
        canon = canonicalize(inst)
        jobs = {j.id: j for j in canon.instance.jobs}
        assert is_canonical(canon.forest, jobs)

    def test_windows_only_shrink(self):
        inst = random_laminar(12, 2, horizon=30, seed=3)
        canon = canonicalize(inst)
        orig = {j.id: j for j in inst.jobs}
        for job in canon.instance.jobs:
            assert job.release >= orig[job.id].release
            assert job.deadline <= orig[job.id].deadline
            assert job.processing == orig[job.id].processing

    def test_job_node_consistent(self):
        inst = wide_star(4, 2, seed=1)
        canon = canonicalize(inst)
        for job in canon.instance.jobs:
            node = canon.job_node[job.id]
            assert canon.forest.start[node] == job.release
            assert canon.forest.end[node] == job.deadline

    def test_every_leaf_has_jobs(self):
        inst = random_laminar(15, 3, horizon=30, seed=9)
        canon = canonicalize(inst)
        for leaf in canon.forest.leaves():
            assert canon.forest.jobs[leaf]

    def test_total_length_preserved(self):
        inst = random_laminar(14, 2, horizon=28, seed=5)
        raw_cover = sorted(
            {t for j in inst.jobs for t in range(j.release, j.deadline)}
        )
        canon = canonicalize(inst)
        total = sum(canon.forest.length[i] for i in range(canon.forest.m))
        assert total == len(raw_cover)
