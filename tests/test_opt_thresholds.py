"""Unit tests for the OPT_i >= 2/3 threshold computation.

The ground truth for ``min(OPT_i, 3)`` on a subtree is the exact solver run
on the sub-instance, which is what the randomized tests compare against.
"""

import pytest

from repro.baselines.exact import solve_exact
from repro.core.opt_thresholds import compute_thresholds
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance
from repro.tree.canonical import canonicalize


def _thresholds(inst):
    canon = canonicalize(inst)
    jobs = {j.id: j for j in canon.instance.jobs}
    return canon, compute_thresholds(
        canon.forest, canon.job_node, jobs, canon.instance.g
    )


class TestHandCases:
    def test_single_unit_job(self):
        canon, th = _thresholds(Instance.from_triples([(0, 3, 1)], g=2))
        root = canon.forest.roots[0]
        assert th.value(root) == 1
        assert not th.at_least(root, 2)

    def test_capacity_overflow_forces_two(self):
        # g+1 unit jobs in one window: the natural-gap mechanism.
        canon, th = _thresholds(
            Instance.from_triples([(0, 2, 1)] * 3, g=2)
        )
        root = canon.forest.roots[0]
        assert th.value(root) == 2

    def test_long_job_forces_its_length(self):
        canon, th = _thresholds(Instance.from_triples([(0, 5, 3)], g=2))
        root = canon.forest.roots[0]
        assert th.value(root) == 3  # capped at 3

    def test_two_disjoint_groups_force_two(self):
        canon, th = _thresholds(
            Instance.from_triples([(0, 2, 1), (4, 6, 1)], g=2)
        )
        root = canon.forest.roots[0] if len(canon.forest.roots) == 1 else None
        # Disjoint roots: each root needs 1; no common ancestor exists.
        for r in canon.forest.roots:
            assert th.value(r) == 1

    def test_umbrella_over_disjoint_children(self):
        inst = Instance.from_triples(
            [(0, 6, 1), (0, 2, 1), (4, 6, 1)], g=3
        )
        canon, th = _thresholds(inst)
        root = canon.forest.roots[0]
        # Children live in disjoint windows → at least 2 slots.
        assert th.value(root) == 2

    def test_three_disjoint_children_force_three(self):
        inst = Instance.from_triples(
            [(0, 9, 1), (0, 2, 1), (3, 5, 1), (6, 8, 1)], g=4
        )
        canon, th = _thresholds(inst)
        root = canon.forest.roots[0]
        assert th.value(root) == 3

    def test_p2_job_with_siblings(self):
        # A p=2 job over two unit groups: 2 slots suffice when capacity fits.
        inst = Instance.from_triples(
            [(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2
        )
        canon, th = _thresholds(inst)
        root = canon.forest.roots[0]
        assert th.value(root) == 2

    def test_volume_over_2g_forces_three(self):
        inst = Instance.from_triples([(0, 4, 1)] * 5, g=2)
        canon, th = _thresholds(inst)
        root = canon.forest.roots[0]
        assert th.value(root) == 3


class TestAgainstExactSolver:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_exact_on_random_subtrees(self, seed):
        inst = random_laminar(9, 2, horizon=18, seed=seed, unit_fraction=0.5)
        canon, th = _thresholds(inst)
        forest = canon.forest
        jobs_by_id = {j.id: j for j in canon.instance.jobs}
        for i in range(forest.m):
            subtree_jobs = [
                jobs_by_id[jid]
                for k in forest.descendants(i)
                for jid in forest.jobs[k]
            ]
            if not subtree_jobs:
                assert th.value(i) == 0
                continue
            sub = Instance(
                jobs=tuple(subtree_jobs), g=canon.instance.g, name="sub"
            ).renumbered()
            opt = solve_exact(sub).optimum
            assert th.value(i) == min(opt, 3), (
                f"seed={seed} node={i} omega={th.value(i)} opt={opt}"
            )

    def test_threshold_validation(self):
        canon, th = _thresholds(Instance.from_triples([(0, 3, 1)], g=1))
        with pytest.raises(ValueError):
            th.at_least(0, 4)
