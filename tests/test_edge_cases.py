"""Edge cases across modules: degenerate shapes, offsets, extremes."""

import numpy as np
import pytest

from repro.baselines.exact import solve_exact
from repro.core.algorithm import solve_nested
from repro.core.rounding import round_solution
from repro.core.transform import push_down
from repro.instances.jobs import Instance, Job
from repro.lp.nested_lp import solve_nested_lp
from repro.multiinterval import MultiInstance, MultiJob
from repro.tree.canonical import canonicalize
from repro.util.intervals import Interval


class TestDegenerateInstances:
    def test_single_unit_job(self):
        inst = Instance.from_triples([(0, 1, 1)], g=1)
        assert solve_nested(inst).active_time == 1
        assert solve_exact(inst).optimum == 1

    def test_capacity_larger_than_jobs(self):
        inst = Instance.from_triples([(0, 3, 1)] * 2, g=50)
        assert solve_nested(inst).active_time == 1

    def test_single_slot_horizon(self):
        inst = Instance.from_triples([(5, 6, 1)] * 3, g=3)
        result = solve_nested(inst)
        assert result.active_time == 1
        assert result.schedule.active_slots == (5,)

    def test_far_offset_horizon(self):
        inst = Instance.from_triples(
            [(1000, 1008, 4), (1000, 1004, 2)], g=2
        )
        result = solve_nested(inst)
        assert result.schedule.is_valid
        assert all(t >= 1000 for t in result.schedule.active_slots)

    def test_forest_of_many_roots(self):
        triples = [(10 * k, 10 * k + 3, 2) for k in range(6)]
        inst = Instance.from_triples(triples, g=1)
        result = solve_nested(inst)
        assert result.active_time == 12  # 2 per component

    def test_deep_chain_of_identical_starts(self):
        triples = [(0, 12 - k, 1) for k in range(8)]
        inst = Instance.from_triples(triples, g=8)
        result = solve_nested(inst)
        assert result.schedule.is_valid
        assert result.active_time >= 1

    def test_every_job_rigid(self):
        inst = Instance.from_triples(
            [(0, 3, 3), (4, 6, 2), (8, 9, 1)], g=2
        )
        assert solve_nested(inst).active_time == 6

    def test_duplicate_job_shapes(self):
        inst = Instance.from_triples([(0, 4, 2)] * 4, g=4)
        result = solve_nested(inst)
        assert result.schedule.is_valid
        assert result.active_time == 2


class TestEmptyAndDegenerate:
    """0 jobs, one unit job, and g exceeding total volume stay sane."""

    def test_empty_instance_full_pipeline(self):
        inst = Instance(jobs=(), g=3)
        result = solve_nested(inst)
        assert result.active_time == 0
        assert result.lp_value == 0.0
        assert result.repairs == 0
        assert result.schedule.violations() == []
        assert result.schedule.utilization() == 0.0

    def test_empty_instance_shape(self):
        inst = Instance(jobs=(), g=1)
        assert inst.n == 0
        assert inst.is_laminar
        assert inst.total_volume == 0
        assert list(inst.slots()) == []
        assert "n=0" in inst.describe()

    def test_empty_instance_exact(self):
        assert solve_exact(Instance(jobs=(), g=2)).optimum == 0

    def test_empty_transform_and_rounding(self):
        from repro.tree.node import WindowForest

        forest = WindowForest([], [], [])
        tr = push_down(forest, np.zeros(0), np.zeros((0, 0)))
        assert tr.topmost == []
        rr = round_solution(forest, tr.x, tr.topmost)
        assert rr.total == 0
        assert rr.budget_ok

    def test_single_unit_job_utilization(self):
        inst = Instance.from_triples([(0, 1, 1)], g=4)
        sched = solve_nested(inst).schedule
        assert sched.active_time == 1
        assert sched.utilization() == pytest.approx(1 / 4)

    def test_capacity_exceeds_total_volume(self):
        # g = 50 dwarfs the volume 4: one batch per distinct rigid block.
        inst = Instance.from_triples([(0, 2, 2), (0, 2, 1), (0, 2, 1)], g=50)
        result = solve_nested(inst)
        assert result.active_time == 2
        assert result.repairs == 0
        assert result.schedule.violations() == []

    def test_empty_instance_oracle(self):
        from repro.verify import verify_instance

        report = verify_instance(Instance(jobs=(), g=2))
        assert report.status == "ok"
        assert report.violations == []


class TestPipelineDegenerates:
    def test_push_down_zero_solution(self):
        inst = Instance.from_triples([(0, 2, 1)], g=1)
        canon = canonicalize(inst)
        x = np.zeros(canon.forest.m)
        y = np.zeros((canon.forest.m, 1))
        tr = push_down(canon.forest, x, y)
        assert tr.moves == 0
        assert tr.topmost == []

    def test_round_empty_topmost(self):
        inst = Instance.from_triples([(0, 2, 1)], g=1)
        canon = canonicalize(inst)
        x = np.zeros(canon.forest.m)
        rr = round_solution(canon.forest, x, [])
        assert rr.total == 0
        assert rr.budget_ok

    def test_lp_on_single_node_tree(self):
        inst = Instance.from_triples([(0, 2, 2)], g=1)
        canon = canonicalize(inst)
        sol = solve_nested_lp(canon)
        assert sol.value == pytest.approx(2.0)

    def test_solver_idempotent(self):
        inst = Instance.from_triples([(0, 6, 2), (0, 3, 1), (3, 6, 1)], g=2)
        a = solve_nested(inst)
        b = solve_nested(inst)
        assert a.active_time == b.active_time
        assert a.schedule.assignment == b.schedule.assignment


class TestMultiIntervalEdges:
    def test_single_slot_intervals(self):
        inst = MultiInstance(
            jobs=(
                MultiJob(id=0, processing=2, intervals=(Interval(0, 1), Interval(5, 6))),
            ),
            g=1,
        )
        from repro.multiinterval import wolsey_greedy

        result = wolsey_greedy(inst)
        assert result.active_time == 2
        assert set(result.slots) == {0, 5}

    def test_touching_intervals_allowed(self):
        job = MultiJob(id=0, processing=2, intervals=(Interval(0, 2), Interval(2, 4)))
        assert job.allowed_slots() == [0, 1, 2, 3]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(Exception):
            MultiInstance(
                jobs=(
                    MultiJob(id=0, processing=1, intervals=(Interval(0, 1),)),
                    MultiJob(id=0, processing=1, intervals=(Interval(2, 3),)),
                ),
                g=1,
            )


class TestJobExtremes:
    def test_huge_capacity_value(self):
        inst = Instance.from_triples([(0, 2, 1)], g=10**9)
        assert solve_nested(inst).active_time == 1

    def test_long_processing(self):
        inst = Instance(
            jobs=(Job(id=0, release=0, deadline=200, processing=150),), g=1
        )
        result = solve_nested(inst)
        assert result.active_time == 150
