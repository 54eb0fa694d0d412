"""Unit tests for the wrap-around slot assignment."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.flow.assignment import schedule_from_node_counts, spread_units
from repro.flow.feasibility import node_assignment
from repro.instances.generators import random_laminar
from repro.tree.canonical import canonicalize
from repro.util.errors import SolverError


class TestSpreadUnits:
    def test_single_job_single_slot(self):
        out = spread_units({0: 1}, [5], capacity=1)
        assert out == {0: [5]}

    def test_no_units(self):
        assert spread_units({0: 0}, [], capacity=1) == {0: []}

    def test_job_never_repeats_a_slot(self):
        out = spread_units({0: 3, 1: 3}, [10, 11, 12], capacity=2)
        for slots in out.values():
            assert len(set(slots)) == len(slots)

    def test_capacity_respected(self):
        out = spread_units({0: 2, 1: 2, 2: 2}, [0, 1, 2], capacity=2)
        load: dict[int, int] = {}
        for slots in out.values():
            for t in slots:
                load[t] = load.get(t, 0) + 1
        assert max(load.values()) <= 2

    def test_overload_rejected(self):
        with pytest.raises(SolverError):
            spread_units({0: 2, 1: 2}, [0], capacity=1)

    def test_job_longer_than_slots_rejected(self):
        with pytest.raises(SolverError):
            spread_units({0: 3}, [0, 1], capacity=5)

    def test_units_without_slots_rejected(self):
        with pytest.raises(SolverError):
            spread_units({0: 1}, [], capacity=1)

    @given(
        units=st.dictionaries(
            st.integers(0, 10), st.integers(0, 5), min_size=1, max_size=8
        ),
        x=st.integers(1, 6),
        g=st.integers(1, 5),
    )
    @settings(max_examples=120, deadline=None)
    def test_wraparound_always_valid_when_preconditions_hold(self, units, x, g):
        slots = list(range(100, 100 + x))
        total = sum(units.values())
        if total > g * x or any(u > x for u in units.values()):
            with pytest.raises(SolverError):
                spread_units(units, slots, g)
            return
        out = spread_units(units, slots, g)
        load: dict[int, int] = {}
        for jid, assigned in out.items():
            assert len(assigned) == units[jid]
            assert len(set(assigned)) == len(assigned)
            for t in assigned:
                assert t in slots
                load[t] = load.get(t, 0) + 1
        if load:
            assert max(load.values()) <= g


class TestScheduleFromNodeCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_pipeline_produces_valid_schedule(self, seed):
        inst = random_laminar(9, 2, horizon=22, seed=seed)
        canon = canonicalize(inst)
        x = [canon.forest.length(i) for i in range(canon.forest.m)]
        y = node_assignment(canon.instance, canon.forest, canon.job_node, x)
        assert y is not None
        sched = schedule_from_node_counts(
            canon.instance, canon.forest, canon.job_node, x, y
        )
        assert sched.is_valid

    def test_slots_come_from_exclusive_regions(self):
        inst = random_laminar(7, 3, horizon=18, seed=12)
        canon = canonicalize(inst)
        forest = canon.forest
        x = [forest.length(i) for i in range(forest.m)]
        y = node_assignment(canon.instance, forest, canon.job_node, x)
        sched = schedule_from_node_counts(
            canon.instance, forest, canon.job_node, x, y
        )
        allowed: set[int] = set()
        for i in range(forest.m):
            allowed.update(forest.exclusive_slots(i)[: x[i]])
        used = {t for ts in sched.assignment.values() for t in ts}
        assert used <= allowed

    def test_huge_exclusive_region_in_bounded_memory(self):
        """Only the x(i) open slots of a node are listed, not its region.

        Node ``[0, 10⁹)`` opens 3 of its ~10⁹ exclusive slots; the solve
        runs in a subprocess capped at 1 GB of address space, so listing
        the whole region fails fast with ``MemoryError``.
        """
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from repro.core.algorithm import solve_nested
            from repro.instances.jobs import Instance, Job

            inst = Instance(
                jobs=(Job(0, 0, 10**9, 3), Job(1, 10, 20, 10)), g=1
            )
            result = solve_nested(inst)
            print(result.active_time, sorted(result.schedule.active_slots))
            """
        )
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stdout.strip() == f"13 {[0, 1, 2, *range(10, 20)]}"
