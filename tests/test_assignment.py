"""Unit tests for the wrap-around slot assignment."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.algorithm import solve_nested
from repro.core.schedule import expand_runs, pairs, runs_from_slots
from repro.corpus.store import iter_corpus
from repro.flow.assignment import schedule_from_node_counts, spread_runs
from repro.flow.feasibility import node_assignment
from repro.instances.generators import deep_chain, random_laminar
from repro.instances.handcrafted import umbrella_groups
from repro.instances.io import FORMAT_VERSION, instance_to_dict, schedule_to_dict
from repro.tree.canonical import canonicalize
from repro.util.errors import SolverError
from repro.verify.reference import reference_slot_assignment
from repro.verify.reference import spread_units as reference_spread_units

CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"


def spread_units(units, slots, capacity):
    """:func:`spread_runs` on the runs of ``slots``, expanded to slot lists."""
    placed = spread_runs(units, list(pairs(runs_from_slots(slots))), capacity)
    return {jid: list(expand_runs(pieces)) for jid, pieces in placed.items()}


class TestSpreadUnits:
    """The wrap-around rule on slot runs, read back per slot."""

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


class TestSpreadRuns:
    def test_pieces_are_sorted_disjoint_runs(self):
        # Open slots 0 1 | 5 6 | 9; job 1 wraps from the last two back to
        # the first two.
        out = spread_runs({0: 3, 1: 4, 2: 2}, [(0, 2), (5, 7), (9, 10)], capacity=2)
        assert out == {0: (0, 2, 5, 6), 1: (0, 2, 6, 7, 9, 10), 2: (5, 7)}

    def test_zero_units_get_no_runs(self):
        assert spread_runs({0: 0, 1: 2}, [(4, 6)], capacity=1) == {0: (), 1: (4, 6)}

    @given(
        units=st.dictionaries(
            st.integers(0, 10), st.integers(0, 7), min_size=1, max_size=8
        ),
        gaps=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 4)), max_size=4),
        g=st.integers(1, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_unit_rule(self, units, gaps, g):
        """Same slots, same errors as the per-unit oracle, on runs split
        by gaps."""
        slots: list[int] = []
        t = 50
        for gap, length in gaps:
            t += gap + 1
            slots.extend(range(t, t + length))
            t += length
        try:
            expected = reference_spread_units(units, slots, g)
        except SolverError as exc:
            with pytest.raises(SolverError, match=str(exc).split(" ")[0]):
                spread_units(units, slots, g)
            return
        got = spread_runs(units, list(pairs(runs_from_slots(slots))), g)
        assert {j: list(expand_runs(p)) for j, p in got.items()} == {
            j: sorted(ts) for j, ts in expected.items()
        }
        for pieces in got.values():
            assert list(pieces) == sorted(pieces)  # sorted, disjoint, non-empty
            assert all(a < b for a, b in pairs(pieces))


class TestScheduleFromNodeCounts:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_pipeline_produces_valid_schedule(self, seed):
        inst = random_laminar(9, 2, horizon=22, seed=seed)
        canon = canonicalize(inst)
        x = [canon.forest.length[i] for i in range(canon.forest.m)]
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
        x = [forest.length[i] for i in range(forest.m)]
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

    def test_huge_volume_in_bounded_memory(self):
        """Slot assignment and validation cost per run, not per unit.

        Three nested jobs with Σp = T = 3·10⁸ and g = 1 fill every slot.
        The solve runs in a subprocess capped at 1 GB of address space and
        never reads ``.assignment``, so listing the units fails fast with
        ``MemoryError``.
        """
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            from repro.core.algorithm import solve_nested
            from repro.instances.jobs import Instance, Job

            p = 10**8
            inst = Instance(
                jobs=(Job(0, 0, p, p), Job(1, 0, 2 * p, p), Job(2, 0, 3 * p, p)), g=1
            )
            result = solve_nested(inst)
            print(result.active_time, result.schedule.is_valid)
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
        assert proc.stdout.strip() == f"{3 * 10**8} True"


class TestOracleAgreement:
    """``solve_nested``'s encoded schedule is byte-identical to the
    per-unit wrap-around rule on the same node counts."""

    @staticmethod
    def _check(inst):
        result = solve_nested(inst)
        assert result.repairs == 0
        canon = result.canonical
        x = result.rounding.x_tilde.astype(int)
        y = node_assignment(canon.instance, canon.forest, canon.job_node, x)
        slots = reference_slot_assignment(inst, canon.forest, x, y)
        expected = {
            "version": FORMAT_VERSION,
            "instance": instance_to_dict(inst),
            "assignment": {str(jid): list(ts) for jid, ts in slots.items()},
        }
        assert json.dumps(schedule_to_dict(result.schedule)) == json.dumps(expected)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_laminar(self, seed):
        self._check(random_laminar(8 + seed, 2 + seed % 3, horizon=30 + 4 * seed, seed=seed))

    @pytest.mark.parametrize("depth", [3, 7, 12])
    def test_deep_chain(self, depth):
        self._check(deep_chain(depth, 2, slots_per_level=3, seed=depth))

    @pytest.mark.parametrize("g,k", [(2, 3), (3, 4), (4, 2)])
    def test_umbrella_groups(self, g, k):
        self._check(umbrella_groups(g, k, umbrella_volume=k))

    def test_laminar_corpus(self):
        checked = 0
        for entry in iter_corpus(CORPUS):
            if entry.key.family == "laminar":
                self._check(entry.instance())
                checked += 1
        assert checked == 150
