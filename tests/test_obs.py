"""The counter layer: merge semantics, scopes and exactness under threads."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.baselines.exact import solve_exact
from repro.baselines.minimal_feasible import minimal_feasible_schedule
from repro.flow.incremental import flow_stats
from repro.instances.generators import random_laminar
from repro.solver import solver_stats

THREADS = 6
INSTANCES = [random_laminar(9, 2, seed=s) for s in range(8)]


def _probe_heavy_work() -> None:
    for instance in INSTANCES:
        solve_exact(instance)
        minimal_feasible_schedule(instance)


class TestDeltaAndMerge:
    def test_merge_totals_nested_deltas(self):
        part = {"solves": 1, "backends": {"highs": {"solves": 1, "time": 0.5}}}
        total = obs.merge({}, part, part, {"solves": 1, "backends": {}})
        assert total == {
            "solves": 3,
            "backends": {"highs": {"solves": 2, "time": 1.0}},
        }

    def test_add_rejects_undeclared_field(self):
        counters = obs.Counters("test-probes", probes=0)
        with pytest.raises(KeyError):
            counters.add(probez=1)

    def test_reset_restores_zero(self):
        counters = obs.Counters("test-backends", probes=0, backends={})
        counters.add(probes=2, backends={"highs": {"solves": 1}})
        counters.reset()
        assert counters.snapshot() == {"probes": 0, "backends": {}}


class TestScope:
    def test_nested_scopes_both_receive_the_counts(self):
        counters = obs.Counters("test-scoped", probes=0, backends={})
        with obs.scope() as outer:
            counters.add(probes=1)
            with obs.scope() as inner:
                counters.add(probes=2, backends={"highs": 1})
            counters.add(backends={"highs": 4})
        counters.add(probes=8)  # after both scopes closed
        assert inner["test-scoped"] == {"probes": 2, "backends": {"highs": 1}}
        assert outer["test-scoped"] == {"probes": 3, "backends": {"highs": 5}}
        assert counters.snapshot()["probes"] == 11

    def test_another_threads_work_is_not_seen(self):
        with obs.scope() as counted:
            worker = threading.Thread(target=_probe_heavy_work)
            worker.start()
            worker.join(timeout=120)
        assert not worker.is_alive()
        assert counted["flow"] == {key: 0 for key in flow_stats()}

    def test_blocks_hold_every_declared_field_zeros_included(self):
        obs.Counters("test-zeros", probes=0, wall=0.0, backends={})
        with obs.scope() as counted:
            pass
        assert counted["test-zeros"] == {"probes": 0, "wall": 0.0, "backends": {}}
        with obs.scope() as counted:
            solve_exact(INSTANCES[0])
        assert set(counted["flow"]) == set(flow_stats())
        assert set(counted["solver"]) == set(solver_stats())
        assert counted["solver"]["solves"] == 0
        assert counted["flow"]["probes"] > 0

    def test_a_name_declares_one_set_of_fields(self):
        obs.Counters("test-declared", probes=0)
        obs.Counters("test-declared", probes=0)  # a second group, same fields
        with pytest.raises(ValueError):
            obs.Counters("test-declared", probez=0)

    def test_windows_keep_the_most_recent_observations(self):
        counters = obs.Counters("test-window", seen=obs.Window(3))
        with obs.scope() as counted:
            for x in range(5):
                counters.add(seen={"a": x})
        assert counters.snapshot() == {"seen": {"a": [2, 3, 4]}}
        assert counted["test-window"] == {"seen": {"a": [2, 3, 4]}}


class TestFlowCountersUnderThreads:
    def test_counts_are_exact_and_snapshots_consistent(self):
        with obs.scope() as counted:
            _probe_heavy_work()
        single = counted["flow"]
        assert single["probes"] > 0 and single["units_augmented"] > 0

        torn: list[dict] = []
        done = threading.Event()

        def sample() -> None:
            while not done.is_set():
                snap = flow_stats()
                if snap["rebuilds_avoided"] > snap["probes"]:
                    torn.append(snap)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            before = flow_stats()
            workers = [
                threading.Thread(target=_probe_heavy_work)
                for _ in range(THREADS)
            ]
            sampler = threading.Thread(target=sample)
            sampler.start()
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120)
            done.set()
            sampler.join(timeout=10)
            after = flow_stats()
        finally:
            sys.setswitchinterval(previous)
        assert not any(w.is_alive() for w in workers)
        assert not sampler.is_alive()
        assert {key: after[key] - before[key] for key in after} == {
            key: THREADS * value for key, value in single.items()
        }
        assert torn == []
