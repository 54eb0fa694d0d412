"""The counter layer: delta/merge semantics and exactness under threads."""

from __future__ import annotations

import sys
import threading

import pytest

from repro import obs
from repro.baselines.exact import solve_exact
from repro.baselines.minimal_feasible import minimal_feasible_schedule
from repro.flow.incremental import flow_stats
from repro.instances.generators import random_laminar

THREADS = 6
INSTANCES = [random_laminar(9, 2, seed=s) for s in range(8)]


def _probe_heavy_work() -> None:
    for instance in INSTANCES:
        solve_exact(instance)
        minimal_feasible_schedule(instance)


class TestDeltaAndMerge:
    def test_delta_subtracts_nested_blocks_and_keeps_every_key(self):
        before = {
            "solver": {"solves": 1, "backends": {"highs": {"solves": 1}}},
            "flow": {"probes": 4},
        }
        after = {
            "solver": {
                "solves": 1,
                "backends": {"highs": {"solves": 1}, "simplex": {"solves": 2}},
            },
            "flow": {"probes": 4},
        }
        assert obs.delta(after, before) == {
            "solver": {
                "solves": 0,
                "backends": {"highs": {"solves": 0}, "simplex": {"solves": 2}},
            },
            "flow": {"probes": 0},
        }

    def test_merge_totals_nested_deltas(self):
        part = {"solves": 1, "backends": {"highs": {"solves": 1, "time": 0.5}}}
        total = obs.merge({}, part, part, {"solves": 1, "backends": {}})
        assert total == {
            "solves": 3,
            "backends": {"highs": {"solves": 2, "time": 1.0}},
        }

    def test_add_rejects_undeclared_field(self):
        counters = obs.Counters(probes=0)
        with pytest.raises(KeyError):
            counters.add(probez=1)

    def test_reset_restores_zero(self):
        counters = obs.Counters(probes=0, backends={})
        counters.add(probes=2, backends={"highs": {"solves": 1}})
        counters.reset()
        assert counters.snapshot() == {"probes": 0, "backends": {}}


class TestFlowCountersUnderThreads:
    def test_counts_are_exact_and_snapshots_consistent(self):
        before = flow_stats()
        _probe_heavy_work()
        single = obs.delta(flow_stats(), before)
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
        assert obs.delta(after, before) == {
            key: THREADS * value for key, value in single.items()
        }
        assert torn == []
