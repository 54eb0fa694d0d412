"""Tests for the parallel battery runner and the adversarial search."""

import pytest

from repro.analysis.adversarial import (
    AdversarialHit,
    search_adversarial,
    seeded_recipe,
)
from repro.analysis.parallel import run_battery, stream_battery
from repro.baselines.minimal_feasible import minimal_feasible_schedule
from repro.instances.generators import laminar_suite, random_laminar
from repro.util.errors import BatteryTaskError


class TestRunBattery:
    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError):
            run_battery([], "nope")

    def test_inprocess_matches_direct_calls(self):
        from repro.core.algorithm import solve_nested

        instances = laminar_suite(seed=13, sizes=(5,))[:3]
        results = run_battery(instances, "solve_nested", max_workers=1)
        for inst, res in zip(instances, results):
            assert res["active_time"] == solve_nested(inst).active_time
            assert res["repairs"] == 0

    def test_process_pool_matches_inprocess(self):
        instances = [random_laminar(6, 2, horizon=14, seed=s) for s in range(4)]
        serial = run_battery(instances, "greedy", max_workers=1)
        parallel = run_battery(instances, "greedy", max_workers=2)
        assert serial == parallel

    def test_exact_task_reports_budget_exhaustion(self):
        instances = [random_laminar(6, 2, horizon=14, seed=1)]
        results = run_battery(instances, "exact", max_workers=1)
        assert results[0]["optimum"] is not None

    def test_gaps_task(self):
        instances = [random_laminar(6, 2, horizon=14, seed=2)]
        res = run_battery(instances, "gaps", max_workers=1)[0]
        assert res["natural_lp"] <= res["strengthened_lp"] + 1e-6


class TestChunkedFanOut:
    """Chunked/streamed transport must be indistinguishable from the
    per-instance default (results, order, errors, stats)."""

    def _battery(self, n=200):
        return [
            random_laminar(5, 2, horizon=12, seed=s) for s in range(n)
        ]

    def test_chunked_matches_default_on_200_instances(self):
        instances = self._battery(200)
        default = run_battery(instances, "profile", max_workers=1)
        chunked = run_battery(
            instances, "profile", chunk_instances=7, max_workers=2
        )
        streamed = list(
            stream_battery(
                instances, "profile", chunk_instances=32, max_workers=2
            )
        )
        assert chunked == default
        assert streamed == default

    def test_stream_consumes_lazily(self):
        # A generator input must work and preserve input order.
        def gen():
            for s in range(40):
                yield random_laminar(5, 2, horizon=12, seed=s)

        streamed = list(
            stream_battery(gen(), "profile", chunk_instances=8,
                           max_workers=2, inflight_chunks=2)
        )
        assert streamed == run_battery(self._battery(40), "profile",
                                       max_workers=1)

    def test_chunked_error_carries_context(self):
        instances = self._battery(12)
        # "gaps" calls strengthened_lp_bound only on laminar instances;
        # force a crash instead via an unknown-task guard on the chunk
        # path, then a real task failure with index context.
        with pytest.raises(ValueError):
            list(stream_battery(instances, "nope"))
        with pytest.raises(ValueError):
            list(stream_battery(instances, "profile", chunk_instances=0))

    def test_chunked_task_failure_names_instance(self, monkeypatch):
        instances = self._battery(9)
        import repro.analysis.parallel as par

        real = par._TASKS["profile"]

        def boom(instance):
            if instance.name.endswith("seed=5)"):
                raise RuntimeError("injected")
            return real(instance)

        monkeypatch.setitem(par._TASKS, "profile", boom)
        with pytest.raises(BatteryTaskError) as exc:
            list(
                stream_battery(
                    instances, "profile", chunk_instances=4, max_workers=1
                )
            )
        assert exc.value.index == 5
        assert exc.value.task == "profile"

    def test_chunked_solve_nested_matches_default(self):
        instances = [random_laminar(6, 2, horizon=14, seed=s)
                     for s in range(6)]
        default = run_battery(instances, "solve_nested", max_workers=1)
        chunked = run_battery(
            instances, "solve_nested", chunk_instances=2, max_workers=2
        )
        for d, c in zip(default, chunked):
            assert d["active_time"] == c["active_time"]


class TestAdversarialSearch:
    def test_finds_the_known_bad_seed(self):
        algo = lambda inst: minimal_feasible_schedule(inst, "given").active_time
        hits = search_adversarial(algo, seeds=[160, 1, 2], keep=3)
        assert hits and hits[0].seed == 160
        assert hits[0].ratio > 1.2

    def test_hits_sorted_by_ratio(self):
        algo = lambda inst: minimal_feasible_schedule(
            inst, "densest_first"
        ).active_time
        hits = search_adversarial(algo, trials=30, keep=5)
        ratios = [h.ratio for h in hits]
        assert ratios == sorted(ratios, reverse=True)

    def test_recipe_reproducible(self):
        assert seeded_recipe(160).jobs == seeded_recipe(160).jobs

    def test_hit_fields_consistent(self):
        algo = lambda inst: minimal_feasible_schedule(inst).active_time
        hits = search_adversarial(algo, trials=10, keep=2)
        for h in hits:
            assert isinstance(h, AdversarialHit)
            assert h.value >= h.optimum
