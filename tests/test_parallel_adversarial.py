"""Tests for the parallel battery runner and the adversarial search."""

import pytest

from repro.analysis.adversarial import (
    AdversarialHit,
    search_adversarial,
    seeded_recipe,
)
from repro.analysis.parallel import WorkerPool, run_battery, stream_battery
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
    """The pooled, chunked transport must be indistinguishable from the
    in-process battery (results, order, errors)."""

    def _battery(self, n=200):
        return [
            random_laminar(5, 2, horizon=12, seed=s) for s in range(n)
        ]

    def test_chunked_matches_default_on_200_instances(self):
        instances = self._battery(200)
        default = run_battery(instances, "profile", max_workers=1)
        chunked = run_battery(instances, "profile", max_workers=2)
        streamed = list(
            stream_battery(iter(instances), "profile", max_workers=2)
        )
        assert chunked == default
        assert streamed == default

    def test_stream_consumes_lazily(self):
        # A generator input must work and preserve input order.
        def gen():
            for s in range(40):
                yield random_laminar(5, 2, horizon=12, seed=s)

        streamed = list(stream_battery(gen(), "profile", max_workers=2))
        assert streamed == run_battery(self._battery(40), "profile",
                                       max_workers=1)

    def test_chunked_error_carries_context(self):
        instances = self._battery(12)
        with pytest.raises(ValueError, match="unknown task"):
            list(stream_battery(instances, "nope"))
        with pytest.raises(ValueError, match="unknown task"):
            list(stream_battery(instances, "nope", max_workers=1))

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
            list(stream_battery(instances, "profile", max_workers=1))
        assert exc.value.index == 5
        assert exc.value.task == "profile"

    def test_chunked_solve_nested_matches_default(self, monkeypatch):
        """A sized 6-instance battery on 2 workers is cut into ≥ 2
        chunks and equals the in-process battery."""
        import repro.analysis.parallel as par

        instances = [random_laminar(6, 2, horizon=14, seed=s)
                     for s in range(6)]
        default = run_battery(instances, "solve_nested", max_workers=1)
        sizes = []
        real = par._chunked

        def recording(stream, size):
            for chunk in real(stream, size):
                sizes.append(len(chunk))
                yield chunk

        monkeypatch.setattr(par, "_chunked", recording)
        chunked = run_battery(instances, "solve_nested", max_workers=2)
        assert chunked == default
        assert len(sizes) >= 2 and sum(sizes) == 6

    def test_chunk_size_follows_the_input(self):
        from repro.analysis.parallel import CHUNK_INSTANCES, _chunk_size

        assert _chunk_size([None] * 6, 2) == 1
        assert _chunk_size([None] * 100, 2) == 13
        assert _chunk_size([None] * 100_000, 2) == CHUNK_INSTANCES
        assert _chunk_size(iter([None] * 6), 2) == CHUNK_INSTANCES


class TestWorkerPoolWindow:
    """``WorkerPool.imap`` pulls a lazy input a bounded window ahead."""

    def test_generator_pulled_at_most_two_widths_ahead(self):
        pulled = []

        def payloads():
            for k in range(20):
                pulled.append(k)
                yield float(k * k)

        with WorkerPool(2) as pool:
            results = pool.imap("math:sqrt", payloads())
            for consumed, value in enumerate(results, start=1):
                assert value == consumed - 1
                assert len(pulled) - consumed < 2 * pool.width
        assert len(pulled) == 20

    def test_stream_battery_pulls_a_bounded_window_of_chunks(self):
        # A stream is cut into chunks of 64; 8 of them pass 2 workers.
        pulled = []

        def gen():
            for s in range(8 * 64):
                pulled.append(s)
                yield random_laminar(3, 2, horizon=8, seed=s)

        for consumed, _ in enumerate(
            stream_battery(gen(), "profile", max_workers=2), start=1
        ):
            chunks_ahead = -(-len(pulled) // 64) - -(-consumed // 64)
            assert chunks_ahead <= 2 * 2

    def test_in_process_imap_is_lazy(self):
        pulled = []

        def payloads():
            for k in range(5):
                pulled.append(k)
                yield float(k)

        results = WorkerPool(1).imap("math:sqrt", payloads())
        assert pulled == []
        assert next(results) == 0.0 and pulled == [0]

    def test_bad_spec_rejected_before_iterating(self):
        with pytest.raises(ValueError, match="worker spec"):
            WorkerPool(2).imap("no_colon_here", iter([1]))

    def test_with_block_leaves_no_executor(self):
        with WorkerPool(2) as pool:
            assert pool.map("math:sqrt", [4.0, 9.0]) == [2.0, 3.0]
            executor = pool._pool
            assert executor is not None
        assert pool._pool is None
        with pytest.raises(RuntimeError, match="shutdown"):
            executor.submit(abs, -1)


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
