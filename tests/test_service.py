"""Tests for the scheduling service (HTTP layer, client, degradation).

One in-process service (``workers=1``) is booted per module on an
ephemeral port — the deterministic path: every solve runs in the server
process, so served answers must be *bit-identical* with direct pipeline
calls.  A separate fixture covers the process-pool path.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro import obs
from repro.analysis.parallel import WorkerPool
from repro.core.algorithm import solve_nested
from repro.instances.generators import random_general, random_laminar
from repro.instances.io import instance_to_dict, schedule_from_dict, schedule_to_dict
from repro.instances.jobs import Instance, Job
from repro.instances.transforms import split_independent
from repro.service import (
    NODES_PER_MS,
    ClientError,
    SchedulingService,
    ServiceClient,
    ServiceError,
    node_budget_for,
    start_service,
)
from repro.service.metrics import RequestStats, quantile, render_prometheus
from repro.verify.fuzz import FuzzConfig, fuzz_report_dict, run_fuzz


@pytest.fixture(scope="module")
def service():
    server, thread = start_service(workers=1, split_jobs=16)
    client = ServiceClient(f"http://127.0.0.1:{server.port}", timeout=120.0)
    client.wait_healthy(timeout=30)
    yield client, server
    server.shutdown()
    server.service.shutdown()
    thread.join(timeout=10)


@pytest.fixture(scope="module")
def client(service):
    return service[0]


def two_component_instance() -> Instance:
    """Two time-disjoint laminar blocks → split_independent finds 2."""
    a = random_laminar(9, 3, seed=1)
    shift = a.horizon.end + 3
    b_jobs = tuple(
        Job(
            id=j.id + 100,
            release=j.release + shift,
            deadline=j.deadline + shift,
            processing=j.processing,
        )
        for j in a.jobs
    )
    return Instance(jobs=a.jobs + b_jobs, g=3, name="two-part")


def exact_hard_instance() -> Instance:
    """Trips a ~2000-node exact budget (seed found empirically)."""
    return random_general(18, 2, seed=7)


class TestSolveEndpoint:
    def test_round_trips_bit_identically_with_direct_solve(self, client):
        instance = random_laminar(10, 3, seed=5)
        served = client.solve(instance)
        direct = solve_nested(instance)
        assert served["active_time"] == direct.active_time
        assert served["schedule"] == schedule_to_dict(direct.schedule)
        assert served["degraded"] is False
        assert served["parts"] == 1
        assert served["lp_value"] == pytest.approx(direct.lp_value)

    def test_schedule_document_is_loadable_and_valid(self, client):
        instance = random_laminar(8, 2, seed=11)
        served = client.solve(instance)
        schedule = schedule_from_dict(served["schedule"])
        assert schedule.is_valid
        assert schedule.active_time == served["active_time"]

    def test_split_fans_out_and_merges(self, client):
        instance = two_component_instance()
        parts = split_independent(instance)
        assert len(parts) == 2  # the fixture's premise
        served = client.solve(instance)  # n=18 >= split_jobs=16
        assert served["parts"] == 2
        assert served["active_time"] == sum(
            solve_nested(p).active_time for p in parts
        )
        schedule = schedule_from_dict(served["schedule"])
        assert schedule.is_valid
        assert sorted(schedule.assignment) == sorted(
            j.id for j in instance.jobs
        )

    def test_split_false_forces_single_part(self, client):
        served = client.solve(two_component_instance(), split=False)
        assert served["parts"] == 1

    def test_greedy_and_exact_algorithms(self, client):
        instance = random_laminar(6, 2, seed=3)
        greedy = client.solve(instance, algorithm="greedy")
        exact = client.solve(instance, algorithm="exact")
        assert exact["active_time"] <= greedy["active_time"]
        assert exact["degraded"] is False

    def test_unknown_algorithm_is_400(self, client):
        with pytest.raises(ClientError) as exc:
            client.solve(random_laminar(4, 2, seed=0), algorithm="magic")
        assert exc.value.status == 400

    def test_non_laminar_nested_is_422(self, client):
        instance = random_general(8, 2, seed=3)
        if instance.is_laminar:  # pragma: no cover - seed guard
            pytest.skip("seed produced a laminar instance")
        with pytest.raises(ClientError) as exc:
            client.solve(instance)
        assert exc.value.status == 422


class TestPolicySolve:
    """``/solve`` with a registered policy (body field or query param)."""

    def test_policy_in_body(self, client):
        instance = random_laminar(6, 2, seed=3)
        served = client.solve(instance, policy="greedy")
        assert served["policy"] == "greedy"
        assert served["policy_kind"] == "offline"
        assert served["parts"] == 1
        schedule = schedule_from_dict(served["schedule"])
        assert schedule.is_valid

    def test_policy_as_query_param(self, client):
        instance = random_laminar(6, 2, seed=3)
        body = {"instance": instance_to_dict(instance)}
        served = client._post_json("/solve?policy=lazy", body)
        assert served["policy"] == "lazy"
        assert served["policy_kind"] == "online"
        assert schedule_from_dict(served["schedule"]).is_valid

    def test_body_wins_over_query_param(self, client):
        instance = random_laminar(6, 2, seed=3)
        body = {"instance": instance_to_dict(instance), "policy": "greedy"}
        served = client._post_json("/solve?policy=lazy", body)
        assert served["policy"] == "greedy"

    def test_policy_matches_direct_run(self, client):
        from repro.policies import run_policy

        instance = random_laminar(6, 2, seed=3)
        served = client.solve(instance, policy="eager")
        direct = run_policy("eager", instance)
        assert served["active_time"] == direct.active_time
        assert served["stats"]["activations"] == direct.stats["activations"]

    def test_unknown_policy_is_404_with_known_list(self, client):
        """Regression: unknown names used to surface as a raw KeyError
        500; the contract is 404 carrying the registered-policy list."""
        with pytest.raises(ClientError) as exc:
            client.solve(random_laminar(4, 2, seed=0), policy="magic")
        assert exc.value.status == 404
        assert "known policies" in str(exc.value)
        assert "lazy" in str(exc.value)

    def test_bool_policy_is_422(self, client):
        # Mirrors the boolean-field contract on the numeric options.
        with pytest.raises(ClientError) as exc:
            client.solve(random_laminar(4, 2, seed=0), policy=True)
        assert exc.value.status == 422

    def test_policy_plus_algorithm_is_400(self, client):
        with pytest.raises(ClientError) as exc:
            client.solve(
                random_laminar(4, 2, seed=0),
                policy="lazy",
                algorithm="nested",
            )
        assert exc.value.status == 400

    def test_online_infeasible_trace_is_422(self, client):
        # The documented deferral trap: offline-feasible, online-fatal.
        trap = Instance.from_triples([(0, 10, 1), (8, 10, 2)], g=1)
        with pytest.raises(ClientError) as exc:
            client.solve(trap, policy="lazy")
        assert exc.value.status == 422

    def test_unsupported_instance_is_422(self, client):
        instance = random_general(8, 2, seed=3)
        if instance.is_laminar:  # pragma: no cover - seed guard
            pytest.skip("seed produced a laminar instance")
        with pytest.raises(ClientError) as exc:
            client.solve(instance, policy="nested")
        assert exc.value.status == 422
        assert "does not support" in str(exc.value)


class TestDeadlineDegradation:
    def test_tight_deadline_returns_incumbent_not_hang(self, client):
        """The satellite contract: a slow adversarial instance under a
        tight ``deadline_ms`` answers with the BudgetExceeded incumbent
        flagged ``degraded`` — within the client timeout, never a hung
        connection (the module client caps waiting at 120s; an unbudgeted
        exact solve of this instance runs far longer)."""
        served = client.solve(
            exact_hard_instance(),
            algorithm="exact",
            deadline_ms=1,
            split=False,
        )
        assert served["degraded"] is True
        assert "degraded_reason" in served
        schedule = schedule_from_dict(served["schedule"])
        assert schedule.is_valid  # incumbent is feasible, just unproven
        assert served["active_time"] == schedule.active_time

    def test_degradation_surfaces_in_metrics(self, client):
        client.solve(
            exact_hard_instance(),
            algorithm="exact",
            deadline_ms=1,
            split=False,
        )
        assert 'repro_degraded_total{endpoint="solve"}' in client.metrics()

    def test_explicit_node_budget_wins_over_deadline(self):
        assert node_budget_for(100.0, 7) == 7
        assert node_budget_for(2.0, None) == 2 * NODES_PER_MS
        assert node_budget_for(None, None) is None
        assert node_budget_for(0.0001, None) == 1  # floor at one node

    def test_bad_deadline_is_400(self, client):
        with pytest.raises(ClientError) as exc:
            client.solve(random_laminar(4, 2, seed=0), deadline_ms=-5)
        assert exc.value.status == 400


class TestVerifyAndFuzzEndpoints:
    def test_verify_clean_instance(self, client):
        report = client.verify(random_laminar(8, 3, seed=5))
        assert report["ok"] is True
        assert report["status"] == "ok"
        assert report["violations"] == []
        assert report["active_time"] is not None

    def test_verify_infeasible_is_skipped_not_error(self, client):
        # Two unit jobs fighting over one slot with g=1: each job is
        # individually well-formed, but no schedule exists.
        doc = {
            "g": 1,
            "name": "contended",
            "jobs": [
                {"id": 0, "r": 0, "d": 1, "p": 1},
                {"id": 1, "r": 0, "d": 1, "p": 1},
            ],
        }
        report = client.verify(doc)
        assert report["status"] == "infeasible"

    def test_fuzz_campaign_matches_unsharded_cli_run(self, client):
        served = client.fuzz(n_instances=15, seed=2022, max_jobs=6)
        direct = fuzz_report_dict(
            run_fuzz(
                FuzzConfig(
                    n_instances=15, seed=2022, max_jobs=6, shrink=False
                )
            )
        )
        assert served["ok"] is True
        assert served["checked"] == direct["checked"]
        assert served["skipped_infeasible"] == direct["skipped_infeasible"]
        assert served["n_failures"] == direct["n_failures"]

    def test_fuzz_cap_is_enforced(self, client):
        with pytest.raises(ClientError) as exc:
            client.fuzz(n_instances=1_000_000)
        assert exc.value.status == 400


class TestHttpContract:
    def test_healthz(self, client):
        doc = client.healthz()
        assert doc["ok"] is True
        assert doc["workers"] == 1
        assert doc["uptime_s"] >= 0

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ClientError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404

    def test_get_on_post_route_is_405(self, client):
        with pytest.raises(ClientError) as exc:
            client._request("GET", "/solve")
        assert exc.value.status == 405

    def test_post_on_get_route_is_405(self, client):
        with pytest.raises(ClientError) as exc:
            client._post_json("/metrics", {})
        assert exc.value.status == 405

    def test_malformed_json_is_400(self, client):
        req = urllib.request.Request(
            f"{client.base_url}/solve",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        assert exc.value.code == 400

    def test_missing_instance_is_400(self, client):
        with pytest.raises(ClientError) as exc:
            client._post_json("/solve", {"algorithm": "nested"})
        assert exc.value.status == 400

    def test_oversized_body_is_413(self):
        server, thread = start_service(workers=1, max_body=512)
        try:
            small = ServiceClient(
                f"http://127.0.0.1:{server.port}", timeout=30
            )
            small.wait_healthy(timeout=30)
            doc = instance_to_dict(random_laminar(40, 3, seed=1))
            assert len(json.dumps({"instance": doc})) > 512
            with pytest.raises(ClientError) as exc:
                small.solve(doc)
            assert exc.value.status == 413
        finally:
            server.shutdown()
            server.service.shutdown()
            thread.join(timeout=10)

    def test_keep_alive_solves_do_not_stall(self, client, service):
        # Headers and body are two small writes; with Nagle's algorithm
        # on, every response after the first on one connection waited
        # for the client's delayed ACK (~40 ms).
        _, server = service
        instance = Instance(
            jobs=(Job(id=0, release=0, deadline=4, processing=2),
                  Job(id=1, release=1, deadline=3, processing=1)),
            g=2,
            name="keep-alive",
        )
        body = json.dumps({"instance": instance_to_dict(instance)})
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        elapsed = []
        try:
            for _ in range(10):
                t0 = time.perf_counter()
                conn.request(
                    "POST", "/solve", body, {"Content-Type": "application/json"}
                )
                response = conn.getresponse()
                response.read()
                elapsed.append(time.perf_counter() - t0)
                assert response.status == 200
        finally:
            conn.close()
        assert statistics.median(elapsed) < 0.020

    def test_errors_are_counted_in_metrics(self, client):
        with pytest.raises(ClientError):
            client._request("GET", "/definitely-not-a-route")
        metrics = client.metrics()
        assert "repro_request_errors_total" in metrics
        assert 'class="4xx"' in metrics


class TestBooleanFieldRejection:
    """``bool`` is an ``int`` subclass in Python, so ``"deadline_ms":
    true`` used to sail through the numeric guards and run with a 1 ms
    deadline.  Boolean-typed numerics are a 422 (typed client error)."""

    @staticmethod
    def _body(**extra):
        body = {"instance": instance_to_dict(random_laminar(4, 2, seed=0))}
        body.update(extra)
        return body

    @pytest.mark.parametrize("field", ["deadline_ms", "node_budget"])
    @pytest.mark.parametrize("value", [True, False])
    def test_solve_rejects_bool_numerics(self, client, field, value):
        with pytest.raises(ClientError) as exc:
            client._post_json("/solve", self._body(**{field: value}))
        assert exc.value.status == 422

    @pytest.mark.parametrize(
        "field", ["n_instances", "seed", "max_jobs", "exact_max_jobs"]
    )
    def test_fuzz_rejects_bool_numerics(self, client, field):
        with pytest.raises(ClientError) as exc:
            client._post_json("/fuzz", {field: True})
        assert exc.value.status == 422

    def test_verify_rejects_bool_exact_max_jobs(self, client):
        with pytest.raises(ClientError) as exc:
            client._post_json(
                "/verify", self._body(exact_max_jobs=False)
            )
        assert exc.value.status == 422

    def test_split_must_be_boolean(self, client):
        with pytest.raises(ClientError) as exc:
            client._post_json("/solve", self._body(split="yes"))
        assert exc.value.status == 400

    def test_node_budget_must_be_positive_int(self, client):
        for bad in (2.5, 0, -3):
            with pytest.raises(ClientError) as exc:
                client._post_json("/solve", self._body(node_budget=bad))
            assert exc.value.status == 400

    def test_bool_deadline_does_not_mask_range_check(self, client):
        # deadline_ms=-5 keeps its historical 400 (range error).
        with pytest.raises(ClientError) as exc:
            client._post_json("/solve", self._body(deadline_ms=-5))
        assert exc.value.status == 400


class TestMetricsEndpoint:
    def test_exposes_request_solver_and_flow_counters(self, client):
        client.solve(random_laminar(6, 2, seed=9))
        metrics = client.metrics()
        assert 'repro_requests_total{endpoint="solve"}' in metrics
        assert "repro_request_latency_seconds" in metrics
        assert 'quantile="0.5"' in metrics and 'quantile="0.95"' in metrics
        assert 'repro_solver_stats{counter="solves"}' in metrics
        assert 'repro_flow_stats{counter="probes"}' in metrics
        assert "repro_queue_depth" in metrics
        assert "repro_service_uptime_seconds" in metrics

    def test_counters_exact_under_concurrent_solves(self, client):
        """N concurrent exact solves add exactly N × one solve's counters."""
        path = "/solve?algorithm=exact"
        body = {"instance": instance_to_dict(random_laminar(9, 2, seed=3))}

        def scrape() -> dict[str, int]:
            # Timing counters (wall_time, backend_time) cannot repeat.
            return {
                key: int(value)
                for key, _, value in (
                    line.rpartition(" ")
                    for line in client.metrics().splitlines()
                    if line.startswith(
                        ("repro_solver_stats{", "repro_flow_stats{")
                    )
                    and "time" not in line
                )
            }

        start = scrape()
        single = client._post_json(path, body)
        mid = scrape()
        one = obs.delta(mid, start)
        assert one['repro_flow_stats{counter="probes"}'] > 0
        n = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(n) as pool:
                answers = list(
                    pool.map(lambda _: client._post_json(path, body), range(n))
                )
        finally:
            sys.setswitchinterval(previous)
        assert [a["active_time"] for a in answers] == [
            single["active_time"]
        ] * n
        assert obs.delta(scrape(), mid) == {
            key: n * value for key, value in one.items()
        }

    def test_counters_are_visible_immediately_after_response(self, service):
        client, server = service
        before = server.service.request_stats.snapshot()["requests"].get(
            "solve", 0
        )
        client.solve(random_laminar(5, 2, seed=2))
        after = server.service.request_stats.snapshot()["requests"].get(
            "solve", 0
        )
        assert after == before + 1  # recorded before the response body

    def test_quantile_nearest_rank(self):
        values = [float(v) for v in range(1, 101)]
        assert quantile(values, 0.5) == 50.0
        assert quantile(values, 0.95) == 95.0
        assert quantile([3.0], 0.99) == 3.0

    def test_quantile_half_rank_rounds_up(self):
        # Regression: the old round()-based rank used banker's rounding,
        # which pulled every quantile landing exactly on a .5 rank
        # boundary DOWN one observation.  Nearest-rank is ⌈q·n⌉, so
        # these must hit the higher of the two straddled values.
        assert quantile([float(v) for v in range(1, 31)], 0.95) == 29.0
        assert quantile([float(v) for v in range(1, 11)], 0.25) == 3.0
        assert quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.5) == 3.0
        # Non-boundary ranks are unchanged by the fix.
        assert quantile([float(v) for v in range(1, 5)], 0.5) == 2.0
        assert quantile([float(v) for v in range(1, 31)], 0.99) == 30.0

    def test_render_prometheus_shape(self):
        stats = RequestStats()
        stats.record("solve", 200, 0.05, degraded=True, parts=3)
        stats.record("solve", 504, 0.01)
        # Two pooled deltas folded the way the server folds them.
        part = {
            "solves": 1,
            "backends": {"highs": {"solves": 1, "errors": 0, "time": 0.05}},
        }
        text = render_prometheus(
            stats.snapshot(),
            obs.merge({}, part, part),
            {"probes": 5},
            uptime_s=1.5,
            workers=4,
        )
        assert 'repro_requests_total{endpoint="solve"} 2' in text
        assert 'repro_degraded_total{endpoint="solve"} 1' in text
        assert 'repro_fanout_parts_total{endpoint="solve"} 3' in text
        assert (
            'repro_request_errors_total{endpoint="solve",class="5xx"} 1'
            in text
        )
        assert (
            'repro_solver_stats{counter="backend_solves",backend="highs"} 2'
            in text
        )
        assert text.endswith("\n")


class TestWorkerPoolPath:
    """The pooled (multi-process) deployment shape."""

    @pytest.fixture(scope="class")
    def pooled(self):
        server, thread = start_service(workers=2, split_jobs=16)
        client = ServiceClient(
            f"http://127.0.0.1:{server.port}", timeout=120.0
        )
        client.wait_healthy(timeout=30)
        yield client, server
        server.shutdown()
        server.service.shutdown()
        thread.join(timeout=10)

    def test_pooled_solve_matches_in_process_answer(self, pooled):
        client, _ = pooled
        instance = random_laminar(10, 3, seed=5)
        served = client.solve(instance)
        assert served["schedule"] == schedule_to_dict(
            solve_nested(instance).schedule
        )

    def test_pooled_split_solve(self, pooled):
        client, _ = pooled
        instance = two_component_instance()
        served = client.solve(instance)
        assert served["parts"] == 2
        assert schedule_from_dict(served["schedule"]).is_valid

    def test_worker_stats_fold_into_metrics(self, pooled):
        client, server = pooled
        client.solve(random_laminar(10, 3, seed=6))
        # The flow probes ran in worker processes; without the fold the
        # server-local counters would show nothing for this request.
        metrics = client.metrics()
        line = next(
            ln
            for ln in metrics.splitlines()
            if ln.startswith('repro_flow_stats{counter="probes"}')
        )
        assert int(line.rsplit(" ", 1)[1]) > 0

    def test_pooled_deadline_degradation(self, pooled):
        client, _ = pooled
        served = client.solve(
            exact_hard_instance(),
            algorithm="exact",
            deadline_ms=1,
            split=False,
        )
        assert served["degraded"] is True


def _child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, whichever of its threads forked them."""
    return [
        int(child)
        for task in Path(f"/proc/{pid}/task").iterdir()
        for child in (task / "children").read_text().split()
    ]


def _pid_alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(
    not Path("/proc/self/task").exists(), reason="needs Linux /proc"
)
class TestServeProcess:
    """The foreground ``active-time serve`` process and its pool."""

    def test_sigterm_stops_pool_workers(self):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "2"],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        workers: list[int] = []
        try:
            port = int(re.search(r":(\d+) ", proc.stdout.readline()).group(1))
            client = ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0)
            client.wait_healthy(timeout=30)
            client.solve(random_laminar(6, 2, seed=1))  # starts the pool
            workers = _child_pids(proc.pid)
            assert workers, "the pooled solve started no worker process"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and any(map(_pid_alive, workers)):
                time.sleep(0.05)
            assert not [pid for pid in workers if _pid_alive(pid)]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            for pid in workers:
                if _pid_alive(pid):
                    os.kill(pid, signal.SIGKILL)


class TestWorkerPool:
    def test_in_process_map(self):
        pool = WorkerPool(1)
        assert pool.in_process
        out = pool.map("repro.service.workers:solve_part", [])
        assert out == []
        pool.shutdown()

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_pooled_map_round_trips(self):
        pool = WorkerPool(2)
        try:
            instance = random_laminar(5, 2, seed=4)
            payloads = [
                (instance_to_dict(instance), {"algorithm": "greedy"})
            ] * 3
            results = pool.map("repro.service.workers:solve_part", payloads)
            assert len(results) == 3
            assert all(
                r["active_time"] == results[0]["active_time"] for r in results
            )
            assert all("solver" in r and "flow" in r for r in results)
        finally:
            pool.shutdown()

    def test_bad_worker_spec_fails_eagerly(self):
        pool = WorkerPool(1)
        with pytest.raises(ValueError):
            pool.map("no-colon-here", [1])


class TestServiceDirect:
    """SchedulingService without HTTP — the embeddable surface."""

    def test_solve_and_metrics_text(self):
        service = SchedulingService(workers=1)
        instance = random_laminar(6, 2, seed=1)
        response = service.solve({"instance": instance_to_dict(instance)})
        assert response["active_time"] == solve_nested(instance).active_time
        text = service.metrics_text()
        assert "repro_solver_stats" in text
        service.shutdown()

    def test_healthz_counts_requests(self):
        service = SchedulingService(workers=1)
        doc = service.healthz()
        assert doc["ok"] and doc["requests_total"] == 0
        service.shutdown()

    def test_fuzz_max_jobs_is_capped_before_any_work(self, monkeypatch):
        service = SchedulingService(workers=1)

        def no_work(*args, **kwargs):
            raise AssertionError("an over-cap /fuzz request reached the workers")

        monkeypatch.setattr(service, "_map", no_work)
        monkeypatch.setattr("repro.verify.fuzz.run_fuzz", no_work)
        try:
            with pytest.raises(ServiceError) as exc:
                service.fuzz({"n_instances": 3, "max_jobs": 10**6})
            assert exc.value.status == 400
            assert "max_jobs" in str(exc.value)
        finally:
            service.shutdown()
