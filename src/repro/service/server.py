"""The scheduling service: stdlib HTTP/JSON over the repro pipeline.

Endpoints (all JSON in the :mod:`repro.instances.io` format):

* ``POST /solve``   — schedule an instance (``nested``/``greedy``/
  ``kk``/``exact``, or any registered policy via ``"policy"`` in the
  body / ``?policy=`` in the URL); large instances are split into independent
  sub-instances (:func:`repro.instances.transforms.split_independent`)
  and fanned out across the worker pool; ``deadline_ms`` maps onto the
  exact search's node budget and degrades to the incumbent
  (``degraded: true``) instead of timing out.
* ``POST /verify``  — one instance through the differential oracle.
* ``POST /fuzz``    — a bounded fuzz campaign, sharded across the pool
  and merged with the CI shard machinery.
* ``GET /healthz``  — liveness + uptime.
* ``GET /metrics``  — Prometheus text: request counters/latencies,
  solver service counters, flow engine counters.

The server is a :class:`~http.server.ThreadingHTTPServer` (one thread
per connection) in front of a
:class:`~repro.analysis.parallel.WorkerPool` (processes — CPU-bound
solves escape the GIL).  ``workers=1`` runs everything in-process,
which is the deterministic single-core path tests use.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from dataclasses import asdict, replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro import obs
from repro.analysis.parallel import WorkerPool
from repro.baselines.exact import BudgetExceeded
from repro.flow.incremental import flow_stats
from repro.instances.io import instance_from_dict, instance_to_dict
from repro.instances.jobs import Instance
from repro.instances.transforms import split_independent
from repro.service import metrics
from repro.service.workers import SOLVE_ALGORITHMS
from repro.solver import solver_stats
from repro.util.errors import (
    InfeasibleInstanceError,
    InvalidInstanceError,
    ReproError,
)

#: Default request-body cap (bytes); a million-job instance is a few MB,
#: anything bigger than this default is almost certainly a client bug.
DEFAULT_MAX_BODY = 8 * 1024 * 1024

#: Instances at or above this many jobs are split into independent
#: sub-instances and fanned out (clients can force either way with the
#: ``split`` flag).  Below it the request runs as a single unit, so
#: small served solves take the exact code path the CLI takes — the
#: service-smoke job asserts bit-identical answers on that path.
DEFAULT_SPLIT_JOBS = 64

#: Cap on instances a single ``/fuzz`` request may ask for.
MAX_FUZZ_INSTANCES = 2_000

#: Cap on a ``/fuzz`` request's ``max_jobs``, 5x the CLI default of 12.
#: Generation cost grows quadratically in the drawn job count, so an
#: uncapped value lets one small request run for minutes.
MAX_FUZZ_JOBS = 60

#: Cap on a ``/solve`` instance's total volume ``Σ p_j``.  The response
#: lists every scheduled unit, so its size grows with the volume whatever
#: the algorithm; the body cap alone admits ``p = 10⁹`` in a few bytes.
MAX_SOLVE_VOLUME = 1_000_000

#: Cap on the horizon length for the ``/solve`` paths whose cost still
#: grows with it: ``greedy`` and ``kk`` (greedy deactivation binary-searches
#: each coverage segment, so its probes grow as n·log T: about 8k probes
#: and seconds per solve at n = 200, T = 10⁹), ``exact`` (its slot
#: classes list every covered slot) and policy runs (the online
#: simulator steps slot by slot).  ``nested`` works on windows and
#: segments and has no horizon cap.
MAX_SLOT_HORIZON = 100_000


class ServiceError(ReproError):
    """A request the service refuses; carries the HTTP status to send."""

    def __init__(self, message: str, *, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _reject_bool(body: dict[str, Any], *names: str) -> None:
    """Refuse ``true``/``false`` where a number is expected (422).

    ``bool`` is a subclass of ``int`` in Python, so ``True`` sails
    through ``isinstance(x, (int, float))`` guards and coerces to ``1``
    downstream — a request with ``"deadline_ms": true`` would silently
    run with a 1 ms deadline instead of being rejected.  That is a typed
    client error, not a range error, hence 422 rather than 400.
    """
    for name in names:
        if isinstance(body.get(name), bool):
            raise ServiceError(
                f"{name} must be a number, not a boolean", status=422
            )


def _reject_backend(body: dict[str, Any]) -> None:
    """Refuse (400) a ``backend`` field: HiGHS is the only LP solver.

    Checked before the instance is parsed, so no LP is ever built for
    such a request.
    """
    if body.get("backend") is not None:
        raise ServiceError(
            f"backend {body['backend']!r} is not accepted: the LP solver "
            "is not selectable; drop the field"
        )


def _capped(body: dict[str, Any], name: str, default: int, cap: int) -> int:
    """``body[name]`` (or ``default``), refused (400) unless in ``1..cap``."""
    value = body.get(name, default)
    if not isinstance(value, int) or not 1 <= value <= cap:
        raise ServiceError(
            f"{name} must be an integer in 1..{cap} per request "
            f"(got {value!r}); run larger campaigns via the CLI"
        )
    return value


def _require_size(instance: Instance, *, walks_slots: bool) -> None:
    """Refuse (413) a solve whose output or per-slot work is unbounded."""
    volume = instance.total_volume
    if volume > MAX_SOLVE_VOLUME:
        raise ServiceError(
            f"total volume {volume} exceeds the {MAX_SOLVE_VOLUME}-unit "
            "cap per /solve request",
            status=413,
        )
    if walks_slots and instance.n and instance.horizon.length > MAX_SLOT_HORIZON:
        raise ServiceError(
            f"horizon length {instance.horizon.length} exceeds the "
            f"{MAX_SLOT_HORIZON}-slot cap for this algorithm; "
            'algorithm "nested" has no horizon cap',
            status=413,
        )


class SchedulingService:
    """Request execution + shared state behind the HTTP handler.

    Separate from the HTTP plumbing so tests and benchmarks can call
    :meth:`solve`/:meth:`verify`/:meth:`fuzz` directly, and so one
    service instance can sit behind any number of listener sockets.
    """

    def __init__(
        self,
        *,
        workers: int | None = 1,
        max_body: int = DEFAULT_MAX_BODY,
        split_jobs: int = DEFAULT_SPLIT_JOBS,
    ) -> None:
        self.pool = WorkerPool(workers)
        self.max_body = max_body
        self.split_jobs = split_jobs
        self.started = time.monotonic()
        self.request_stats = metrics.request_counters()
        # Counter blocks returned by pool workers, whose own process-wide
        # counters this process cannot read.
        self._pooled = obs.Counters("pooled", solver={}, flow={})

    # -- worker-pool plumbing -----------------------------------------

    def _map(self, worker: str, payloads: list[Any]) -> list[Any]:
        """Fan payloads out and fold worker counter blocks into /metrics.

        In-process maps skip the fold: their solves already hit this
        process's own counters, and folding the returned blocks on top
        would double-count.
        """
        results = self.pool.map(worker, payloads)
        if not self.pool.in_process:
            for result in results:
                self._pooled.add(solver=result["solver"], flow=result["flow"])
        return results

    # -- endpoints -----------------------------------------------------

    def solve(self, body: dict[str, Any]) -> dict[str, Any]:
        """``/solve`` by ``algorithm`` (default ``nested``) or by any
        registered ``policy``: each part runs ``make_policy(name).run``.

        Policy validation mirrors the existing contracts: a bool-typed
        name is a *typed* client error (422, like ``_reject_bool``), an
        unknown name is 404 carrying the known-policy list.  Policy runs
        never split: an online policy's slot decisions are a function of
        the whole arrival trace, so fan-out would change its semantics.
        ``deadline_ms``, ``node_budget`` and ``split`` apply to
        ``algorithm=`` requests only; a policy body carrying one is a
        400 naming it, never a silently dropped field.
        """
        _reject_backend(body)
        instance = _parse_instance(body)
        policy, algorithm = body.get("policy"), None
        if policy is not None:
            if isinstance(policy, bool) or not isinstance(policy, str):
                raise ServiceError(
                    "policy must be a string name, not a boolean or number",
                    status=422,
                )
            if body.get("algorithm") is not None:
                raise ServiceError('pass "algorithm" or "policy", not both')
            for name in ("deadline_ms", "node_budget", "split"):
                if body.get(name) is not None:
                    raise ServiceError(
                        f'{name} applies to "algorithm" requests only, '
                        'not to a "policy" run'
                    )
            from repro.policies import policy_names

            known = policy_names()
            if policy not in known:
                raise ServiceError(
                    f"unknown policy {policy!r}; known policies: "
                    f"{', '.join(known)}",
                    status=404,
                )
            _require_size(instance, walks_slots=True)
            options: dict[str, Any] = {"policy": policy}
            parts = [instance]
        else:
            algorithm = body.get("algorithm", "nested")
            if algorithm not in SOLVE_ALGORITHMS:
                raise ServiceError(
                    f"unknown algorithm {algorithm!r}; "
                    f"pick one of {list(SOLVE_ALGORITHMS)}"
                )
            _require_size(instance, walks_slots=algorithm != "nested")
            _reject_bool(body, "deadline_ms", "node_budget")
            deadline_ms = body.get("deadline_ms")
            if deadline_ms is not None and (
                not isinstance(deadline_ms, (int, float)) or deadline_ms <= 0
            ):
                raise ServiceError("deadline_ms must be a positive number")
            node_budget = body.get("node_budget")
            if node_budget is not None and (
                not isinstance(node_budget, int) or node_budget < 1
            ):
                raise ServiceError("node_budget must be a positive integer")
            split = body.get("split")
            if split is not None and not isinstance(split, bool):
                raise ServiceError("split must be a boolean")
            options = {
                "algorithm": algorithm,
                "deadline_ms": deadline_ms,
                "node_budget": node_budget,
            }
            parts = self._split(instance, split)
        payloads = [(instance_to_dict(p), options) for p in parts]
        try:
            results = self._map("repro.service.workers:solve_part", payloads)
        except BudgetExceeded as exc:
            # No incumbent to degrade to — the one case that 504s.
            raise ServiceError(
                f"deadline exhausted with no incumbent: {exc}", status=504
            ) from exc
        except InfeasibleInstanceError as exc:
            raise ServiceError(str(exc), status=422) from exc

        stats = [r["stats"] for r in results]
        assignment: dict[str, list[int]] = {}
        for result in results:
            assignment.update(result["schedule"]["assignment"])
        if policy is not None:
            response: dict[str, Any] = {
                "policy": policy,
                "policy_kind": results[0]["kind"],
            }
        else:
            response = {"algorithm": algorithm}
        response["active_time"] = sum(r["active_time"] for r in results)
        response["degraded"] = any(s.get("degraded") for s in stats)
        response["parts"] = len(results)
        if policy is not None:
            response["stats"] = stats[0]
        response["schedule"] = {
            "version": results[0]["schedule"]["version"],
            "instance": instance_to_dict(instance),
            "assignment": assignment,
        }
        response["solver"] = obs.merge({}, *(r["solver"] for r in results))
        response["flow"] = obs.merge({}, *(r["flow"] for r in results))
        if algorithm == "nested":
            response["lp_value"] = sum(s.get("lp_value", 0.0) for s in stats)
            response["repairs"] = sum(s.get("repairs", 0) for s in stats)
        if algorithm == "exact":
            response["nodes_explored"] = sum(
                s.get("nodes_explored", 0) for s in stats
            )
            reasons = [s["degraded_reason"] for s in stats if s.get("degraded")]
            if reasons:
                response["degraded_reason"] = "; ".join(reasons)
        return response

    def verify(self, body: dict[str, Any]) -> dict[str, Any]:
        _reject_backend(body)
        _parse_instance(body)  # validate before crossing the pool
        _reject_bool(body, "exact_max_jobs")
        options = {}
        if body.get("exact_max_jobs") is not None:
            options["exact_max_jobs"] = body["exact_max_jobs"]
        return self._map(
            "repro.service.workers:verify_part",
            [(body["instance"], options)],
        )[0]

    def fuzz(self, body: dict[str, Any]) -> dict[str, Any]:
        _reject_bool(
            body, "n_instances", "seed", "max_jobs", "exact_max_jobs"
        )
        n_instances = _capped(body, "n_instances", 100, MAX_FUZZ_INSTANCES)
        max_jobs = _capped(body, "max_jobs", 12, MAX_FUZZ_JOBS)
        shards = max(1, min(self.pool.width, n_instances))
        from repro.verify.fuzz import FuzzConfig, merge_fuzz_reports

        # One validated config (400 on a bad family, seed, ...) before
        # any shard is dispatched; shards differ only in their index.
        try:
            config = FuzzConfig(
                n_instances=n_instances,
                seed=body.get("seed", 0),
                family=body.get("family", "mixed"),
                max_jobs=max_jobs,
                exact_max_jobs=body.get("exact_max_jobs", 8),
                shrink=False,  # shrinking is a CLI affordance
                shard_count=shards,
            )
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        payloads = [
            asdict(replace(config, shard_index=i)) for i in range(shards)
        ]
        results = self._map("repro.service.workers:fuzz_shard", payloads)
        reports = [r["report"] for r in results]
        try:
            merged = (
                merge_fuzz_reports(reports) if shards > 1 else reports[0]
            )
        except ValueError as exc:
            raise ServiceError(str(exc)) from exc
        return {
            "ok": merged["ok"],
            "checked": merged["checked"],
            "skipped_infeasible": merged["skipped_infeasible"],
            "n_failures": merged["n_failures"],
            "failures": merged["failures"][:20],
            "shards": shards,
            "solver": obs.merge({}, *(r["solver"] for r in results)),
            "flow": obs.merge({}, *(r["flow"] for r in results)),
        }

    def healthz(self) -> dict[str, Any]:
        snap = self.request_stats.snapshot()
        return {
            "ok": True,
            "uptime_s": round(time.monotonic() - self.started, 3),
            "workers": self.pool.width,
            "in_process": self.pool.in_process,
            "requests_total": sum(snap["requests"].values()),
        }

    def metrics_text(self) -> str:
        pooled = self._pooled.snapshot()
        return metrics.render_prometheus(
            self.request_stats.snapshot(),
            obs.merge(solver_stats(), pooled["solver"]),
            obs.merge(flow_stats(), pooled["flow"]),
            uptime_s=time.monotonic() - self.started,
            workers=self.pool.width,
        )

    # -- helpers -------------------------------------------------------

    def _split(
        self, instance: Instance, split: bool | None
    ) -> list[Instance]:
        if split is False:
            return [instance]
        if split is True or instance.n >= self.split_jobs:
            # An empty instance has no blocks; it is solved as one part.
            return split_independent(instance) or [instance]
        return [instance]

    def shutdown(self) -> None:
        self.pool.shutdown()


def _parse_instance(body: dict[str, Any]) -> Instance:
    doc = body.get("instance")
    if not isinstance(doc, dict):
        raise ServiceError('body must carry an "instance" object')
    try:
        return instance_from_dict(doc)
    except InvalidInstanceError as exc:
        raise ServiceError(str(exc)) from exc


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs/paths onto the :class:`SchedulingService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-scheduling"
    # Headers and body go out as two small writes; with Nagle on, the
    # body waits for the client's delayed ACK (~40 ms) on keep-alive
    # connections.
    disable_nagle_algorithm = True

    # The default handler logs every request to stderr; the service
    # exposes counters instead, so keep the console quiet unless the
    # server was built verbose.
    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(fmt, *args)

    @property
    def service(self) -> SchedulingService:
        return self.server.service  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------

    def _send(
        self, status: int, payload: bytes, content_type: str
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self,
        status: int,
        doc: dict[str, Any],
        *,
        endpoint: str,
        t0: float,
        degraded: bool = False,
        parts: int = 0,
    ) -> None:
        """Record the request, then write the response.

        Counters are recorded *before* the body hits the socket so a
        client that scrapes ``/metrics`` immediately after a response
        always sees that response counted — no handler-thread race.
        """
        metrics.record_request(
            self.service.request_stats,
            endpoint,
            status,
            time.perf_counter() - t0,
            degraded=degraded,
            parts=parts,
        )
        self._send(
            status,
            json.dumps(doc).encode("utf-8"),
            "application/json; charset=utf-8",
        )

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length > self.service.max_body:
            raise ServiceError(
                f"request body of {length} bytes exceeds the "
                f"{self.service.max_body}-byte cap",
                status=413,
            )
        if length <= 0:
            raise ServiceError("a JSON request body is required")
        raw = self.rfile.read(length)
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(f"malformed JSON body: {exc}") from exc
        if not isinstance(doc, dict):
            raise ServiceError("request body must be a JSON object")
        return doc

    # -- verbs ---------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0]
        endpoint = path.lstrip("/") or "root"
        t0 = time.perf_counter()
        self.service.request_stats.add(in_flight=1)
        try:
            if path == "/healthz":
                self._send_json(
                    200, self.service.healthz(), endpoint="healthz", t0=t0
                )
            elif path == "/metrics":
                metrics.record_request(
                    self.service.request_stats,
                    "metrics",
                    200,
                    time.perf_counter() - t0,
                )
                self._send(
                    200,
                    self.service.metrics_text().encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8",
                )
            elif path in ("/solve", "/verify", "/fuzz"):
                self._send_json(
                    405, {"error": "use POST"}, endpoint=endpoint, t0=t0
                )
            else:
                self._send_json(
                    404,
                    {"error": f"no route {self.path!r}"},
                    endpoint=endpoint,
                    t0=t0,
                )
        finally:
            self.service.request_stats.add(in_flight=-1)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        path, _, raw_query = self.path.partition("?")
        endpoint = path.lstrip("/") or "root"
        t0 = time.perf_counter()
        self.service.request_stats.add(in_flight=1)
        try:
            handler = {
                "/solve": self.service.solve,
                "/verify": self.service.verify,
                "/fuzz": self.service.fuzz,
            }.get(path)
            if handler is None:
                if path in ("/healthz", "/metrics"):
                    self._send_json(
                        405, {"error": "use GET"}, endpoint=endpoint, t0=t0
                    )
                else:
                    self._send_json(
                        404,
                        {"error": f"no route {self.path!r}"},
                        endpoint=endpoint,
                        t0=t0,
                    )
                return
            try:
                body = self._read_body()
                # Query parameters are string-valued defaults — the JSON
                # body wins on conflict (``/solve?policy=lazy`` is the
                # supported spelling for string options like ``policy``).
                if raw_query:
                    from urllib.parse import parse_qs

                    for key, values in parse_qs(raw_query).items():
                        body.setdefault(key, values[-1])
                response = handler(body)
            except ServiceError as exc:
                self._send_json(
                    exc.status, {"error": str(exc)}, endpoint=endpoint, t0=t0
                )
                return
            except ReproError as exc:
                self._send_json(
                    422,
                    {"error": f"{type(exc).__name__}: {exc}"},
                    endpoint=endpoint,
                    t0=t0,
                )
                return
            except Exception as exc:  # never let a request kill the thread
                self._send_json(
                    500,
                    {"error": f"{type(exc).__name__}: {exc}"},
                    endpoint=endpoint,
                    t0=t0,
                )
                return
            self._send_json(
                200,
                response,
                endpoint=endpoint,
                t0=t0,
                degraded=bool(response.get("degraded")),
                parts=response.get("parts", response.get("shards", 0)),
            )
        finally:
            self.service.request_stats.add(in_flight=-1)


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading listener bound to one :class:`SchedulingService`."""

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: SchedulingService,
        *,
        verbose: bool = False,
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.verbose = verbose

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_service(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int | None = 1,
    max_body: int = DEFAULT_MAX_BODY,
    split_jobs: int = DEFAULT_SPLIT_JOBS,
    verbose: bool = False,
) -> tuple[ServiceHTTPServer, threading.Thread]:
    """Boot a server on a background thread; returns (server, thread).

    ``port=0`` binds an ephemeral port (read it from ``server.port``).
    Callers own shutdown::

        server, thread = start_service()
        ...
        server.shutdown(); server.service.shutdown(); thread.join()
    """
    service = SchedulingService(
        workers=workers, max_body=max_body, split_jobs=split_jobs
    )
    server = ServiceHTTPServer((host, port), service, verbose=verbose)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service", daemon=True
    )
    thread.start()
    return server, thread


def serve(
    *,
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int | None = 1,
    max_body: int = DEFAULT_MAX_BODY,
    split_jobs: int = DEFAULT_SPLIT_JOBS,
    verbose: bool = False,
) -> int:
    """Run the service in the foreground (the CLI ``serve`` entry).

    Prints the bound address on stdout (flushed) before blocking, so
    supervisors — and the CI smoke script — can discover an ephemeral
    port.  Ctrl-C and SIGTERM shut down cleanly, pool workers included.
    """
    service = SchedulingService(
        workers=workers, max_body=max_body, split_jobs=split_jobs
    )
    server = ServiceHTTPServer((host, port), service, verbose=verbose)
    print(
        f"serving on http://{host}:{server.port} "
        f"(workers={service.pool.width}"
        f"{' in-process' if service.pool.in_process else ''}, "
        f"max_body={max_body})",
        flush=True,
    )

    # SIGTERM takes the Ctrl-C path; its default action would kill this
    # process and leave the pool workers running.
    def _terminate(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.shutdown()
        service.shutdown()
    return 0
