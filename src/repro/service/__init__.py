"""Scheduling-as-a-service: an HTTP/JSON layer over the repro pipeline.

The ROADMAP's service slice: ``POST /solve`` / ``/verify`` / ``/fuzz``
plus ``GET /healthz`` / ``/metrics`` (Prometheus text) served by a
stdlib :class:`~http.server.ThreadingHTTPServer` over a process
:class:`~repro.analysis.parallel.WorkerPool`.  Boot it with
``active-time serve`` or embed it with :func:`start_service`; talk to
it with :class:`ServiceClient`.
"""

from repro.service.client import ClientError, ServiceClient
from repro.service.metrics import render_prometheus
from repro.service.server import (
    DEFAULT_MAX_BODY,
    DEFAULT_SPLIT_JOBS,
    SchedulingService,
    ServiceError,
    ServiceHTTPServer,
    serve,
    start_service,
)
from repro.service.workers import NODES_PER_MS, SOLVE_ALGORITHMS, node_budget_for

__all__ = [
    "SchedulingService",
    "ServiceHTTPServer",
    "ServiceClient",
    "ServiceError",
    "ClientError",
    "render_prometheus",
    "serve",
    "start_service",
    "node_budget_for",
    "NODES_PER_MS",
    "SOLVE_ALGORITHMS",
    "DEFAULT_MAX_BODY",
    "DEFAULT_SPLIT_JOBS",
]
