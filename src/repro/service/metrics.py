"""Request instrumentation and Prometheus text exposition.

The service keeps one :class:`RequestStats` (guarded by its own lock —
handler threads record concurrently) and renders ``/metrics`` in the
Prometheus text format, version 0.0.4: solver service counters
(:func:`repro.solver.solver_stats`), flow engine counters
(:func:`repro.flow.incremental.flow_stats`) and per-endpoint request
counters/latency quantiles, all under the ``repro_`` prefix.

Latency quantiles are computed at scrape time from a bounded
per-endpoint reservoir (the most recent :data:`LATENCY_WINDOW`
observations), which is the standard client-side summary trade-off:
exact over a sliding window, O(1) memory forever.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Any, Iterable, Mapping

#: Observations kept per endpoint for quantile estimation.
LATENCY_WINDOW = 2048

#: Quantiles exported per endpoint (Prometheus summary convention).
QUANTILES = (0.5, 0.95, 0.99)


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending-sorted non-empty list.

    Uses the standard nearest-rank definition ``rank = ⌈q·n⌉`` (1-based).
    An earlier version used ``round()``, whose banker's rounding pulled
    every quantile that lands exactly on a ``.5`` rank boundary *down*
    one observation — e.g. p95 of 30 observations returned the 28th
    value instead of the 29th.
    """
    if not sorted_values:
        raise ValueError("no observations")
    n = len(sorted_values)
    rank = math.ceil(q * n)  # 1-based nearest rank, half-up by ceiling
    return sorted_values[min(n - 1, max(0, rank - 1))]


class RequestStats:
    """Thread-safe per-endpoint request counters for one service."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests: dict[str, int] = {}
        self.errors: dict[tuple[str, str], int] = {}  # (endpoint, class)
        self.degraded: dict[str, int] = {}
        self.parts: dict[str, int] = {}  # fan-out units dispatched
        self.latency_sum: dict[str, float] = {}
        self.latency: dict[str, deque] = {}
        self.in_flight = 0

    def enter(self) -> None:
        with self._lock:
            self.in_flight += 1

    def exit(self) -> None:
        with self._lock:
            self.in_flight -= 1

    def record(
        self,
        endpoint: str,
        status: int,
        elapsed_s: float,
        *,
        degraded: bool = False,
        parts: int = 0,
    ) -> None:
        with self._lock:
            self.requests[endpoint] = self.requests.get(endpoint, 0) + 1
            if status >= 400:
                key = (endpoint, f"{status // 100}xx")
                self.errors[key] = self.errors.get(key, 0) + 1
            if degraded:
                self.degraded[endpoint] = self.degraded.get(endpoint, 0) + 1
            if parts:
                self.parts[endpoint] = self.parts.get(endpoint, 0) + parts
            self.latency_sum[endpoint] = (
                self.latency_sum.get(endpoint, 0.0) + elapsed_s
            )
            self.latency.setdefault(
                endpoint, deque(maxlen=LATENCY_WINDOW)
            ).append(elapsed_s)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict copy, safe to render without holding the lock."""
        with self._lock:
            return {
                "requests": dict(self.requests),
                "errors": {
                    f"{ep}:{cls}": n for (ep, cls), n in self.errors.items()
                },
                "degraded": dict(self.degraded),
                "parts": dict(self.parts),
                "latency_sum": dict(self.latency_sum),
                "latency": {
                    ep: sorted(obs) for ep, obs in self.latency.items()
                },
                "in_flight": self.in_flight,
            }


def _lines_for_counters(
    prefix: str, snap: Mapping[str, Any], help_text: str
) -> Iterable[str]:
    """Flatten a solver/flow-style snapshot into Prometheus lines."""
    yield f"# HELP {prefix} {help_text}"
    yield f"# TYPE {prefix} counter"
    for key, value in sorted(snap.items()):
        yield f'{prefix}{{counter="{key}"}} {value}'


def render_prometheus(
    request_snap: Mapping[str, Any],
    solver_snap: Mapping[str, Any],
    flow_snap: Mapping[str, Any],
    *,
    uptime_s: float,
    workers: int,
) -> str:
    """The full ``/metrics`` payload (text format 0.0.4)."""
    lines: list[str] = []
    lines.append("# HELP repro_service_uptime_seconds Seconds since boot.")
    lines.append("# TYPE repro_service_uptime_seconds gauge")
    lines.append(f"repro_service_uptime_seconds {uptime_s:.3f}")
    lines.append("# HELP repro_service_workers Configured worker pool width.")
    lines.append("# TYPE repro_service_workers gauge")
    lines.append(f"repro_service_workers {workers}")

    lines.append(
        "# HELP repro_queue_depth Requests currently in flight "
        "(handler threads inside a request)."
    )
    lines.append("# TYPE repro_queue_depth gauge")
    lines.append(f"repro_queue_depth {request_snap.get('in_flight', 0)}")

    lines.append("# HELP repro_requests_total HTTP requests by endpoint.")
    lines.append("# TYPE repro_requests_total counter")
    for ep, n in sorted(request_snap.get("requests", {}).items()):
        lines.append(f'repro_requests_total{{endpoint="{ep}"}} {n}')

    lines.append(
        "# HELP repro_request_errors_total Non-2xx responses by "
        "endpoint and status class."
    )
    lines.append("# TYPE repro_request_errors_total counter")
    for key, n in sorted(request_snap.get("errors", {}).items()):
        ep, _, cls = key.partition(":")
        lines.append(
            f'repro_request_errors_total{{endpoint="{ep}",class="{cls}"}} {n}'
        )

    lines.append(
        "# HELP repro_degraded_total Responses that degraded to a "
        "budget-limited incumbent."
    )
    lines.append("# TYPE repro_degraded_total counter")
    for ep, n in sorted(request_snap.get("degraded", {}).items()):
        lines.append(f'repro_degraded_total{{endpoint="{ep}"}} {n}')

    lines.append(
        "# HELP repro_fanout_parts_total Worker-pool units dispatched "
        "(sub-instances, fuzz shards)."
    )
    lines.append("# TYPE repro_fanout_parts_total counter")
    for ep, n in sorted(request_snap.get("parts", {}).items()):
        lines.append(f'repro_fanout_parts_total{{endpoint="{ep}"}} {n}')

    lines.append(
        "# HELP repro_request_latency_seconds Request wall time "
        "(summary over a sliding window)."
    )
    lines.append("# TYPE repro_request_latency_seconds summary")
    for ep, obs in sorted(request_snap.get("latency", {}).items()):
        for q in QUANTILES:
            lines.append(
                f'repro_request_latency_seconds{{endpoint="{ep}",'
                f'quantile="{q}"}} {quantile(obs, q):.6f}'
            )
        lines.append(
            f'repro_request_latency_seconds_sum{{endpoint="{ep}"}} '
            f"{request_snap.get('latency_sum', {}).get(ep, 0.0):.6f}"
        )
        lines.append(
            f'repro_request_latency_seconds_count{{endpoint="{ep}"}} '
            f"{request_snap.get('requests', {}).get(ep, len(obs))}"
        )

    lines.extend(
        _lines_for_counters(
            "repro_solver_stats",
            solver_snap,
            "Solver service counters (local process + pooled worker deltas).",
        )
    )
    lines.extend(
        _lines_for_counters(
            "repro_flow_stats",
            flow_snap,
            "Incremental flow engine counters (local + pooled worker deltas).",
        )
    )
    return "\n".join(lines) + "\n"
