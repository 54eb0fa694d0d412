"""Request counters and the ``/metrics`` Prometheus text (format 0.0.4).

The service's :func:`request_counters` group is an
:class:`repro.obs.Counters` that handler threads record into under its
one lock; ``/metrics`` renders it next to the solver and flow counters,
all under the ``repro_`` prefix.

Latency quantiles are computed at scrape time from a bounded
per-endpoint reservoir (the most recent :data:`LATENCY_WINDOW`
observations), which is the standard client-side summary trade-off:
exact over a sliding window, O(1) memory forever.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

from repro import obs

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


def request_counters() -> obs.Counters:
    """A service's request counters by endpoint (``errors`` by ``endpoint:Nxx``)."""
    return obs.Counters(
        "requests",
        requests={},
        errors={},
        degraded={},
        parts={},  # fan-out units dispatched
        latency_sum={},
        latency=obs.Window(LATENCY_WINDOW),
        in_flight=0,  # handler threads inside a request
    )


def record_request(
    stats: obs.Counters,
    endpoint: str,
    status: int,
    elapsed_s: float,
    *,
    degraded: bool = False,
    parts: int = 0,
) -> None:
    """Count one answered request in ``stats`` (one atomic add)."""
    stats.add(
        requests={endpoint: 1},
        errors={f"{endpoint}:{status // 100}xx": 1} if status >= 400 else {},
        degraded={endpoint: 1} if degraded else {},
        parts={endpoint: parts} if parts else {},
        latency_sum={endpoint: elapsed_s},
        latency={endpoint: elapsed_s},
    )


#: The request group's counter families: (metric, field, labels, help).
#: A key holds one value per label, joined by ``:``.
_REQUEST_FAMILIES = (
    ("repro_requests_total", "requests", ("endpoint",),
     "HTTP requests by endpoint."),
    ("repro_request_errors_total", "errors", ("endpoint", "class"),
     "Non-2xx responses by endpoint and status class."),
    ("repro_degraded_total", "degraded", ("endpoint",),
     "Responses that degraded to a budget-limited incumbent."),
    ("repro_fanout_parts_total", "parts", ("endpoint",),
     "Worker-pool units dispatched (sub-instances, fuzz shards)."),
)


def _counter_lines(
    metric: str, labels: tuple[str, ...], help_text: str, values: Mapping
) -> Iterable[str]:
    """One counter family in Prometheus lines, keys sorted."""
    yield f"# HELP {metric} {help_text}"
    yield f"# TYPE {metric} counter"
    for key, n in sorted(values.items()):
        split = key.split(":", len(labels) - 1)
        text = ",".join(f'{lbl}="{v}"' for lbl, v in zip(labels, split))
        yield f"{metric}{{{text}}} {n}"


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

    for metric, field, labels, help_text in _REQUEST_FAMILIES:
        lines.extend(
            _counter_lines(metric, labels, help_text, request_snap.get(field, {}))
        )

    lines.append(
        "# HELP repro_request_latency_seconds Request wall time "
        "(summary over a sliding window)."
    )
    lines.append("# TYPE repro_request_latency_seconds summary")
    for ep, window in sorted(request_snap.get("latency", {}).items()):
        ordered = sorted(window)
        for q in QUANTILES:
            lines.append(
                f'repro_request_latency_seconds{{endpoint="{ep}",'
                f'quantile="{q}"}} {quantile(ordered, q):.6f}'
            )
        lines.append(
            f'repro_request_latency_seconds_sum{{endpoint="{ep}"}} '
            f"{request_snap.get('latency_sum', {}).get(ep, 0.0):.6f}"
        )
        lines.append(
            f'repro_request_latency_seconds_count{{endpoint="{ep}"}} '
            f"{request_snap.get('requests', {}).get(ep, len(window))}"
        )

    for metric, help_text, snap in (
        ("repro_solver_stats", "Solver service counters (local process + "
         "pooled worker deltas).", solver_snap),
        ("repro_flow_stats", "Incremental flow engine counters (local + "
         "pooled worker deltas).", flow_snap),
    ):
        lines.extend(_counter_lines(metric, ("counter",), help_text, snap))
    return "\n".join(lines) + "\n"
