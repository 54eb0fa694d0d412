"""``service-calls``: the service-mix requests, in-process, through the service layer.

The requests of ``service-mix``'s nominal phase (small and mid-size
requests, unions the service splits, about 30% repeats that read the solve
cache), sent one after another to ``SchedulingService(workers=1).solve`` in
this process: the body is decoded from JSON, solved, and the response
encoded to JSON, as the HTTP handler does.  There is no HTTP and no pool
process, so what is timed is the service layer itself (parse, split,
fan-out, solve cache, merge, encode), in scaled CPU time like the closed
loops (see ``closed_loop.measure``).
This keeps the service layer measured where ``service-mix``'s wall-clock
latencies are too noisy to compare runs (see README.md).
"""

from __future__ import annotations

import json
import math
from time import perf_counter, process_time

from checker import check_schedule
from common import ScaledTimes, own_peak_rss_mb, ready
from service_mix import Mix

#: Fewest requests a run sends.  The mid-size requests cost ten times the
#: small ones; with 350 requests throughput varied 12% between seeds.  In
#: scaled CPU time it spread 0.024 (interquartile range over median, ten
#: seeds) with 800 requests and 0.03–0.045 with 600.
MIN_OPS = 600
#: Requests per CPU-second when the benchmark was defined.  A run sends
#: about ``--seconds`` of them, at least MIN_OPS.
NOMINAL_OPS_PER_S = 35.0


class Service:
    """An in-process ``SchedulingService`` and the counters it moves."""

    def __init__(self) -> None:
        from repro.service.server import SchedulingService
        from repro.solver import clear_solver_cache, solver_stats
        from repro.solver.cache import clear_basis_cache

        self.service = SchedulingService(workers=1)
        self.solver_stats = solver_stats
        self.clear_caches = lambda: (clear_solver_cache(), clear_basis_cache())

    def call(self, body: bytes) -> tuple[bytes, dict]:
        """One request: decode, solve, encode.  Returns (encoded, response)."""
        response = self.service.solve(json.loads(body))
        return json.dumps(response).encode(), response


def setup(seed: int, seconds: float) -> tuple[Service, Mix]:
    """Import the program, make the requests, warm up on a separate mix."""
    count = max(MIN_OPS, math.ceil(seconds * NOMINAL_OPS_PER_S))
    mix = Mix(seed, count)
    service = Service()
    warm = Mix(-1 - seed, 20)
    for key in warm.nominal.order:
        service.call(warm.bodies[key])
    service.clear_caches()
    return service, mix


def setup_only(workload: str, seed: int, seconds: float) -> None:
    setup(seed, seconds)
    ready()


def _check(mix: Mix, key: int, response: dict) -> list[str]:
    return check_schedule(
        mix.docs[key],
        response["schedule"]["assignment"],
        response["active_time"],
        response["lp_value"],
    )


def measure(workload: str, seed: int, seconds: float) -> dict:
    service, mix = setup(seed, seconds)
    ready()
    clock = ScaledTimes()
    ratios: list[float] = []
    problems: list[str] = []
    failed = 0
    order = mix.nominal.order
    for i, key in enumerate(order):
        t0 = process_time()
        try:
            _, response = service.call(mix.bodies[key])
        except Exception as exc:  # a typed error is a failed operation
            clock.add(process_time() - t0)
            failed += 1
            problems.append(f"request {i}: {type(exc).__name__}: {exc}")
            continue
        clock.add(process_time() - t0)
        bad = _check(mix, key, response)
        if bad:
            failed += 1
            problems.append(f"request {i}: {bad[0]}")
        if response["lp_value"] > 0:
            ratios.append(response["active_time"] / response["lp_value"])
    clock.flush()
    latencies = clock.times
    return {
        "attempted": len(order),
        "failed": failed,
        "problems": problems[:5],
        "samples": len(latencies),
        "throughput_ips": len(order) / sum(latencies),
        "latencies_ms": [t * 1e3 for t in latencies],
        "lp_ratio_mean": sum(ratios) / len(ratios),
        "peak_rss_mb": own_peak_rss_mb(),
    }


def instrument(tracer) -> list:
    """Spans around the service's entry points for one traced pass."""
    import repro.service.server as server
    import repro.service.workers as workers

    return [
        tracer.wrap(server.SchedulingService, "solve", "service.solve"),
        tracer.wrap(server, "instance_from_dict", "instances.io.parse"),
        tracer.wrap(workers, "solve_part", "service.worker"),
    ]


def traced(workload: str, seed: int, seconds: float, tracer) -> dict:
    """All requests untraced, then all again traced, caches cleared before
    each pass, so both passes hit the solve cache on the same repeats."""
    service, mix = setup(seed, seconds)
    ready()
    order = mix.nominal.order
    t0 = perf_counter()
    for key in order:
        service.call(mix.bodies[key])
    plain = perf_counter() - t0
    service.clear_caches()
    before = service.solver_stats()
    undo = instrument(tracer)
    problems: list[str] = []
    parts = 0
    try:
        t0 = perf_counter()
        for i, key in enumerate(order):
            tracer.op = i
            with tracer.span("op"):
                response = service.service.solve(json.loads(mix.bodies[key]))
                with tracer.span("instances.io.encode"):
                    json.dumps(response).encode()
            parts += response["parts"]
            problems += [f"request {i}: {p}" for p in _check(mix, key, response)]
        spanned = perf_counter() - t0
    finally:
        for restore in undo:
            restore()
    after = service.solver_stats()
    hits = after["cache_hits"] - before["cache_hits"]
    solves = after["solves"] - before["solves"]
    total = {name: t * 1e3 / len(order) for name, t in tracer.total_times().items()}
    self_ms = {name: t * 1e3 / len(order) for name, t in tracer.self_times().items()}
    layers = {
        "solver.cache_hits": float(hits),
        "solver.cache_hit_ratio": hits / solves if solves else 0.0,
        "instances.io.parse_ms": self_ms["instances.io.parse"],
        "instances.io.encode_ms": self_ms["instances.io.encode"],
        "service.solve_ms": total["service.solve"],
        "service.worker_ms": total["service.worker"],
        "service.overhead_ms": total["service.solve"] - total["service.worker"],
        "instances.transforms.split_parts": parts / len(order),
        "trace.overhead_frac": spanned / plain - 1.0,
    }
    return {"attempted": len(order), "failed": len(problems), "problems": problems[:5], "layers": layers}
