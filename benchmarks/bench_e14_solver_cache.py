"""E14 — solver service: cold vs warm battery through the solve cache.

Not a paper table; this measures the engineering claim behind the solver
service layer: a battery re-run over the same instances (the common
shape of gap sweeps and regression suites) is answered entirely from the
content-addressed solve cache — zero backend solves.

Printed table: per phase (cold/warm) the wall time, LP solve requests,
cache hits, and HiGHS solves.  Runnable standalone for CI::

    python benchmarks/bench_e14_solver_cache.py --smoke [--json OUT]
"""

from __future__ import annotations

from time import perf_counter

import _bench_path  # noqa: F401
import pytest

from _bench_util import run_once
from repro import obs
from repro.analysis.parallel import run_battery
from repro.analysis.tables import print_table
from repro.benchkit import bench_main, register
from repro.instances.generators import laminar_suite
from repro.solver import SolverService, set_service, solver_stats

_FULL_SIZES = (6, 10, 16, 24)
_SMOKE_SIZES = (5, 8)


def _phase_row(name: str, wall: float, delta: dict) -> list:
    return [
        name,
        f"{wall * 1e3:.1f}",
        delta["solves"],
        delta["cache_hits"],
        delta["backend_solves"],
    ]


def run_cold_warm(sizes=_FULL_SIZES, seed=2022, task="solve_nested"):
    """Run one battery cold then warm on a fresh service; return rows +
    the two stats deltas and the per-phase wall times."""
    instances = laminar_suite(seed=seed, sizes=sizes)
    service = SolverService()
    previous = set_service(service)
    try:
        rows = []
        deltas = []
        walls = []
        for phase in ("cold", "warm"):
            with obs.scope() as counted:
                t0 = perf_counter()
                run_battery(instances, task, max_workers=1)
                wall = perf_counter() - t0
            delta = counted["solver"]
            rows.append(_phase_row(phase, wall, delta))
            deltas.append(delta)
            walls.append(wall)
        return instances, rows, deltas, walls
    finally:
        set_service(previous)


_HEADERS = [
    "phase",
    "wall [ms]",
    "lp solves",
    "cache hits",
    "highs",
]


@register(
    "E14",
    title="solve cache: cold vs warm battery",
    claim="Solver service: a warm battery re-run is answered entirely "
    "from the content-addressed cache — zero backend solves",
)
def run_bench(ctx):
    sizes = ctx.pick(_FULL_SIZES, _SMOKE_SIZES)
    instances, rows, (cold, warm), (cold_wall, warm_wall) = run_cold_warm(
        sizes=sizes, seed=ctx.seed
    )
    ctx.add_table(
        "cold_warm", _HEADERS, rows,
        title=f"E14 — solve cache, battery of {len(instances)} instances",
    )
    warm_backend_solves = warm["backend_solves"]
    ctx.add_metric("battery_size", len(instances))
    ctx.add_metric("cold_solves", cold["solves"])
    ctx.add_metric("cold_cache_misses", cold["cache_misses"])
    ctx.add_metric("warm_cache_hits", warm["cache_hits"])
    ctx.add_metric("warm_backend_solves", warm_backend_solves)
    ctx.add_timing("cold_battery_s", cold_wall)
    ctx.add_timing("warm_battery_s", warm_wall)
    ctx.add_check("warm_run_is_pure_cache", warm_backend_solves == 0)
    ctx.add_check("warm_hits_everything", warm["cache_hits"] == warm["solves"] > 0)
    ctx.add_check("cold_run_misses", cold["cache_misses"] > 0)


@pytest.fixture(scope="module")
def e14_table():
    instances, rows, deltas, _ = run_cold_warm()
    print_table(
        _HEADERS,
        rows,
        title=f"E14 — solve cache, battery of {len(instances)} instances",
    )
    return rows, deltas


class TestSolverCache:
    def test_warm_run_is_pure_cache(self, e14_table):
        _, (cold, warm) = e14_table
        assert cold["cache_misses"] > 0
        assert warm["backend_solves"] == 0
        assert warm["cache_hits"] == warm["solves"] > 0

    def test_warm_battery_benchmark(self, benchmark, e14_table):
        """Time the warm path: battery answered entirely from cache."""
        instances = laminar_suite(seed=2022, sizes=_FULL_SIZES)
        service = SolverService()
        previous = set_service(service)
        try:
            run_battery(instances, "solve_nested", max_workers=1)  # warm up
            run_once(
                benchmark, run_battery, instances, "solve_nested", max_workers=1
            )
            delta = solver_stats()
            assert delta["cache_hits"] > 0
        finally:
            set_service(previous)


if __name__ == "__main__":
    raise SystemExit(bench_main(run_bench))
