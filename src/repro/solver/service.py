"""The solver service: one front door for every LP solve in the repo.

``SolverService.solve`` compiles the model once, consults a
content-addressed :class:`~repro.solver.cache.SolveCache`, and on a miss
calls HiGHS.  A HiGHS failure reaches the caller as the typed
:class:`~repro.util.errors.SolverError` it raised; its ``kind`` tells an
infeasible or unbounded model from a numerical failure.  Every request
is counted in a :class:`repro.obs.Counters` group; ``failures`` counts
the solves HiGHS could not answer, not the models it proved infeasible.

``LinearProgram.solve`` delegates here, so all existing call sites — the
9/5 pipeline, the lower bounds, the gap studies, the benchmarks — get
caching and counters without changes.  A module-level default service
backs the convenience functions :func:`solve_lp`, :func:`solver_stats` and
:func:`clear_solver_cache`.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable

from repro import obs
from repro.lp.backend import LinearProgram, LPSolution
from repro.solver.cache import SolveCache, model_fingerprint
from repro.util.errors import SolverError

#: The backend, looked up on every solve so tests can inject a failing
#: one and a tracer can wrap it.  Maps ``(lp, parts)`` to an
#: :class:`LPSolution` or raises :class:`SolverError`.
BACKENDS: dict[str, Callable[..., LPSolution]] = {
    "highs": lambda lp, parts: lp._solve_highs(parts),
}


class SolverService:
    """Caching and instrumentation around the HiGHS backend.

    Parameters
    ----------
    cache_size:
        Max cached solutions (LRU); ``0`` disables caching entirely.
    """

    def __init__(self, *, cache_size: int = 1024) -> None:
        self.cache: SolveCache | None = (
            SolveCache(cache_size) if cache_size > 0 else None
        )
        self.stats = obs.Counters("solver")  # fields declared in repro.obs
        self._lock = threading.Lock()  # guards the cache

    def solve(self, lp: LinearProgram) -> LPSolution:
        """Solve ``lp``: a cache hit, or one HiGHS solve."""
        t0 = perf_counter()
        parts = lp.compile()
        key = None
        if self.cache is not None:
            key = model_fingerprint(parts)
            with self._lock:
                hit = self.cache.get(key)
            if hit is not None:
                self.stats.add(
                    solves=1, cache_hits=1, wall_time=perf_counter() - t0
                )
                return hit
        self.stats.add(
            solves=1,
            cache_misses=1,
            rows=lp.num_constraints,
            cols=lp.num_vars,
        )
        t_backend = perf_counter()
        try:
            sol = BACKENDS["highs"](lp, parts)
        except SolverError as exc:
            # An infeasible model is a verdict on the input, not a fault.
            failed = int(exc.kind != "infeasible")
            self.stats.add(failures=failed, wall_time=perf_counter() - t0)
            raise
        if key is not None:
            with self._lock:
                self.cache.put(key, sol)
        t1 = perf_counter()
        self.stats.add(
            backend_solves=1, backend_time=t1 - t_backend, wall_time=t1 - t0
        )
        return sol

    # -- introspection / control ------------------------------------------

    def clear_cache(self) -> None:
        with self._lock:
            if self.cache is not None:
                self.cache.clear()


# -- module-level default service -----------------------------------------

_default_service = SolverService()
_default_lock = threading.Lock()


def get_service() -> SolverService:
    """The process-wide default service (used by ``LinearProgram.solve``)."""
    return _default_service


def set_service(service: SolverService) -> SolverService:
    """Replace the default service; returns the previous one."""
    global _default_service
    with _default_lock:
        previous = _default_service
        _default_service = service
    return previous


def solve_lp(lp: LinearProgram) -> LPSolution:
    """Solve through the default service."""
    return get_service().solve(lp)


def solver_stats() -> dict:
    """Snapshot of the default service's counters (plain dict)."""
    return get_service().stats.snapshot()


def clear_solver_cache() -> None:
    get_service().clear_cache()


__all__ = [
    "BACKENDS",
    "SolverService",
    "get_service",
    "set_service",
    "solve_lp",
    "solver_stats",
    "clear_solver_cache",
]
