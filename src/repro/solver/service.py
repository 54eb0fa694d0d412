"""The solver service: one front door for every LP solve in the repo.

``SolverService.solve`` compiles the model once, consults a
content-addressed :class:`~repro.solver.cache.SolveCache`, and on a miss
walks a backend chain (HiGHS → from-scratch simplex by default) with
per-backend retry and an optional wall-clock budget.  Every request is
counted in a :class:`repro.obs.Counters` group.

``LinearProgram.solve`` delegates here, so all existing call sites — the
9/5 pipeline, the lower bounds, the gap studies, the benchmarks — get
caching, fallback and counters without changes.  A module-level default
service backs the convenience functions :func:`solve_lp`,
:func:`solver_stats`, :func:`reset_solver_stats` and
:func:`clear_solver_cache`.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import Callable, Sequence

from repro import obs
from repro.lp.backend import LinearProgram, LPSolution
from repro.solver.cache import SolveCache, basis_cache, model_fingerprint
from repro.util.errors import SolverError

#: Raw backend implementations.  Kept as a mutable registry so tests can
#: inject failing/flaky backends and so future backends plug in without
#: touching the service.  Each entry maps ``(lp, parts, time_limit)`` to
#: an :class:`LPSolution` or raises :class:`SolverError`.
BACKENDS: dict[str, Callable[..., LPSolution]] = {
    "highs": lambda lp, parts, time_limit=None: lp._solve_highs(
        parts, time_limit=time_limit
    ),
    "simplex": lambda lp, parts, time_limit=None: lp._solve_simplex(parts),
}

#: Default fallback order: production backend first, dependency-free
#: from-scratch simplex as the safety net.
DEFAULT_CHAIN: tuple[str, ...] = ("highs", "simplex")

#: Model-level verdicts: retrying another backend cannot change these.
_NO_FALLBACK_KINDS = ("infeasible", "unbounded")


class SolverService:
    """Caching, fallback and instrumentation around the LP backends.

    Parameters
    ----------
    chain:
        Backend names tried in order when the caller does not pin one.
    cache_size:
        Max cached solutions (LRU); ``0`` disables caching entirely.
    attempts_per_backend:
        Attempts per backend before moving to the next one.  Retrying a
        deterministic solver on an infeasible model is pointless (and
        model-level verdicts never retry), but transient numerical
        failures do recur intermittently under perturbed objectives.
    time_budget:
        Optional wall-clock budget (seconds) for one ``solve`` call
        across all backends; forwarded to HiGHS as its time limit.
    """

    def __init__(
        self,
        chain: Sequence[str] = DEFAULT_CHAIN,
        *,
        cache_size: int = 1024,
        attempts_per_backend: int = 1,
        time_budget: float | None = None,
    ) -> None:
        if not chain:
            raise ValueError("backend chain must not be empty")
        if attempts_per_backend < 1:
            raise ValueError("attempts_per_backend must be >= 1")
        self.chain = tuple(chain)
        self.cache: SolveCache | None = (
            SolveCache(cache_size) if cache_size > 0 else None
        )
        self.attempts_per_backend = attempts_per_backend
        self.time_budget = time_budget
        self.stats = obs.Counters(
            solves=0,  # solve requests (hits + misses)
            cache_hits=0,
            cache_misses=0,
            fallbacks=0,  # solves answered by a non-primary backend
            retries=0,  # extra attempts on the same backend
            failures=0,  # requests where every backend failed
            rows=0,  # constraint rows actually sent to a backend
            cols=0,  # variable columns actually sent to a backend
            wall_time=0.0,  # total time inside SolverService.solve
            backends={},  # name -> {"solves", "errors", "time"}
        )
        self._lock = threading.Lock()  # guards the cache

    # -- solving -----------------------------------------------------------

    def solve(
        self, lp: LinearProgram, backend: str | None = None
    ) -> LPSolution:
        """Solve ``lp``; pin a single backend with ``backend=...``.

        A pinned backend bypasses fallback (cross-validation callers want
        *that* backend's answer, not whichever one succeeded) but still
        goes through the cache, keyed separately per chain.
        """
        chain = (backend,) if backend is not None else self.chain
        for name in chain:
            if name not in BACKENDS:
                raise ValueError(
                    f"unknown backend {name!r}; have {sorted(BACKENDS)}"
                )
        t0 = perf_counter()
        parts = lp.compile()
        key = None
        if self.cache is not None:
            key = model_fingerprint(lp, parts, chain)
            with self._lock:
                hit = self.cache.get(
                    key,
                    lp.variable_names(),
                    parts["meta_ub"],
                    parts["meta_eq"],
                )
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

        deadline = t0 + self.time_budget if self.time_budget else None
        causes: list[tuple[str, Exception]] = []
        for pos, name in enumerate(chain):
            for attempt in range(self.attempts_per_backend):
                remaining = None
                if deadline is not None:
                    remaining = deadline - perf_counter()
                    if remaining <= 0:
                        causes.append(
                            (name, SolverError("time budget exhausted", kind="timeout"))
                        )
                        return self._raise_chain_failure(lp, chain, causes, t0)
                t_backend = perf_counter()
                try:
                    sol = BACKENDS[name](lp, parts, time_limit=remaining)
                except SolverError as exc:
                    causes.append((name, exc))
                    if getattr(exc, "kind", "backend") in _NO_FALLBACK_KINDS:
                        # The model itself is infeasible/unbounded — no
                        # other backend can disagree; surface as-is.
                        self.stats.add(
                            backends=_backend_entry(name, errors=1),
                            failures=1,
                            wall_time=perf_counter() - t0,
                        )
                        raise
                    self.stats.add(
                        backends=_backend_entry(name, errors=1),
                        retries=int(attempt + 1 < self.attempts_per_backend),
                    )
                    continue
                if self.cache is not None and key is not None:
                    with self._lock:
                        self.cache.put(key, sol)
                self.stats.add(
                    backends=_backend_entry(
                        name, solves=1, time=perf_counter() - t_backend
                    ),
                    fallbacks=int(pos > 0),
                    wall_time=perf_counter() - t0,
                )
                return sol
        return self._raise_chain_failure(lp, chain, causes, t0)

    def _raise_chain_failure(
        self,
        lp: LinearProgram,
        chain: tuple[str, ...],
        causes: list[tuple[str, Exception]],
        t0: float,
    ) -> LPSolution:
        self.stats.add(failures=1, wall_time=perf_counter() - t0)
        detail = "; ".join(f"{name}: {exc}" for name, exc in causes)
        raise SolverError(
            f"LP {lp.name!r} failed on all backends {list(chain)} "
            f"({lp.num_vars} vars, {lp.num_constraints} rows): {detail}",
            kind="chain",
            model=lp.name,
            num_vars=lp.num_vars,
            num_constraints=lp.num_constraints,
            causes=causes,
        )

    # -- introspection / control ------------------------------------------

    def stats_snapshot(self) -> dict:
        return self.stats.snapshot()

    def reset_stats(self) -> None:
        self.stats.reset()

    def clear_cache(self) -> None:
        with self._lock:
            if self.cache is not None:
                self.cache.clear()


def _backend_entry(
    name: str, *, solves: int = 0, errors: int = 0, time: float = 0.0
) -> dict[str, dict]:
    """A one-backend increment for the ``backends`` family."""
    return {name: {"solves": solves, "errors": errors, "time": time}}


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


def solve_lp(lp: LinearProgram, backend: str | None = None) -> LPSolution:
    """Solve through the default service."""
    return get_service().solve(lp, backend=backend)


def solver_stats() -> dict:
    """Snapshot of the default service's counters (plain dict).

    Includes the process-wide simplex warm-start counters
    (``simplex_warm_attempts`` / ``_hits`` / ``_rejects`` / ``_stores``
    of :func:`repro.solver.cache.basis_cache`) as flat keys, so one
    snapshot covers both the solve cache and the basis cache.
    """
    return {**get_service().stats_snapshot(), **basis_cache().stats.snapshot()}


def reset_solver_stats() -> None:
    """Reset service counters *and* the warm-start counters."""
    get_service().reset_stats()
    basis_cache().stats.reset()


def clear_solver_cache() -> None:
    get_service().clear_cache()


__all__ = [
    "BACKENDS",
    "DEFAULT_CHAIN",
    "SolverService",
    "get_service",
    "set_service",
    "solve_lp",
    "solver_stats",
    "reset_solver_stats",
    "clear_solver_cache",
]
