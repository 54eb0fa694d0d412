"""Solver service: caching, backend fallback, instrumentation for LP solves."""

from repro.solver.cache import (
    BasisCache,
    SolveCache,
    basis_cache,
    basis_cache_stats,
    clear_basis_cache,
    model_fingerprint,
    structural_fingerprint,
)
from repro.solver.service import (
    BACKENDS,
    DEFAULT_CHAIN,
    SolverService,
    clear_solver_cache,
    get_service,
    reset_solver_stats,
    set_service,
    solve_lp,
    solver_stats,
)

__all__ = [
    "SolverService",
    "SolveCache",
    "BACKENDS",
    "DEFAULT_CHAIN",
    "model_fingerprint",
    "structural_fingerprint",
    "BasisCache",
    "basis_cache",
    "basis_cache_stats",
    "clear_basis_cache",
    "get_service",
    "set_service",
    "solve_lp",
    "solver_stats",
    "reset_solver_stats",
    "clear_solver_cache",
]
