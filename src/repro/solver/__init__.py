"""Solver service: the solve cache and counters around the HiGHS backend.

Every LP solve goes through :class:`SolverService`: a content-addressed
cache hit, or one HiGHS solve whose failure surfaces as a typed
:class:`~repro.util.errors.SolverError`.  There is no second backend;
the dense simplex in :mod:`repro.verify.simplex` is a test oracle only.
"""

from repro.solver.cache import (
    SolveCache,
    clear_basis_cache,
    model_fingerprint,
)
from repro.solver.service import (
    BACKENDS,
    SolverService,
    clear_solver_cache,
    get_service,
    set_service,
    solve_lp,
    solver_stats,
)

__all__ = [
    "SolverService",
    "SolveCache",
    "BACKENDS",
    "model_fingerprint",
    "clear_basis_cache",
    "get_service",
    "set_service",
    "solve_lp",
    "solver_stats",
    "clear_solver_cache",
]
