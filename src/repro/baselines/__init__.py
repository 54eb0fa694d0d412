"""Baseline algorithms: greedy approximations, exact search, lower bounds."""

from repro.baselines.exact import (
    BudgetExceeded,
    ExactResult,
    class_prober,
    exact_or_incumbent,
    slot_classes,
    solve_exact,
)
from repro.baselines.kumar_khuller import (
    kk_tight_family,
    kumar_khuller_schedule,
    kumar_khuller_slots,
)
from repro.baselines.lower_bounds import (
    best_combinatorial_bound,
    interval_bound,
    longest_job_bound,
    natural_lp_bound,
    strengthened_lp_bound,
    volume_bound,
)
from repro.baselines.minimal_feasible import (
    best_of_orders,
    is_minimal_feasible,
    minimal_feasible_schedule,
    minimal_feasible_slots,
)
from repro.baselines.unit_jobs import unit_active_time, unit_lazy_schedule

__all__ = [
    "minimal_feasible_slots",
    "minimal_feasible_schedule",
    "is_minimal_feasible",
    "best_of_orders",
    "kumar_khuller_slots",
    "kumar_khuller_schedule",
    "kk_tight_family",
    "solve_exact",
    "exact_or_incumbent",
    "slot_classes",
    "class_prober",
    "ExactResult",
    "BudgetExceeded",
    "volume_bound",
    "longest_job_bound",
    "interval_bound",
    "natural_lp_bound",
    "strengthened_lp_bound",
    "best_combinatorial_bound",
    "unit_lazy_schedule",
    "unit_active_time",
]
