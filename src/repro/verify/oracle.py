"""The differential oracle: run the full pipeline, cross-check everything.

For a laminar instance the oracle runs tree LP → Lemma 3.1 transform →
Algorithm 1 rounding → flow-based schedule extraction (all via
:func:`repro.core.algorithm.solve_nested`, so LP solves go through the
cached :class:`~repro.solver.SolverService`) and asserts every property in
:mod:`repro.verify.properties`.  Small instances are additionally
cross-checked against the branch-and-bound optimum
(:mod:`repro.baselines.exact`).

Non-laminar instances cannot enter the nested pipeline; for those the
oracle differentially tests the baselines against each other: greedy
minimal-feasible vs. exact vs. the natural LP lower bound, all re-validated
by the independent :class:`~repro.core.schedule.Schedule` checker.

Infeasible instances (every-slot flow test fails) are *skipped*, not
failed — the generators aim for feasible instances but the shrinker may
wander; skipping keeps the failure predicate monotone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.instances.jobs import Instance
from repro.util.errors import ReproError
from repro.util.numeric import SUM_EPS
from repro.verify.properties import (
    Violation,
    check_budget,
    check_classification,
    check_node_flow,
    check_repairs,
    check_rounding_reference,
    check_sandwich,
    check_schedule,
    check_transform,
)

#: Default cap on jobs for the exact cross-check (branch and bound is
#: exponential; beyond this the sandwich check drops its OPT leg).
DEFAULT_EXACT_MAX_JOBS = 8

#: Node budget handed to the exact solver; BudgetExceeded skips the OPT leg.
_EXACT_NODE_BUDGET = 200_000


@dataclass
class OracleReport:
    """Outcome of one oracle run.

    ``status`` is ``"ok"``, ``"violation"`` or ``"infeasible"`` (skipped).
    """

    instance: Instance
    status: str
    violations: list[Violation] = field(default_factory=list)
    lp_value: float | None = None
    active_time: int | None = None
    optimum: int | None = None

    @property
    def ok(self) -> bool:
        return self.status != "violation"

    @property
    def failed(self) -> bool:
        return self.status == "violation"

    def property_names(self) -> list[str]:
        seen: list[str] = []
        for v in self.violations:
            if v.prop not in seen:
                seen.append(v.prop)
        return seen


def _exact_optimum(instance: Instance, max_jobs: int) -> int | None:
    """Branch-and-bound optimum, or ``None`` when too expensive."""
    if instance.n > max_jobs:
        return None
    from repro.baselines.exact import BudgetExceeded, solve_exact

    try:
        return solve_exact(instance, node_budget=_EXACT_NODE_BUDGET).optimum
    except BudgetExceeded:
        return None


def _verify_laminar(
    instance: Instance, report: OracleReport, exact_max_jobs: int
) -> None:
    from repro.core.algorithm import solve_nested

    result = solve_nested(instance)
    canonical = result.canonical
    forest = canonical.forest
    tr = result.transformed
    rr = result.rounding

    report.lp_value = result.lp_value
    report.active_time = result.active_time
    report.violations += check_transform(
        forest, result.lp_solution.x, result.lp_solution.y, tr
    )
    report.violations += check_budget(tr.x, rr.x_tilde)
    report.violations += check_rounding_reference(forest, tr.x, tr.topmost, rr)
    report.violations += check_classification(
        forest, tr.x, rr.x_tilde, tr.topmost
    )
    report.violations += check_node_flow(canonical, rr.x_tilde)
    report.violations += check_repairs(result.repairs)
    report.violations += check_schedule(result.schedule)

    report.optimum = _exact_optimum(instance, exact_max_jobs)
    report.violations += check_sandwich(
        result.lp_value, result.active_time, report.optimum
    )


def _verify_general(
    instance: Instance, report: OracleReport, exact_max_jobs: int
) -> None:
    """Cross-check the baselines on a non-laminar instance."""
    from repro.baselines.minimal_feasible import minimal_feasible_schedule
    from repro.lp.natural_lp import solve_natural_lp

    greedy = minimal_feasible_schedule(instance)
    report.active_time = greedy.active_time
    report.violations += check_schedule(greedy)

    report.optimum = _exact_optimum(instance, exact_max_jobs)
    if report.optimum is not None:
        if report.optimum > greedy.active_time:
            report.violations.append(
                Violation(
                    "sandwich",
                    f"exact OPT = {report.optimum} exceeds the greedy "
                    f"schedule's {greedy.active_time} active slots",
                )
            )
        natural = solve_natural_lp(instance).value
        report.lp_value = natural
        if natural > report.optimum + SUM_EPS:
            report.violations.append(
                Violation(
                    "sandwich",
                    f"natural LP {natural} exceeds OPT = {report.optimum}",
                )
            )


def verify_instance(
    instance: Instance,
    *,
    exact_max_jobs: int = DEFAULT_EXACT_MAX_JOBS,
) -> OracleReport:
    """Run the oracle on one instance and return its report.

    Any exception escaping a pipeline stage is itself a finding (property
    ``crash``) — the pipeline must never die on a feasible instance.
    """
    from repro.flow.feasibility import all_slots_feasible

    report = OracleReport(instance=instance, status="ok")
    try:
        if instance.n > 0 and not all_slots_feasible(instance):
            report.status = "infeasible"
            return report
        if instance.is_laminar:
            _verify_laminar(instance, report, exact_max_jobs)
        else:
            _verify_general(instance, report, exact_max_jobs)
    except ReproError as exc:
        report.violations.append(
            Violation("crash", f"{type(exc).__name__}: {exc}")
        )
    if report.violations:
        report.status = "violation"
    return report
