"""Offline policies: the paper's pipeline and the baseline solvers.

Each wrapper is thin — the algorithms live in :mod:`repro.core` and
:mod:`repro.baselines`; here they just pick up the :class:`Policy`
contract (support checks, timing, validation, stats).  ``/solve``'s
``algorithm=`` and ``active-time solve --algorithm`` run these same
wrappers by name.
"""

from __future__ import annotations

from repro.baselines.exact import exact_or_incumbent
from repro.baselines.kumar_khuller import kumar_khuller_schedule
from repro.baselines.minimal_feasible import minimal_feasible_schedule
from repro.core.algorithm import solve_nested
from repro.core.schedule import Schedule
from repro.instances.jobs import Instance
from repro.policies.base import Policy
from repro.policies.registry import register_policy


@register_policy(
    "nested",
    kind="offline",
    description="strengthened LP + Algorithm 1 rounding (9/5-approx, laminar only)",
)
class NestedPolicy(Policy):
    """The paper's 9/5-approximation; requires nested (laminar) windows."""

    def supports(self, instance: Instance) -> bool:
        return instance.is_laminar

    def solve(self, instance: Instance) -> Schedule:
        result = solve_nested(instance)
        self.note(lp_value=result.lp_value, repairs=result.repairs)
        return result.schedule


@register_policy(
    "greedy",
    kind="offline",
    description="minimal-feasible greedy deactivation (CKM 3-approx)",
)
class GreedyPolicy(Policy):
    """Greedy deactivation sweep — the classic 3-approximation."""

    def solve(self, instance: Instance) -> Schedule:
        return minimal_feasible_schedule(instance)


@register_policy(
    "kk",
    kind="offline",
    description="Kumar–Khuller LP rounding baseline",
)
class KumarKhullerPolicy(Policy):
    """The Kumar–Khuller LP-rounding baseline."""

    def solve(self, instance: Instance) -> Schedule:
        return kumar_khuller_schedule(instance)


@register_policy(
    "exact",
    kind="offline",
    description="branch-and-bound exact optimum (degrades to incumbent on budget)",
)
class ExactPolicy(Policy):
    """Branch-and-bound optimum.

    A blown node budget degrades to the search's incumbent (a feasible
    upper bound, seeded from the greedy 3-approximation) with
    ``degraded=True`` and the budget message as ``degraded_reason`` in
    the stats, so registry-wide sweeps never crash on a hard instance —
    they just lose the optimality certificate for it.
    """

    def __init__(self, node_budget: int = 200_000) -> None:
        super().__init__()
        self.node_budget = node_budget

    def solve(self, instance: Instance) -> Schedule:
        result, reason = exact_or_incumbent(
            instance, node_budget=self.node_budget
        )
        self.note(
            nodes_explored=result.nodes_explored,
            degraded=reason is not None,
            optimal=reason is None,
        )
        if reason is not None:
            self.note(degraded_reason=reason)
        return result.schedule(instance)
