"""End-to-end 9/5-approximation for nested active-time scheduling.

Pipeline (Theorem 4.15):

1. canonicalize the laminar instance (binary tree, rigid leaves);
2. solve the strengthened LP (1);
3. push the solution down the tree (Lemma 3.1);
4. round with Algorithm 1;
5. extract an integral schedule through the Lemma 4.1 flow network and the
   wrap-around slot assignment.

The produced schedule is re-validated independently, so a schedule that
comes out is its own feasibility certificate and no up-front feasibility
test runs.  The all-slots flow probe runs only to explain a failure (a
stage raising :class:`SolverError`, as an infeasible LP (1) does, or the
flow rejecting ``x̃``): on an instance with no schedule at all it raises
:class:`InfeasibleInstanceError`.  A defensive repair loop exists for
numerical corner cases but is expected never to fire (tests assert
``repairs == 0``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rounding import APPROX_FACTOR, RoundingResult, round_solution
from repro.core.schedule import Schedule
from repro.core.transform import TransformedLP, push_down
from repro.flow.assignment import schedule_from_node_counts
from repro.flow.feasibility import all_slots_feasible, node_assignment
from repro.instances.jobs import Instance
from repro.lp.nested_lp import NestedLPSolution, solve_nested_lp
from repro.tree.canonical import CanonicalInstance, canonicalize
from repro.util.errors import InfeasibleInstanceError, SolverError


@dataclass(frozen=True)
class NestedResult:
    """Everything produced by one run of the 9/5 algorithm."""

    schedule: Schedule
    active_time: int
    lp_value: float
    canonical: CanonicalInstance
    lp_solution: NestedLPSolution
    transformed: TransformedLP
    rounding: RoundingResult
    repairs: int

    @property
    def lp_ratio(self) -> float:
        """``active_time / lp_value`` — certified ≤ 9/5 by Lemma 3.3."""
        if self.lp_value <= 0:
            return 1.0
        return self.active_time / self.lp_value

    def summary(self) -> str:
        return summary_line(self.active_time, self.lp_value, self.repairs)


def summary_line(active_time: int, lp_value: float, repairs: int) -> str:
    """A 9/5 run in one line: cost, LP value, their ratio, repairs."""
    ratio = active_time / lp_value if lp_value > 0 else 1.0
    return (
        f"active_time={active_time} lp={lp_value:.3f} "
        f"ratio={ratio:.3f} (bound {APPROX_FACTOR}) repairs={repairs}"
    )


def _repair(
    canonical: CanonicalInstance, x_tilde: np.ndarray
) -> tuple[np.ndarray, int]:
    """Open extra slots until the node-level flow accepts ``x̃``.

    Numerical insurance only: raises each node toward its length in
    depth-descending order (deeper slots serve more job classes).  The
    loop is hard-bounded by the total forest capacity ``Σ length(i)``:
    each iteration must raise some node by one slot, so after that many
    iterations every node is at full length and a still-rejecting flow
    means the instance (not the rounding) is broken — raise instead of
    spinning.
    """
    inst = canonical.instance
    forest = canonical.forest
    x = x_tilde.copy()
    repairs = 0
    capacity = sum(forest.length)
    order = sorted(range(forest.m), key=lambda i: -forest.depth[i])
    while node_assignment(inst, forest, canonical.job_node, x.astype(int)) is None:
        raised = False
        if repairs < capacity:
            for i in order:
                if x[i] < forest.length[i]:
                    x[i] += 1
                    repairs += 1
                    raised = True
                    break
        if not raised:
            raise SolverError(
                "repair loop exhausted all slots: flow still rejects with "
                f"every node at full length after {repairs} repairs "
                f"(instance {inst.name!r}: n={inst.n}, g={inst.g}, "
                f"nodes={forest.m}, capacity={capacity})",
                kind="numerical",
                model=inst.name,
            )
    return x, repairs


def _require_feasible(instance: Instance) -> None:
    """Explain a failed stage: raise if no schedule exists at all."""
    if not all_slots_feasible(instance):
        raise InfeasibleInstanceError(
            f"instance {instance.name!r} cannot be scheduled at all"
        )


def solve_nested(instance: Instance) -> NestedResult:
    """Solve a laminar instance with the paper's 9/5-approximation.

    Raises :class:`NotLaminarError` on a non-laminar instance and
    :class:`InfeasibleInstanceError` on one with no schedule at all; the
    latter is diagnosed by the all-slots flow probe only after a stage
    fails, since a feasible instance always yields a valid schedule.  An
    infeasible instance therefore pays an LP (1) solve before it is
    answered (see docs/PERFORMANCE.md).

    Returns
    -------
    :class:`NestedResult` with the schedule (for the *original* instance)
    and all intermediate artifacts.
    """
    instance.require_laminar()
    canonical = canonicalize(instance)
    try:
        if instance.n == 0:
            # Degenerate but legal: nothing to schedule, zero-variable LP.
            # Short-circuit the solve (backends reject empty models) and
            # run the rest of the pipeline on all-zero artifacts.
            from repro.core.opt_thresholds import compute_thresholds

            lp_sol = NestedLPSolution(
                value=0.0,
                x=np.zeros(canonical.forest.m),
                y=np.zeros((canonical.forest.m, 0)),
                thresholds=compute_thresholds(
                    canonical.forest, canonical.job_node, {}, instance.g
                ),
            )
        else:
            lp_sol = solve_nested_lp(canonical)
        # Per-job y is built only if a caller reads ``transformed.y``.
        transformed = push_down(canonical.forest, lp_sol.x, lambda: lp_sol.y)
        rounding = round_solution(
            canonical.forest, transformed.x, transformed.topmost
        )
    except SolverError:
        _require_feasible(instance)
        raise

    x_tilde = rounding.x_tilde.astype(int)
    repairs = 0
    y_int = node_assignment(
        canonical.instance, canonical.forest, canonical.job_node, x_tilde
    )
    if y_int is None:
        _require_feasible(instance)
        x_repaired, repairs = _repair(canonical, x_tilde)
        x_tilde = x_repaired.astype(int)
        y_int = node_assignment(
            canonical.instance, canonical.forest, canonical.job_node, x_tilde
        )
        if y_int is None:  # pragma: no cover - _repair guarantees success
            raise SolverError("rounded solution infeasible after repair")

    # Canonical windows are subsets of the original windows, so the
    # schedule is built and validated against the original instance.
    schedule = schedule_from_node_counts(
        instance, canonical.forest, canonical.job_node, x_tilde, y_int
    )
    schedule.require_valid()

    return NestedResult(
        schedule=schedule,
        active_time=schedule.active_time,
        lp_value=lp_sol.value,
        canonical=canonical,
        lp_solution=lp_sol,
        transformed=transformed,
        rounding=rounding,
        repairs=repairs,
    )
