"""Exact active-time optimization by branch and bound.

The nested problem is NP-complete (Section 6 of the paper), so the exact
solver is exponential in the worst case; it is meant for the instance
sizes used by the ratio experiments (E1/E3/E5/E6).

Key reduction: slots with the same *coverage signature* (set of windows
containing them) are interchangeable, so a solution is a count per
signature class.  For a laminar instance the classes are exactly the
exclusive regions of the window-tree nodes.  Search is DFS over classes
with three prunes:

* optimistic feasibility — if even maxing out all undecided classes is
  infeasible, cut;
* incumbent bound — partial cost ≥ best known, cut;
* volume bound — partial cost + remaining forced volume, cut.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.minimal_feasible import minimal_feasible_slots
from repro.core.schedule import Schedule
from repro.flow.feasibility import coverage_segments, extract_schedule
from repro.flow.incremental import make_prober
from repro.instances.jobs import Instance
from repro.util.errors import InfeasibleInstanceError, SolverError


@dataclass(frozen=True)
class SlotClass:
    """A group of interchangeable slots."""

    slots: tuple[int, ...]
    jobs: tuple[int, ...]  # ids of jobs whose window covers these slots

    @property
    def size(self) -> int:
        return len(self.slots)


def slot_classes(instance: Instance) -> list[SlotClass]:
    """Group slots by coverage signature, most-covered classes first.

    A class is the union of the coverage segments
    (:func:`~repro.flow.feasibility.coverage_segments`) that share one
    set of covering jobs.
    """
    starts, ends, buckets = coverage_segments(instance)
    ids = [job.id for job in instance.jobs]
    by_signature: dict[tuple[int, ...], list[int]] = {}
    for start, end, members in zip(starts.tolist(), ends.tolist(), buckets):
        sig = tuple(sorted(ids[k] for k in members))
        by_signature.setdefault(sig, []).extend(range(start, end))
    classes = [
        SlotClass(slots=tuple(slots), jobs=sig)
        for sig, slots in by_signature.items()
    ]
    classes.sort(key=lambda c: (-len(c.jobs), c.slots))
    return classes


def _class_buckets(
    instance: Instance, classes: list[SlotClass]
) -> list[list[int]]:
    """Per-class job-index lists for the three-layer flow network."""
    pos = {j.id: k for k, j in enumerate(instance.jobs)}
    return [[pos[jid] for jid in cls.jobs] for cls in classes]


def class_prober(instance: Instance, classes: list[SlotClass]):
    """A warm-started feasibility prober over the slot-class network.

    Returns an object with ``probe(counts) -> bool`` (see
    :mod:`repro.flow.incremental` for the repair invariant).
    """
    return make_prober(
        [job.processing for job in instance.jobs],
        _class_buckets(instance, classes),
        instance.g,
    )


class BudgetExceeded(SolverError):
    """The branch-and-bound node budget ran out before proving optimality.

    The search seeds its incumbent from the greedy 3-approximation, so
    even a budget-killed run has a feasible solution in hand; it is
    attached here so callers can degrade to the best-known answer
    (:func:`exact_or_incumbent`) instead of discarding all search
    progress.

    Attributes
    ----------
    best_cost / best_slots:
        The incumbent at the moment the budget ran out — a feasible
        (not necessarily optimal) solution; ``best_cost`` upper-bounds
        the true optimum.
    nodes_explored:
        Search nodes expanded before the budget tripped.
    """

    def __init__(
        self,
        message: str,
        *,
        best_cost: int | None = None,
        best_slots: tuple[int, ...] = (),
        nodes_explored: int = 0,
        **kwargs,
    ) -> None:
        super().__init__(message, **kwargs)
        self.best_cost = best_cost
        self.best_slots = tuple(best_slots)
        self.nodes_explored = nodes_explored

    def __reduce__(self):
        return (
            _rebuild_budget_exceeded,
            (str(self), self.best_cost, self.best_slots, self.nodes_explored),
        )


def _rebuild_budget_exceeded(
    message: str,
    best_cost: int | None,
    best_slots: tuple[int, ...],
    nodes_explored: int,
) -> "BudgetExceeded":
    """Unpickle helper: keep the incumbent across process boundaries."""
    return BudgetExceeded(
        message,
        best_cost=best_cost,
        best_slots=best_slots,
        nodes_explored=nodes_explored,
    )


@dataclass(frozen=True)
class ExactResult:
    """Optimal value with a witness slot set and search statistics."""

    optimum: int
    slots: tuple[int, ...]
    nodes_explored: int

    def schedule(self, instance: Instance) -> Schedule:
        sched = extract_schedule(instance, list(self.slots))
        assert sched is not None
        return sched.require_valid()


#: Search-node cap of :func:`solve_exact` when the caller sets none.
DEFAULT_NODE_BUDGET = 2_000_000


def solve_exact(
    instance: Instance, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> ExactResult:
    """Branch and bound over slot-class counts.

    Raises
    ------
    InfeasibleInstanceError
        If no schedule exists at all.
    BudgetExceeded
        If the search tree outgrows ``node_budget`` (caller should fall
        back to LP bounds).
    """
    if instance.n == 0:
        return ExactResult(optimum=0, slots=(), nodes_explored=0)
    classes = slot_classes(instance)
    # Incumbent from the greedy baseline (also proves feasibility).
    greedy = minimal_feasible_slots(instance, order="right_to_left")
    best_cost = len(greedy)
    best_slots = tuple(greedy)
    # One warm-started network answers every probe of the search: the
    # optimistic check changes by one class per DFS level, so repairing
    # the previous flow beats rebuilding from scratch at every node.
    prober = class_prober(instance, classes)
    ubs = [c.size for c in classes]
    # Strongest cheap lower bound (volume, longest job, interval ceiling)
    # both prunes the search and lets optimal incumbents exit early.
    from repro.baselines.lower_bounds import best_combinatorial_bound

    volume_lb = best_combinatorial_bound(instance)
    explored = 0

    counts = [0] * len(classes)

    def dfs(idx: int, cost: int) -> None:
        nonlocal best_cost, best_slots, explored
        explored += 1
        if explored > node_budget:
            raise BudgetExceeded(
                f"exact search exceeded {node_budget} nodes on "
                f"{instance.name!r} (incumbent: {best_cost} slots)",
                best_cost=best_cost,
                best_slots=best_slots,
                nodes_explored=explored,
            )
        if cost >= best_cost:
            return
        if idx == len(classes):
            if prober.probe(counts):
                best_cost = cost
                best_slots = tuple(
                    t
                    for ci, cls in enumerate(classes)
                    for t in cls.slots[: counts[ci]]
                )
            return
        # Optimistic check: max out idx.. and test feasibility once.
        optimistic = counts[:idx] + ubs[idx:]
        if not prober.probe(optimistic):
            return
        remaining_ub = sum(ubs[idx + 1 :])
        for c in range(ubs[idx] + 1):
            counts[idx] = c
            total_possible = cost + c + remaining_ub
            if total_possible < volume_lb:
                continue  # cannot even cover the volume
            dfs(idx + 1, cost + c)
        counts[idx] = 0

    # When the greedy incumbent already meets the lower bound it is
    # provably optimal and the search is unnecessary.
    if best_cost > volume_lb:
        dfs(0, 0)
    if not best_slots and instance.total_volume > 0:
        raise InfeasibleInstanceError(f"{instance.name!r} has no schedule")
    return ExactResult(
        optimum=best_cost, slots=best_slots, nodes_explored=explored
    )


def exact_or_incumbent(
    instance: Instance, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[ExactResult, str | None]:
    """:func:`solve_exact`, degrading a blown budget to the incumbent.

    Returns ``(result, None)`` or ``(incumbent, budget message)``; with
    no incumbent the :class:`BudgetExceeded` propagates."""
    try:
        return solve_exact(instance, node_budget=node_budget), None
    except BudgetExceeded as exc:
        if exc.best_cost is None:
            raise
        incumbent = ExactResult(exc.best_cost, exc.best_slots, exc.nodes_explored)
        return incumbent, str(exc)
