"""Greedy deactivation to a *minimal feasible* slot set.

Chang–Khuller–Mukherjee [3] prove any minimal feasible solution is a
3-approximation: start from all slots active and deactivate while the flow
test still passes.  Kumar–Khuller [9] get a 2-approximation by choosing
deactivation candidates "more carefully"; the candidate *order* is the
whole story, so the order is a strategy parameter here (see
:mod:`repro.baselines.kumar_khuller` for the 2-approx configuration and
DESIGN.md §5 for the substitution note).
"""

from __future__ import annotations

from typing import Callable, Literal, Sequence

import numpy as np

from repro.core.schedule import Schedule
from repro.flow.feasibility import (
    _active_counts,
    coverage_segments,
    extract_schedule,
    segment_prober,
)
from repro.instances.jobs import Instance
from repro.util.errors import InfeasibleInstanceError

Order = Literal[
    "given", "left_to_right", "right_to_left", "densest_first", "sparsest_first"
]


def minimal_feasible_slots(instance: Instance, order: Order = "given") -> list[int]:
    """Deactivate slots in the given order; return a minimal feasible set.

    The result is minimal: removing any single remaining slot breaks
    feasibility (guaranteed because feasibility is monotone in the slot
    set, so a slot that survives its own test never becomes removable).

    Slots of one coverage segment
    (:func:`~repro.flow.feasibility.coverage_segments`) are
    interchangeable, and every order visits them back to back: by time,
    or by covering-window count and then by time.  So the pass closes a
    segment's slots while its count stays feasible, and a binary search
    per segment finds that fewest count; the kept slots are the
    segment's last ones (its first ones for ``right_to_left``), exactly
    those the slot-by-slot pass
    (:func:`repro.verify.reference.reference_minimal_feasible_slots`)
    keeps.  One probe checks the whole set, then a segment of length
    ``L`` takes at most ``⌈log2(L + 1)⌉``, all warm on one segment
    network (see :mod:`repro.flow.incremental`).
    """
    segments = coverage_segments(instance)
    cover = np.diff(segments.buckets.ptr)
    visits = {
        "given": range(cover.size),
        "left_to_right": range(cover.size),
        "right_to_left": range(cover.size - 1, -1, -1),
        "densest_first": np.argsort(-cover, kind="stable").tolist(),
        "sparsest_first": np.argsort(cover, kind="stable").tolist(),
    }
    if order not in visits:
        raise ValueError(f"unknown order {order!r}")
    starts, ends = segments.starts.tolist(), segments.ends.tolist()
    counts = [end - start for start, end in zip(starts, ends)]
    prober = segment_prober(instance, segments)
    if not prober.probe(counts):
        raise InfeasibleInstanceError(
            f"instance {instance.name!r} infeasible on every slot"
        )
    for k in visits[order]:
        lo, hi = 0, counts[k]  # the fewest feasible count is in [lo, hi]
        while lo < hi:
            counts[k] = mid = (lo + hi) // 2
            if prober.probe(counts):
                hi = mid
            else:
                lo = mid + 1
        counts[k] = hi
    return [
        t
        for start, end, c in zip(starts, ends, counts)
        for t in (
            range(start, start + c)
            if order == "right_to_left"
            else range(end - c, end)
        )
    ]


def minimal_feasible_schedule(
    instance: Instance, order: Order = "given"
) -> Schedule:
    """Greedy-deactivation schedule (the CKM 3-approximation)."""
    slots = minimal_feasible_slots(instance, order)
    schedule = extract_schedule(instance, slots)
    assert schedule is not None  # the slot set was verified feasible
    return schedule.require_valid()


def is_minimal_feasible(instance: Instance, slots: Sequence[int]) -> bool:
    """Check conditions (i)+(ii) of minimality from the paper.

    The set must be feasible, and no slot may be removable: a slot
    outside every window always is, and a slot inside one is iff its
    segment's count can drop by one.  One probe per open segment.
    """
    segments = coverage_segments(instance)
    unique, lo, hi = _active_counts(segments, slots)
    counts = (hi - lo).tolist()
    if sum(counts) != unique.size:  # a slot outside every window
        return False
    prober = segment_prober(instance, segments)
    if not prober.probe(counts):
        return False
    for k, c in enumerate(counts):
        if c:
            counts[k] = c - 1
            if prober.probe(counts):
                return False
            counts[k] = c
    return True


def best_of_orders(
    instance: Instance,
    orders: Sequence[Order] = (
        "left_to_right",
        "right_to_left",
        "densest_first",
        "sparsest_first",
    ),
    key: Callable[[Schedule], float] | None = None,
) -> tuple[Schedule, Order]:
    """Run several deactivation orders; return the best schedule and order."""
    score = key or (lambda s: s.active_time)
    best: tuple[Schedule, Order] | None = None
    for order in orders:
        sched = minimal_feasible_schedule(instance, order)
        if best is None or score(sched) < score(best[0]):
            best = (sched, order)
    assert best is not None
    return best
