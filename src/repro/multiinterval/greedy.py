"""Wolsey greedy: the ``H_g``-approximation for multi-interval active time.

Minimizing active slots is a submodular cover problem: find the smallest
slot set ``S`` with ``coverage(S) = Σ p_j``.  Wolsey [12] shows the greedy
that always adds the element with the largest marginal coverage gain is an
``H(max single-element value)``-approximation; one slot covers at most
``g`` units, so the factor is ``H_g = 1 + 1/2 + … + 1/g`` — the bound the
paper cites for this generalization.

A final *pruning* pass removes slots made redundant by later picks (this
never hurts the guarantee and often helps in practice).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from repro.multiinterval.coverage import (
    coverage,
    extract_assignment,
    feasible,
    require_feasible,
)
from repro.multiinterval.model import MultiInstance


def harmonic(g: int) -> float:
    """``H_g``, the greedy's approximation factor."""
    return sum(1.0 / i for i in range(1, g + 1))


@dataclass(frozen=True)
class GreedyResult:
    """Output of the submodular-cover greedy."""

    slots: tuple[int, ...]
    assignment: Mapping[int, tuple[int, ...]]
    picks: tuple[tuple[int, int], ...]  # (slot, marginal gain) per round
    pruned: tuple[int, ...]

    @property
    def active_time(self) -> int:
        return len(self.slots)


def wolsey_greedy(instance: MultiInstance, *, prune: bool = True) -> GreedyResult:
    """Greedy submodular cover; ``H_g``-approximate active slots.

    Each round evaluates the marginal gain of every unused candidate slot
    (one max-flow each) and picks the largest, ties broken by earliest
    slot for determinism.
    """
    require_feasible(instance)
    target = instance.total_volume
    chosen: list[int] = []
    picks: list[tuple[int, int]] = []
    current = 0
    remaining = list(instance.candidate_slots)
    while current < target:
        best_slot, best_gain = None, 0
        for t in remaining:
            gain = coverage(instance, chosen + [t]) - current
            if gain > best_gain:
                best_slot, best_gain = t, gain
        if best_slot is None:  # pragma: no cover - require_feasible prevents
            raise AssertionError("greedy stalled on a feasible instance")
        chosen.append(best_slot)
        remaining.remove(best_slot)
        picks.append((best_slot, best_gain))
        current += best_gain

    pruned: list[int] = []
    if prune:
        for t in list(chosen):
            trial = [s for s in chosen if s != t]
            if feasible(instance, trial):
                chosen = trial
                pruned.append(t)

    assignment = extract_assignment(instance, chosen)
    assert assignment is not None
    return GreedyResult(
        slots=tuple(sorted(chosen)),
        assignment=assignment,
        picks=tuple(picks),
        pruned=tuple(pruned),
    )


def exact_optimum(instance: MultiInstance, *, max_slots: int = 20) -> int:
    """Reference optimum by subset enumeration (tiny instances only)."""
    from itertools import combinations

    require_feasible(instance)
    slots = list(instance.candidate_slots)
    if len(slots) > max_slots:
        raise ValueError(f"exact search capped at {max_slots} candidate slots")
    lb = math.ceil(instance.total_volume / instance.g)
    for k in range(lb, len(slots) + 1):
        for combo in combinations(slots, k):
            if feasible(instance, combo):
                return k
    raise AssertionError("feasible instance must admit some slot set")
