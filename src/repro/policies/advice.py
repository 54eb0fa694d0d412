"""Learning-augmented scheduling: rounding driven by predicted OPT.

The advice model follows the learning-augmented algorithms literature
(Lykouris–Vassilvitskii style): the algorithm consumes an untrusted
prediction and must be *consistent* (with perfect advice it matches the
optimum) and *robust* (with adversarial advice it never does worse than
the best advice-free guarantee — here the paper's 9/5-approximation).

Advice format
-------------
A prediction maps each canonical-forest node ``i`` to the number of
active slots the predicted optimum opens in ``i``'s *exclusive region*
(the slots counted by ``L(i)``).  This is exactly the shape of the
rounded vector ``x̃`` the paper's Algorithm 1 produces, so the advice
can be dropped straight into the Lemma 4.1 flow + wrap-around extraction
in place of the LP-and-round pipeline:

1. clamp the advice into ``[0, L(i)]`` per node;
2. ask :func:`~repro.flow.feasibility.node_assignment` for a flow
   witness; if the advice under-provisions, the defensive repair loop
   opens extra slots (deepest first) until the flow accepts;
3. extract the schedule with
   :func:`~repro.flow.assignment.schedule_from_node_counts`.

*Consistency*: the per-node slot counts of an optimal schedule are a
feasible flow witness, so perfect advice needs no repairs and the
extracted schedule opens exactly ``OPT`` slots.

*Robustness*: the policy always also runs the advice-free 9/5 pipeline
and keeps the cheaper of the two schedules, so no advice — however
adversarial — can push it past the ``9/5 · LP`` certificate.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from repro.baselines.exact import exact_or_incumbent
from repro.core.algorithm import _repair, solve_nested
from repro.core.schedule import Schedule
from repro.flow.assignment import schedule_from_node_counts
from repro.flow.feasibility import node_assignment
from repro.instances.jobs import Instance
from repro.policies.base import Policy, PolicyError
from repro.policies.registry import register_policy
from repro.tree.canonical import CanonicalInstance, canonicalize

#: An advice provider sees the canonicalized instance and predicts, per
#: forest node, how many exclusive-region slots the optimum opens there.
AdviceProvider = Callable[[CanonicalInstance], Mapping[int, int]]


def perfect_advice(
    canonical: CanonicalInstance, *, node_budget: int = 200_000
) -> dict[int, int]:
    """Oracle advice: the true optimum's per-node active-slot counts.

    Each active slot is charged to the deepest forest node containing it
    (= the node owning it exclusively).  On a blown search budget the
    incumbent's counts are used — still valid advice, just not provably
    optimal.
    """
    result, _ = exact_or_incumbent(canonical.instance, node_budget=node_budget)
    forest = canonical.forest
    counts: dict[int, int] = {}
    for t in result.slots:
        node = forest.node_at_slot(t)
        if node is not None:
            counts[node] = counts.get(node, 0) + 1
    return counts


def adversarial_advice(canonical: CanonicalInstance) -> dict[int, int]:
    """Worst-case advice: predict that *no* slots are needed anywhere.

    Maximally misleading while type-correct — every node is
    under-provisioned, so the repair loop must rediscover the whole
    schedule from nothing.  Robustness means the policy still ends at
    or below the 9/5 certificate.
    """
    return {i: 0 for i in range(canonical.forest.m)}


class AdviceAugmentedPolicy(Policy):
    """Round with predicted per-subtree OPT; fall back to 9/5 if worse."""

    kind = "advice"

    def __init__(self, provider: AdviceProvider, name: str = "advice") -> None:
        super().__init__()
        self.provider = provider
        self.name = name

    def supports(self, instance: Instance) -> bool:
        return instance.is_laminar

    def _validated(
        self, canonical: CanonicalInstance, raw: Mapping[int, int]
    ) -> np.ndarray:
        """Clamp advice into a usable ``x`` vector; reject malformed advice."""
        forest = canonical.forest
        x = np.zeros(forest.m, dtype=int)
        for node, count in raw.items():
            if not isinstance(node, int) or not (0 <= node < forest.m):
                raise PolicyError(
                    f"advice for policy {self.name!r} names node {node!r}; "
                    f"forest has nodes 0..{forest.m - 1}"
                )
            if not isinstance(count, int) or isinstance(count, bool):
                raise PolicyError(
                    f"advice for policy {self.name!r} predicts {count!r} "
                    f"slots at node {node}; counts must be ints"
                )
            x[node] = min(max(count, 0), forest.length[node])
        return x

    def solve(self, instance: Instance) -> Schedule:
        canonical = canonicalize(instance)
        x = self._validated(canonical, self.provider(canonical))

        repairs = 0
        y = node_assignment(
            canonical.instance, canonical.forest, canonical.job_node, x
        )
        if y is None:
            x, repairs = _repair(canonical, x)
            x = x.astype(int)
            y = node_assignment(
                canonical.instance, canonical.forest, canonical.job_node, x
            )
            assert y is not None  # _repair guarantees acceptance
        advised = schedule_from_node_counts(
            instance, canonical.forest, canonical.job_node, x, y
        ).require_valid()

        # Robustness: never worse than the advice-free 9/5 pipeline.
        fallback = solve_nested(instance)
        use_advice = advised.active_time <= fallback.active_time
        self.note(
            advice_cost=advised.active_time,
            fallback_cost=fallback.active_time,
            lp_value=fallback.lp_value,
            repairs=repairs,
            used="advice" if use_advice else "fallback",
        )
        return advised if use_advice else fallback.schedule


@register_policy(
    "advice-perfect",
    kind="advice",
    description="advice-augmented rounding fed the true optimum (consistency)",
)
def make_perfect_advice_policy() -> AdviceAugmentedPolicy:
    return AdviceAugmentedPolicy(perfect_advice)


@register_policy(
    "advice-adversarial",
    kind="advice",
    description="advice-augmented rounding fed all-zero advice (robustness)",
)
def make_adversarial_advice_policy() -> AdviceAugmentedPolicy:
    return AdviceAugmentedPolicy(adversarial_advice)
