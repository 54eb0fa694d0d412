"""Online policies exposed through the registry.

:class:`OnlineAdapter` replays the instance slot-by-slot through an
:class:`~repro.online.policies.OnlinePolicy` built *fresh for every
run* — the registry contract says runs are independent, and a stale
twin or rule object is exactly the kind of cross-run state the contract
bans.  Online policies can legitimately fail on offline-feasible
instances (the impossibility results in :mod:`repro.online.policies`);
that surfaces as :class:`~repro.util.errors.InfeasibleInstanceError`
from :meth:`run`, which sweeps record as a failure rather than a crash.
"""

from __future__ import annotations

from typing import Callable

from repro.core.schedule import Schedule
from repro.instances.jobs import Instance
from repro.online.policies import (
    DensestWindowActivation,
    EagerActivation,
    EDFActivation,
    LazyActivation,
    LookaheadActivation,
    OnlinePolicy,
    ThresholdActivation,
    TwinLookahead,
    run_online,
)
from repro.policies.base import Policy
from repro.policies.registry import register_policy


class OnlineAdapter(Policy):
    """Bridge an :class:`OnlinePolicy` factory into the registry contract."""

    def __init__(self, factory: Callable[[], OnlinePolicy]) -> None:
        super().__init__()
        self._factory = factory

    def solve(self, instance: Instance) -> Schedule:
        run = run_online(instance, self._factory())
        self.note(activations=len(run.activations))
        return run.schedule


def _register_online(
    name: str, description: str, factory: Callable[[], OnlinePolicy]
) -> None:
    @register_policy(name, kind="online", description=description)
    def make() -> OnlineAdapter:
        return OnlineAdapter(factory)

    make.__name__ = f"make_{name}_policy"


_register_online(
    "eager",
    "power every slot with pending work (flow-guided batches)",
    EagerActivation,
)
_register_online(
    "lazy",
    "defer until the pending work would become infeasible",
    LazyActivation,
)
_register_online(
    "edf",
    "earliest-deadline urgency trigger over the lazy guard",
    EDFActivation,
)
_register_online(
    "densest",
    "power while pending volume is dense in the remaining windows",
    DensestWindowActivation,
)
_register_online(
    "threshold",
    "wait for a full batch of pending volume before powering",
    ThresholdActivation,
)
_register_online(
    "lookahead2",
    "lazy with a 2-slot safety margin against adversarial arrivals",
    lambda: LookaheadActivation(depth=2),
)
_register_online(
    "twin",
    "digital-twin lookahead: power slots the repaired twin plan powers",
    TwinLookahead,
)
