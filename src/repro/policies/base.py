"""The unified policy contract: ``Policy.run(instance) -> PolicyResult``.

Every scheduling strategy in the repo — the paper's 9/5-approximation,
the offline baselines, the online activation rules, the digital-twin
lookahead, and the learning-augmented advice policies — is exposed
behind this one interface so benchmarks, the CLI, the service layer and
the leaderboard can treat them uniformly.

A :class:`Policy` is *stateless across runs*: ``run`` may be called any
number of times, on any instances, in any order, and each call stands
alone (adapters over stateful machinery build that machinery fresh per
run).  ``run`` always re-validates the produced schedule with the
independent :class:`~repro.core.schedule.Schedule` validator, so a buggy
policy surfaces as a loud error rather than a quietly-wrong leaderboard
row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro.core.schedule import Schedule
from repro.instances.jobs import Instance
from repro.util.errors import ReproError

#: The policy kinds the registry understands (free-form is rejected so
#: leaderboard grouping stays meaningful).
POLICY_KINDS = ("offline", "online", "advice")


class PolicyError(ReproError):
    """A policy was misused: unknown name, duplicate registration,
    unsupported instance, or malformed advice."""


@dataclass(frozen=True)
class PolicyResult:
    """One policy run: the validated schedule plus per-run statistics.

    Attributes
    ----------
    policy / kind:
        Registry identity of the policy that produced the schedule.
    schedule:
        The validated schedule (``require_valid`` has already passed).
    elapsed_s:
        Wall-clock seconds spent inside :meth:`Policy.solve`.
    stats:
        Policy-specific counters (LP value, search nodes, activations,
        advice costs, ...) recorded via :meth:`Policy.note`.
    """

    policy: str
    kind: str
    schedule: Schedule
    elapsed_s: float
    stats: dict[str, Any] = field(default_factory=dict)

    @property
    def active_time(self) -> int:
        """The objective value of the produced schedule."""
        return self.schedule.active_time


class Policy:
    """Base class all registered policies implement.

    Subclasses implement :meth:`solve`; they may override
    :meth:`supports` to declare structural preconditions (e.g. the 9/5
    pipeline is laminar-only).  :attr:`name`/:attr:`kind`/
    :attr:`description` come from the ``register_policy`` decorator:
    :func:`~repro.policies.registry.make_policy` stamps them on each
    instance it builds.  :meth:`run` is the public entry point and is
    final in spirit: it handles degenerate instances, times the solve,
    validates the schedule, and snapshots the per-run stats.
    """

    name = "abstract"
    kind = "offline"
    description = ""

    def __init__(self) -> None:
        self._stats: dict[str, Any] = {}

    # -- contract ------------------------------------------------------

    def supports(self, instance: Instance) -> bool:
        """Can this policy schedule the given instance at all?"""
        return True

    def solve(self, instance: Instance) -> Schedule:
        """Produce a schedule for a non-degenerate, supported instance."""
        raise NotImplementedError

    def run(self, instance: Instance) -> PolicyResult:
        """Solve, validate, and package one instance.

        Raises
        ------
        PolicyError
            If :meth:`supports` rejects the instance.
        InfeasibleInstanceError
            Propagated from the policy when no (online-safe) schedule
            exists — callers treat this as a recorded failure, not a bug.
        """
        if not self.supports(instance):
            raise PolicyError(
                f"policy {self.name!r} does not support {instance.describe()}"
            )
        self._stats = {}
        start = perf_counter()
        if instance.n == 0:
            # Degenerate but legal everywhere: empty schedule, cost 0.
            schedule = Schedule.from_assignment(instance, {})
        else:
            schedule = self.solve(instance)
        elapsed = perf_counter() - start
        schedule.require_valid()
        return PolicyResult(
            policy=self.name,
            kind=self.kind,
            schedule=schedule,
            elapsed_s=elapsed,
            stats=dict(self._stats),
        )

    # -- helpers for subclasses ----------------------------------------

    def note(self, **stats: Any) -> None:
        """Record per-run statistics (visible in the returned result)."""
        self._stats.update(stats)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind!r})"
