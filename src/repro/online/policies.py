"""Online active-time scheduling policies.

The related-work survey (Chau & Li) covers online active time: jobs are
revealed at their release times and the scheduler must decide, slot by
slot, whether to power the machine, never seeing future arrivals.  We
implement two policies over a common harness:

* :class:`EagerActivation` — power every slot with pending work (the
  baseline everyone beats);
* :class:`LazyActivation` — skip slot ``t`` unless the *currently
  released* unfinished jobs would become infeasible with only slots
  ``> t`` available (a flow test; future arrivals are unaffected by the
  decision because their releases are ``> t``).  When a slot is powered,
  it runs the jobs a max-flow schedule of the pending work puts there and
  pads the batch with the most urgent other pending jobs (padding is free
  and only removes future work).

**Impossibility results worth knowing** (both reproduced as tests): with
bounded capacity and hard deadlines, *no* online algorithm stays feasible
on all offline-feasible inputs.

* *Deferring fails*: ``g = 1``, job A = (window ``[0,10)``, ``p = 1``).
  Any deferring algorithm leaves slot 0 dark; the adversary releases
  B = (window ``[8,10)``, ``p = 2``), and A+B need three units in
  ``{8, 9}``.  Offline uses slot 0 for A.
* *Even maximal eagerness fails*: when a single long job is alone in the
  system, at most one of the ``g`` units per slot can be used; the lost
  parallel capacity may be exactly what a late burst of tight jobs
  needed.  (Concretely: jobs that monopolize early slots force a long
  job's units to cluster late; see
  ``tests/test_online.py::test_eager_impossibility``.)

Consequently both policies carry a feasibility guard: the moment the
*released* work becomes unschedulable on the remaining slots they raise
:class:`~repro.util.errors.InfeasibleInstanceError` instead of emitting a
broken schedule.  Both are provably safe when all jobs share one release
time (no surprises can arrive mid-run) — the batch-workload setting — and
that is the class benchmark E12 measures: lazy's energy saving over eager
and its empirical competitive ratio against the offline optimum, plus the
failure rates of both policies on scattered-release instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil

from repro.core.schedule import Schedule
from repro.flow.dinic import MaxFlow
from repro.instances.jobs import Instance
from repro.util.errors import InfeasibleInstanceError, ZeroOptimumError


@dataclass
class _PendingJob:
    id: int
    deadline: int
    remaining: int


def _pending_schedule(
    pending: list[_PendingJob], slots: list[int], g: int
) -> dict[int, list[int]] | None:
    """Max-flow schedule of pending work on the given slots, or ``None``."""
    if not pending:
        return {}
    if not slots:
        return None
    n = len(pending)
    slot_pos = {t: k for k, t in enumerate(slots)}
    source = n + len(slots)
    sink = source + 1
    net = MaxFlow(sink + 1)
    edge_ids: dict[tuple[int, int], int] = {}
    for k, job in enumerate(pending):
        net.add_edge(source, k, job.remaining)
        for t in slots:
            if t < job.deadline:
                edge_ids[(job.id, t)] = net.add_edge(k, n + slot_pos[t], 1)
    for pos in range(len(slots)):
        net.add_edge(n + pos, sink, g)
    total = sum(j.remaining for j in pending)
    if net.max_flow(source, sink) != total:
        return None
    out: dict[int, list[int]] = {}
    for (jid, t), eid in edge_ids.items():
        if net.edge_flow(eid) > 0.5:
            out.setdefault(jid, []).append(t)
    return out


class OnlinePolicy:
    """Base class: decide per slot whether to power and whom to run."""

    name = "abstract"

    def decide(
        self,
        t: int,
        pending: list[_PendingJob],
        future_slots: list[int],
        g: int,
    ) -> list[int] | None:
        """Return job ids to run at ``t`` (powering it), or ``None`` to skip."""
        raise NotImplementedError


class GuardedSlotRule(OnlinePolicy):
    """Template for feasibility-guarded slot-activation rules.

    A subclass answers one question — :meth:`want_power` — and inherits
    the safe harness around it: the slot is skipped only when the rule
    declines *and* the released work stays schedulable on the strictly
    later slots (the lazy guard); a powered slot runs the max-flow batch
    of the pending work padded with the most urgent other jobs (padding
    is free — the slot is paid for and only removes future work); and an
    unschedulable pending set raises
    :class:`~repro.util.errors.InfeasibleInstanceError` instead of
    emitting a broken schedule.  Every rule built on this base is
    therefore exactly as feasibility-safe as :class:`LazyActivation`,
    differing only in *how early* it pays for slots.
    """

    def want_power(self, t, runnable, later, g) -> bool:
        """Does the rule want slot ``t`` powered?  (``later`` = slots > t.)"""
        raise NotImplementedError

    def decide(self, t, pending, future_slots, g):
        runnable = [j for j in pending if j.remaining > 0]
        if not runnable:
            return None
        later = [s for s in future_slots if s > t]
        if (
            not self.want_power(t, runnable, later, g)
            and _pending_schedule(runnable, later, g) is not None
        ):
            return None  # safe to stay dark
        here = _pending_schedule(runnable, [t] + later, g)
        if here is None:
            raise InfeasibleInstanceError(
                f"pending work infeasible at slot {t} even if always on"
            )
        batch = [jid for jid, slots in here.items() if t in slots]
        # Pad with the most urgent other pending jobs — the slot is paid for.
        if len(batch) < g:
            extras = sorted(
                (j for j in runnable if j.id not in batch),
                key=lambda j: (j.deadline, j.id),
            )
            batch.extend(j.id for j in extras[: g - len(batch)])
        return batch


class EagerActivation(GuardedSlotRule):
    """Power every slot that has pending work.

    The batch is flow-guided: run whatever a max-flow schedule of the
    pending work places at ``t``, padded with the most urgent remaining
    jobs.  (A plain earliest-deadline batch is *not* feasibility-safe
    with ``g > 1`` — it can run slack jobs while a pair of jobs that both
    need a specific later slot starves; the flow batch cannot.)
    """

    name = "eager"

    def want_power(self, t, runnable, later, g):
        return True


class LazyActivation(GuardedSlotRule):
    """Skip unless pending work would become infeasible without slot ``t``."""

    name = "lazy"

    def want_power(self, t, runnable, later, g):
        return False


class EDFActivation(GuardedSlotRule):
    """Earliest-deadline-first urgency rule.

    Powers slot ``t`` when the most urgent pending job is within
    ``urgency`` slots of being forced (slack ``d_j - t - p_j^rem``), so
    tight jobs are started a little before the lazy guard would fire.
    ``urgency=0`` powers only truly forced jobs — per-job lazy without
    the capacity-aware flow test the guard adds back.
    """

    name = "edf"

    def __init__(self, urgency: int = 1) -> None:
        if urgency < 0:
            raise ValueError("urgency must be >= 0")
        self.urgency = urgency

    def want_power(self, t, runnable, later, g):
        slack = min(j.deadline - t - j.remaining for j in runnable)
        return slack <= self.urgency


class DensestWindowActivation(GuardedSlotRule):
    """Power while the pending work is dense in its remaining windows.

    Density is pending volume over remaining usable capacity
    (``g`` times the future slots before the last pending deadline);
    the slot is powered once density reaches ``threshold``.  Dense
    backlogs are drained immediately; sparse ones ride the lazy guard.
    """

    name = "densest"

    def __init__(self, threshold: float = 0.5) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        self.threshold = threshold

    def want_power(self, t, runnable, later, g):
        horizon_end = max(j.deadline for j in runnable)
        usable = sum(1 for s in [t, *later] if s < horizon_end)
        if usable == 0:
            return True
        volume = sum(j.remaining for j in runnable)
        return volume >= self.threshold * g * usable


class ThresholdActivation(GuardedSlotRule):
    """Batch-filling rule: power once a ``fill``-fraction batch exists.

    Powers slot ``t`` when the pending volume would fill at least
    ``ceil(fill * g)`` units of the slot — the classic "wait for a full
    batch" policy, made safe by the feasibility guard (a tight job still
    forces a partial batch through).
    """

    name = "threshold"

    def __init__(self, fill: float = 1.0) -> None:
        if not 0.0 < fill <= 1.0:
            raise ValueError("fill must be in (0, 1]")
        self.fill = fill

    def want_power(self, t, runnable, later, g):
        volume = sum(j.remaining for j in runnable)
        return volume >= max(1, ceil(self.fill * g))


class LookaheadActivation(GuardedSlotRule):
    """Lazy with a ``depth``-slot safety margin.

    Powers slot ``t`` as soon as the released work could *not* survive
    staying dark for the next ``depth`` slots (a max-flow test on the
    slots ``>= t + depth``).  ``depth=1`` is exactly
    :class:`LazyActivation`; larger depths pay for slots earlier and so
    are less exposed to adversarial arrivals that punish deferral.
    """

    name = "lookahead"

    def __init__(self, depth: int = 2) -> None:
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth
        self.name = f"lookahead{depth}"

    def want_power(self, t, runnable, later, g):
        beyond = [s for s in later if s >= t + self.depth]
        return _pending_schedule(runnable, beyond, g) is None


class TwinLookahead(OnlinePolicy):
    """Drive slot decisions from a rescheduling digital twin.

    The policy keeps a :class:`~repro.twin.session.TwinSession` in
    lock-step with the replay: newly visible jobs are fed to the twin as
    arrival events (``strict=True`` — an inadmissible arrival is exactly
    the feasibility-guard condition, so it surfaces as
    :class:`~repro.util.errors.InfeasibleInstanceError`), the twin clock
    ticks to the current slot, and slot ``t`` is powered iff the twin's
    incrementally repaired plan powers it, running exactly the twin's
    batch.  Compared to :class:`LazyActivation` this replaces the two
    from-scratch flow solves per slot with warm-started repair on one
    long-lived network, and its lookahead is the repaired plan itself.

    The batch is not padded: the twin's committed history must mirror
    what the harness executes, and padding would let the two diverge.
    """

    name = "twin"

    def __init__(self, backend: str = "incremental") -> None:
        self.backend = backend
        self._twin = None
        self._seen: set[int] = set()

    def reset(self) -> None:
        """Drop twin state so the policy can replay another instance."""
        self._twin = None
        self._seen = set()

    def decide(self, t, pending, future_slots, g):
        from repro.instances.jobs import Job
        from repro.twin.events import JobArrived, SlotTick
        from repro.twin.session import TwinSession

        if self._twin is None:
            self._twin = TwinSession(g, start=t, backend=self.backend)
        twin = self._twin
        # Commit the slots before t first: an arrival applied while the
        # clock still reads t-1 may re-plan slot t-1 after the harness ran
        # it, and the twin's history would then drift from the replay.
        twin.apply(SlotTick(until=t))
        for job in pending:
            if job.id not in self._seen:
                self._seen.add(job.id)
                twin.apply(
                    JobArrived(
                        Job(
                            id=job.id,
                            release=t,
                            deadline=job.deadline,
                            processing=job.remaining,
                        )
                    ),
                    strict=True,
                )
        batch = sorted(
            jid
            for jid, slots in twin.planned_assignment().items()
            if t in slots
        )
        return batch or None


@dataclass
class OnlineRun:
    """Result of replaying an instance through a policy."""

    schedule: Schedule
    policy: str
    activations: list[int] = field(default_factory=list)

    @property
    def active_time(self) -> int:
        return self.schedule.active_time


def run_online(instance: Instance, policy: OnlinePolicy) -> OnlineRun:
    """Replay the instance slot by slot through an online policy.

    Jobs become visible at their release slot; the produced schedule is
    validated independently before returning.

    Stateful policies (``TwinLookahead``) are reset up front so the same
    policy object can replay any number of instances deterministically,
    and each ``decide`` call sees a *snapshot* of the pending set
    (copy-on-advance) — a policy that mutates its view cannot corrupt
    the harness's work ledger or the shared :class:`Instance`.
    """
    reset = getattr(policy, "reset", None)
    if callable(reset):
        reset()
    if instance.n == 0:
        # Degenerate but legal: no arrivals, nothing to power.
        schedule = Schedule.from_assignment(instance, {}).require_valid()
        return OnlineRun(schedule=schedule, policy=policy.name, activations=[])
    horizon = instance.horizon
    jobs_by_release: dict[int, list[_PendingJob]] = {}
    for job in instance.jobs:
        jobs_by_release.setdefault(job.release, []).append(
            _PendingJob(id=job.id, deadline=job.deadline, remaining=job.processing)
        )
    pending: list[_PendingJob] = []
    assignment: dict[int, list[int]] = {j.id: [] for j in instance.jobs}
    activations: list[int] = []
    future = list(horizon.slots())
    for t in horizon.slots():
        pending.extend(jobs_by_release.get(t, []))
        pending = [j for j in pending if j.remaining > 0]
        view = [
            _PendingJob(id=j.id, deadline=j.deadline, remaining=j.remaining)
            for j in pending
        ]
        batch = policy.decide(t, view, list(future), instance.g)
        if batch is None:
            continue
        by_id = {j.id: j for j in pending}
        executed = 0
        for jid in batch[: instance.g]:
            job = by_id.get(jid)
            if job is None:
                raise ValueError(
                    f"policy {policy.name!r} returned job id {jid} at slot "
                    f"{t}, which is not pending (pending ids: {sorted(by_id)})"
                )
            if job.remaining > 0 and t < job.deadline:
                job.remaining -= 1
                assignment[jid].append(t)
                executed += 1
        # A batch that executes nothing must not power the slot: recording
        # the activation anyway would charge energy for an idle slot and
        # desync OnlineRun.activations from the schedule's active slots.
        if executed:
            activations.append(t)
    leftover = [j for j in pending if j.remaining > 0]
    if leftover:
        raise InfeasibleInstanceError(
            f"policy {policy.name!r} stranded jobs {[j.id for j in leftover]}"
        )
    schedule = Schedule.from_assignment(instance, assignment).require_valid()
    return OnlineRun(schedule=schedule, policy=policy.name, activations=activations)


def safe_ratio(cost: float, optimum: float) -> float:
    """``cost / optimum`` with zero-cost optima handled explicitly.

    A zero optimum arises on 0-job (or otherwise fully degenerate)
    instances.  ``0 / 0`` is defined as ``1.0`` — an algorithm that
    spends nothing on an instance worth nothing is exactly optimal —
    while a positive cost against a zero optimum has no finite ratio and
    raises :class:`~repro.util.errors.ZeroOptimumError` instead of
    ``ZeroDivisionError`` (or, worse, silently clamping the denominator).
    """
    if optimum == 0:
        if cost == 0:
            return 1.0
        raise ZeroOptimumError(
            f"competitive ratio undefined: cost {cost} against a "
            "zero-cost optimum"
        )
    return cost / optimum


def competitive_ratio(instance: Instance, policy: OnlinePolicy) -> float:
    """Online cost over the offline optimum (exact solver)."""
    from repro.baselines.exact import solve_exact

    online = run_online(instance, policy).active_time
    opt = solve_exact(instance).optimum
    return safe_ratio(online, opt)
