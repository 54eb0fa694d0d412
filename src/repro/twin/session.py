"""Event-driven rescheduling sessions over the incremental flow engine.

A :class:`TwinSession` is a *digital twin* of the batch machine: it holds
the currently-released jobs, the committed execution history, and a
complete plan for the outstanding work, and consumes the event stream of
:mod:`repro.twin.events`.  Each event triggers **incremental repair**
instead of a cold re-solve: the session keeps one
:class:`~repro.flow.incremental.DynamicFlowProber` alive for its whole
lifetime, so an arrival is one node + a re-augmentation of ``p_j`` units,
a cancellation is one repaired source edge, and opening/closing a
candidate slot during repair is a single sink-edge mutation (cancel ≤ g,
push ≤ g).  Every applied event yields a :class:`ScheduleDiff` — the
activated/deactivated slots, the reassigned jobs, and the work committed
by clock ticks — and the diff stream is a deterministic function of the
event log.

Admission control
-----------------
Online active time has no feasibility-preserving algorithm (see
:mod:`repro.online.policies`), so events carry *requests*: an arrival or
window slip that would make the released work unschedulable is rolled
back and reported as ``accepted=False`` rather than corrupting the
session (``strict=True`` raises
:class:`~repro.util.errors.InfeasibleInstanceError` instead).
Cancellations and clock ticks can never break feasibility — the session
invariant is that after every applied event the plan is a complete valid
schedule of all remaining work.

Oracles
-------
Incremental repair is the only path.  Each event handler keeps the
bookkeeping and calls one repair step (``_admit``, ``_drop``, ``_move``,
``_run_slot``, ``_finish``, ``_settle``):
:class:`~repro.verify.reference.ColdTwinSession` overrides only those
with a from-scratch re-solve (E16's baseline), and
:func:`~repro.verify.reference.cross_check_twin` checks one applied
event from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.core.schedule import Schedule
from repro.flow.incremental import DynamicFlowProber
from repro.instances.jobs import Instance, Job
from repro.twin.events import (
    JobArrived,
    JobCancelled,
    SlotTick,
    TwinEvent,
    TwinTrace,
    WindowSlipped,
    event_to_dict,
)
from repro.util.errors import InfeasibleInstanceError, SolverError


@dataclass(frozen=True)
class ScheduleDiff:
    """What one event did to the twin's schedule.

    Attributes
    ----------
    event:
        The applied event.
    accepted:
        ``False`` when admission control rejected the event (state is
        unchanged apart from the rejection being recorded).
    activated / deactivated:
        Planned slots powered on / off by the repair, sorted.
    reassigned:
        Ids of jobs whose *future* plan changed (including jobs whose
        plan disappeared by cancellation or completion).
    committed:
        ``(slot, job ids)`` pairs executed by a clock tick, in slot order.
    active_time:
        Objective after the event: committed active slots + planned slots.
    detail:
        Human-readable note (rejection reasons, no-op explanations).
    """

    event: TwinEvent
    accepted: bool
    activated: tuple[int, ...] = ()
    deactivated: tuple[int, ...] = ()
    reassigned: tuple[int, ...] = ()
    committed: tuple[tuple[int, tuple[int, ...]], ...] = ()
    active_time: int = 0
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        """JSON-compatible form (for replay transcripts and reports)."""
        return {
            "event": event_to_dict(self.event),
            "accepted": self.accepted,
            "activated": list(self.activated),
            "deactivated": list(self.deactivated),
            "reassigned": list(self.reassigned),
            "committed": [[t, list(ids)] for t, ids in self.committed],
            "active_time": self.active_time,
            "detail": self.detail,
        }


@dataclass
class _TwinJob:
    """Session-side view of one job across its lifetime."""

    job_id: int
    processing: int
    remaining: int
    release: int  # current effective release (clamped to arrival time)
    deadline: int
    arrived_at: int
    status: str = "active"  # active | finished | cancelled
    executed: list[int] = field(default_factory=list)

    @property
    def window(self) -> tuple[int, int]:
        return (self.release, self.deadline)


class TwinSession:
    """A live rescheduling session; see the module docstring."""

    def __init__(self, g: int, *, start: int = 0, name: str = "") -> None:
        self.g = g
        self.name = name
        self.now = start
        self._jobs: dict[int, _TwinJob] = {}
        self._rejected_ids: set[int] = set()
        self._open: set[int] = set()
        self._planned: dict[int, tuple[int, ...]] = {}
        self._committed_active: set[int] = set()
        self._history: dict[int, tuple[int, ...]] = {}
        self._prober = DynamicFlowProber(g, start, start)
        self.counters = {
            "events": 0,
            "accepted": 0,
            "rejected": 0,
            "committed_units": 0,
        }

    # -- construction ------------------------------------------------------

    @classmethod
    def from_instance(cls, instance: Instance) -> "TwinSession":
        """A session pre-loaded with a static instance's jobs.

        Raises :class:`InfeasibleInstanceError` when the instance cannot
        be admitted in full (it is offline-infeasible).
        """
        start = instance.horizon.start if instance.n else 0
        session = cls(instance.g, start=start, name=instance.name)
        for job in sorted(instance.jobs, key=lambda j: j.id):
            session.apply(JobArrived(job), strict=True)
        return session

    # -- read-only views ---------------------------------------------------

    @property
    def active_time(self) -> int:
        """Objective so far: committed active slots + planned slots."""
        return len(self._committed_active) + len(self._open)

    @property
    def open_slots(self) -> tuple[int, ...]:
        """Planned (future) active slots, sorted."""
        return tuple(sorted(self._open))

    @property
    def committed_slots(self) -> tuple[int, ...]:
        """Executed active slots, sorted."""
        return tuple(sorted(self._committed_active))

    def history(self) -> dict[int, tuple[int, ...]]:
        """Executed trace: slot → job ids that ran there."""
        return dict(self._history)

    def job_view(self, job_id: int) -> _TwinJob:
        return self._jobs[job_id]

    def jobs(self) -> list[_TwinJob]:
        """All job records ever admitted, by id."""
        return [self._jobs[jid] for jid in sorted(self._jobs)]

    def planned_assignment(self) -> dict[int, tuple[int, ...]]:
        """Future plan: job id → slots ≥ now (complete for remaining work)."""
        return dict(self._planned)

    def remaining_instance(self) -> Instance:
        """The outstanding work as a static instance (windows clamped to now)."""
        jobs = tuple(
            Job(
                id=r.job_id,
                release=max(r.release, self.now),
                deadline=r.deadline,
                processing=r.remaining,
            )
            for r in self.jobs()
            if r.status == "active" and r.remaining > 0
        )
        return Instance(jobs=jobs, g=self.g, name=f"{self.name or 'twin'}@{self.now}")

    def planned_schedule(self) -> Schedule:
        """The current plan as a validated :class:`Schedule`."""
        instance = self.remaining_instance()
        assignment = {j.id: self._planned.get(j.id, ()) for j in instance.jobs}
        return Schedule.from_assignment(instance, assignment).require_valid()

    # -- the event loop ----------------------------------------------------

    def apply(self, event: TwinEvent, *, strict: bool = False) -> ScheduleDiff:
        """Apply one event; returns the resulting :class:`ScheduleDiff`.

        ``strict=True`` turns admission rejections into
        :class:`InfeasibleInstanceError` (events that are malformed with
        respect to the session — duplicate arrivals, unknown job ids,
        backwards ticks — always raise :class:`ValueError`).
        """
        before_open = set(self._open)
        before_plan = dict(self._planned)
        self.counters["events"] += 1

        if isinstance(event, JobArrived):
            accepted, committed, detail = self._arrive(event)
        elif isinstance(event, JobCancelled):
            accepted, committed, detail = self._cancel(event)
        elif isinstance(event, WindowSlipped):
            accepted, committed, detail = self._slip(event)
        elif isinstance(event, SlotTick):
            accepted, committed, detail = self._tick(event)
        else:
            raise TypeError(f"not a twin event: {event!r}")

        self.counters["accepted" if accepted else "rejected"] += 1
        reassigned = tuple(
            sorted(
                jid
                for jid in set(before_plan) | set(self._planned)
                if before_plan.get(jid, ()) != self._planned.get(jid, ())
            )
        )
        diff = ScheduleDiff(
            event=event,
            accepted=accepted,
            activated=tuple(sorted(self._open - before_open)),
            deactivated=tuple(sorted(before_open - self._open)),
            reassigned=reassigned,
            committed=committed,
            active_time=self.active_time,
            detail=detail,
        )
        if strict and not accepted:
            raise InfeasibleInstanceError(
                f"twin rejected {event!r} at t={self.now}: {detail}"
            )
        return diff

    def replay(
        self, events: Iterable[TwinEvent] | TwinTrace, *, strict: bool = False
    ) -> list[ScheduleDiff]:
        """Apply an event stream (or a whole trace); returns all diffs."""
        if isinstance(events, TwinTrace):
            events = events.events
        return [self.apply(event, strict=strict) for event in events]

    # -- event handlers ----------------------------------------------------

    def _arrive(self, event: JobArrived) -> tuple[bool, tuple, str]:
        job = event.job
        if job.id in self._jobs:
            raise ValueError(
                f"duplicate arrival: job id {job.id} already admitted"
            )
        release = max(job.release, self.now)
        if job.deadline - release < job.processing:
            self._rejected_ids.add(job.id)
            return False, (), (
                f"window [{release},{job.deadline}) cannot hold "
                f"{job.processing} units"
            )
        record = _TwinJob(
            job_id=job.id,
            processing=job.processing,
            remaining=job.processing,
            release=release,
            deadline=job.deadline,
            arrived_at=self.now,
        )
        self._jobs[job.id] = record
        if not self._admit(record):
            del self._jobs[job.id]
            self._rejected_ids.add(job.id)
            return False, (), "released work infeasible with this arrival"
        return True, (), ""

    def _live(self, job_id: int, what: str, noop: str) -> tuple[_TwinJob | None, str]:
        """The active record of ``job_id``, or ``None`` and why the event
        is a no-op; ``what`` names the event in the unknown-id error."""
        record = self._jobs.get(job_id)
        if record is None:
            if job_id in self._rejected_ids:
                return None, f"job {job_id} was rejected at arrival; {noop}"
            raise ValueError(f"{what} unknown job id {job_id}")
        if record.status != "active":
            return None, f"job {job_id} already {record.status}"
        return record, ""

    def _cancel(self, event: JobCancelled) -> tuple[bool, tuple, str]:
        record, detail = self._live(
            event.job_id, "cancellation of", "nothing to cancel"
        )
        if record is None:
            return True, (), detail
        record.status = "cancelled"
        self._drop(record)
        return True, (), ""

    def _slip(self, event: WindowSlipped) -> tuple[bool, tuple, str]:
        record, detail = self._live(
            event.job_id, "window slip for", "slip ignored"
        )
        if record is None:
            return True, (), detail
        release = max(event.release, self.now)
        if event.deadline - release < record.remaining:
            return False, (), (
                f"slipped window [{release},{event.deadline}) cannot hold "
                f"{record.remaining} remaining units"
            )
        if not self._move(record, (release, event.deadline)):
            return False, (), "released work infeasible with this slip"
        record.release, record.deadline = release, event.deadline
        return True, (), ""

    def _tick(self, event: SlotTick) -> tuple[bool, tuple, str]:
        if event.until < self.now:
            raise ValueError(
                f"clock cannot run backwards: tick to {event.until} at "
                f"t={self.now}"
            )
        committed: list[tuple[int, tuple[int, ...]]] = []
        for t in sorted(s for s in self._open if s < event.until):
            ran = self._run_slot(t)
            self._open.discard(t)
            if not ran:  # pragma: no cover - repair keeps slots loaded
                continue
            self._committed_active.add(t)
            self._history[t] = tuple(ran)
            committed.append((t, tuple(ran)))
            self.counters["committed_units"] += len(ran)
            for jid in ran:
                record = self._jobs[jid]
                record.executed.append(t)
                record.remaining -= 1
                if record.remaining == 0:
                    record.status = "finished"
                    self._finish(record)
        self.now = max(self.now, event.until)
        for record in self._jobs.values():
            if record.status == "active" and record.deadline <= self.now:
                if record.remaining > 0:  # pragma: no cover - invariant
                    raise SolverError(
                        f"twin invariant breached: job {record.job_id} "
                        f"expired at t={self.now} with "
                        f"{record.remaining} units outstanding"
                    )
        self._settle()
        return True, tuple(committed), ""

    # -- repair steps ------------------------------------------------------

    def _admit(self, record: _TwinJob) -> bool:
        """Plan a new job's work; False (state unchanged) if infeasible."""
        jid = record.job_id
        self._prober.add_job(jid, record.processing, *record.window)
        return self._repair(record.window, lambda: self._prober.remove_job(jid), ())

    def _drop(self, record: _TwinJob) -> None:
        """Release a cancelled job's planned slots."""
        old_slots = self._prober.job_slots(record.job_id)
        self._prober.remove_job(record.job_id)
        self._shrink(old_slots)
        self._settle()

    def _move(self, record: _TwinJob, window: tuple[int, int]) -> bool:
        """Re-plan a job on a new window; False (state unchanged) if
        infeasible.  The record still holds the old window, which
        ``_grow`` reads its fallback candidates from."""
        prober, jid, (lo, hi) = self._prober, record.job_id, window
        old_slots = prober.job_slots(jid)
        prober.set_window(jid, lo, hi)
        return self._repair(
            window,
            lambda: prober.set_window(jid, *record.window),
            [t for t in old_slots if not lo <= t < hi],
        )

    def _run_slot(self, t: int) -> list[int]:
        """Execute planned slot ``t``; returns the ids that ran there."""
        return self._prober.commit_slot(t)

    def _finish(self, record: _TwinJob) -> None:
        """A job ran its last unit."""
        self._prober.remove_job(record.job_id)

    def _settle(self) -> None:
        """Read the plan off the repaired network."""
        self._open = self._prober.open_slots()
        self._planned = {
            jid: tuple(slots)
            for jid, slots in self._prober.assignment().items()
            if slots
        }

    # -- incremental repair ------------------------------------------------

    def _repair(
        self, prefer: tuple[int, int], undo: Callable[[], None], candidates: Sequence[int]
    ) -> bool:
        """Grow until feasible, then shrink ``candidates``; on failure
        ``undo`` the network change and close what the grow opened (the
        pre-event state must probe feasible again)."""
        ok, opened = self._grow(prefer)
        if not ok:
            undo()
            for t in opened:
                self._prober.set_open(t, False)
            if not self._prober.probe():  # pragma: no cover - monotone restore
                raise SolverError("twin rollback lost feasibility")
            return False
        self._shrink(candidates)
        self._settle()
        return True

    def _grow(self, prefer: tuple[int, int]) -> tuple[bool, list[int]]:
        """Open slots (latest-first, preferred window first) until feasible.

        Candidates are opened in batches sized by the current flow
        deficit before re-probing — the missing units need at least
        ``ceil(deficit / g)`` fresh slots, so probing after every single
        opening would only buy failed augmentations.
        """
        prober = self._prober
        opened: list[int] = []
        if prober.probe():
            return True, opened
        lo, hi = prefer
        preferred = range(hi - 1, max(lo, self.now) - 1, -1)
        fallback = sorted(self._covered_slots() - set(preferred), reverse=True)
        batch = 0
        for t in list(preferred) + fallback:
            if t < self.now or t in self._open or t in self._committed_active:
                continue
            prober.set_open(t, True)
            opened.append(t)
            batch += 1
            deficit = prober.total - prober.engine.value
            if batch * self.g < deficit:
                continue
            if prober.probe():
                return True, opened
            batch = 0
        if batch and prober.probe():
            return True, opened
        return False, opened

    def _shrink(self, candidates: Sequence[int]) -> None:
        """Try closing repair candidates, then sweep zero-load slots."""
        prober = self._prober
        for t in sorted(set(candidates) & prober.open_slots(), reverse=True):
            prober.set_open(t, False)
            if not prober.probe():
                prober.set_open(t, True)
        if not prober.probe():  # pragma: no cover - monotone restore
            raise SolverError("twin shrink pass lost feasibility")
        for t in sorted(prober.open_slots()):
            if not prober.slot_jobs(t):
                prober.set_open(t, False)

    def _covered_slots(self) -> set[int]:
        """Slots ≥ now inside at least one active job's current window."""
        out: set[int] = set()
        for record in self._jobs.values():
            if record.status == "active" and record.remaining > 0:
                out.update(range(max(record.release, self.now), record.deadline))
        return out
