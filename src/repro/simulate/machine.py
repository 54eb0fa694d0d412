"""Discrete-time batch-machine simulator.

Executes a :class:`~repro.core.schedule.Schedule` slot by slot the way the
paper's model describes the hardware: the machine powers on for a slot,
runs up to ``g`` job-units, and powers off when idle.  The simulator is an
independent executable model — it re-derives energy/active-time from the
event trace rather than from the schedule object, which gives integration
tests a second opinion and gives the examples something tangible to show.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.schedule import Schedule
from repro.util.errors import InvalidInstanceError


@dataclass(frozen=True)
class SlotEvent:
    """What happened in one machine slot."""

    slot: int
    running: tuple[int, ...]  # job ids
    powered: bool

    @property
    def load(self) -> int:
        return len(self.running)


@dataclass
class SimulationResult:
    """Trace plus derived accounting."""

    events: list[SlotEvent]
    active_slots: int
    energy: float
    total_units: int
    preemptions: int
    remaining: dict[int, int] = field(default_factory=dict)

    @property
    def all_finished(self) -> bool:
        return all(v == 0 for v in self.remaining.values())

    def utilization(self, g: int) -> float:
        if self.active_slots == 0:
            return 0.0
        return self.total_units / (g * self.active_slots)


class BatchMachine:
    """A capacity-``g`` machine with a fixed per-active-slot energy cost."""

    def __init__(self, g: int, power_per_slot: float = 1.0) -> None:
        if g < 1:
            raise InvalidInstanceError("capacity must be >= 1")
        self.g = g
        self.power_per_slot = power_per_slot

    def run(self, schedule: Schedule) -> SimulationResult:
        """Execute the schedule; raise on any model violation.

        Checks performed live (not via the schedule's validator): window
        containment, per-slot capacity, per-job volume, no duplicate run.
        """
        inst = schedule.instance
        if inst.g != self.g:
            raise InvalidInstanceError(
                f"machine capacity {self.g} != instance capacity {inst.g}"
            )
        by_slot: dict[int, list[int]] = {}
        for jid, slots in schedule.assignment.items():
            for t in slots:
                by_slot.setdefault(t, []).append(jid)
        remaining = {j.id: j.processing for j in inst.jobs}
        windows = {j.id: (j.release, j.deadline) for j in inst.jobs}

        def run_unit(t: int, jid: int) -> None:
            if jid not in remaining:
                raise InvalidInstanceError(f"slot {t}: unknown job {jid}")
            r, d = windows[jid]
            if not (r <= t < d):
                raise InvalidInstanceError(
                    f"slot {t}: job {jid} outside window [{r},{d})"
                )
            if remaining[jid] <= 0:
                raise InvalidInstanceError(
                    f"slot {t}: job {jid} already finished"
                )
            remaining[jid] -= 1

        result = self._execute(by_slot, run_unit)
        result.remaining = remaining
        return result

    def audit_twin(self, session) -> SimulationResult:
        """Audit a twin session's committed history under the machine model.

        Replays the executed trace of a
        :class:`~repro.twin.session.TwinSession` (idle gaps included, as
        in :meth:`run`) and re-checks it independently of the twin's own
        bookkeeping: per-slot capacity, no duplicate runs, the twin
        clock, arrivals, deadlines, and per-job volume conservation
        (executed units must equal admitted work minus outstanding work;
        finished jobs must have none left).  No job may run before the
        slot it arrived at: every release, at arrival or after a slip,
        is clamped to the twin clock, so that slot bounds every window
        the job ever had.  A later accepted slip can move the release
        past slots that were legitimately executed before it, so the
        current release is not checked.

        ``remaining`` maps every non-cancelled admitted job to its
        outstanding units, so ``all_finished`` answers "did the session
        run everything it accepted so far?".
        """
        if session.g != self.g:
            raise InvalidInstanceError(
                f"machine capacity {self.g} != twin capacity {session.g}"
            )
        records = {r.job_id: r for r in session.jobs()}
        executed: dict[int, int] = {jid: 0 for jid in records}

        def run_unit(t: int, jid: int) -> None:
            if t >= session.now:
                raise InvalidInstanceError(
                    f"slot {t}: committed ahead of the twin clock {session.now}"
                )
            record = records.get(jid)
            if record is None:
                raise InvalidInstanceError(f"slot {t}: unknown job {jid}")
            if t < record.arrived_at:
                raise InvalidInstanceError(
                    f"slot {t}: job {jid} ran before it arrived at "
                    f"{record.arrived_at}"
                )
            if not t < record.deadline:
                raise InvalidInstanceError(
                    f"slot {t}: job {jid} ran at or past its deadline "
                    f"{record.deadline}"
                )
            if executed[jid] >= record.processing:
                raise InvalidInstanceError(
                    f"slot {t}: job {jid} already finished"
                )
            executed[jid] += 1

        result = self._execute(session.history(), run_unit)
        for jid, record in records.items():
            ran = record.processing - record.remaining
            if record.status == "cancelled":
                if executed[jid] > ran:
                    raise InvalidInstanceError(
                        f"job {jid}: trace ran {executed[jid]} units but the "
                        f"twin accounts for {ran} before cancellation"
                    )
                continue
            if executed[jid] != ran:
                raise InvalidInstanceError(
                    f"job {jid}: trace ran {executed[jid]} units but the twin "
                    f"accounts for {ran}"
                )
            if record.status == "finished" and record.remaining != 0:
                raise InvalidInstanceError(
                    f"job {jid}: marked finished with {record.remaining} "
                    f"units outstanding"
                )
        result.remaining = {
            jid: record.remaining
            for jid, record in records.items()
            if record.status != "cancelled"
        }
        return result

    def _execute(
        self,
        by_slot: Mapping[int, Sequence[int]],
        run_unit: Callable[[int, int], None],
    ) -> SimulationResult:
        """Walk the active span of ``by_slot`` (slot → job ids run there).

        Checks each slot for duplicate runs and capacity and hands every
        unit to ``run_unit(slot, job_id)``, which checks and books it.
        The trace covers the whole active span: slots skipped inside it
        are real machine states (powered down, nothing runs) and are
        emitted as ``powered=False`` events — energy and active-slot
        accounting count only powered slots.  ``remaining`` is left to
        the caller.
        """
        last_ran: dict[int, int] = {}
        events: list[SlotEvent] = []
        energy = 0.0
        total_units = 0
        preemptions = 0
        active = sorted(by_slot)
        span = range(active[0], active[-1] + 1) if active else range(0)
        for t in span:
            if t not in by_slot:
                events.append(SlotEvent(slot=t, running=(), powered=False))
                continue
            running = tuple(sorted(by_slot[t]))
            if len(running) != len(set(running)):
                raise InvalidInstanceError(f"slot {t}: duplicate job run")
            if len(running) > self.g:
                raise InvalidInstanceError(
                    f"slot {t}: load {len(running)} exceeds capacity {self.g}"
                )
            for jid in running:
                run_unit(t, jid)
                if jid in last_ran and last_ran[jid] != t - 1:
                    preemptions += 1
                last_ran[jid] = t
            energy += self.power_per_slot
            total_units += len(running)
            events.append(SlotEvent(slot=t, running=running, powered=True))
        return SimulationResult(
            events=events,
            active_slots=sum(1 for e in events if e.powered),
            energy=energy,
            total_units=total_units,
            preemptions=preemptions,
        )
