"""Schedule representation and independent validation.

A :class:`Schedule` assigns jobs to concrete integer slots.  Each job's
slots are kept as *runs*: sorted ``(start, stop)`` ranges, packed into
one flat tuple per job (:data:`Runs`), so a schedule costs memory and
time in the number of runs, not in the number of units it places.  Validation is deliberately independent of every solver: it
re-checks windows, per-slot capacity, and per-job volume straight from
the instance definition, so any solver bug surfaces here.  The per-slot
loads come from one sort of the run endpoints, so every metric and check
costs O(R log R) for R runs.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain
from operator import lt
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from repro.instances.jobs import Instance
from repro.util.errors import InvalidInstanceError

#: One job's runs, packed flat: ``(start0, stop0, start1, stop1, ...)``
#: for the ranges ``[start0, stop0)``, ``[start1, stop1)``, ...  Flat, so
#: a job costs one tuple, not one per range.
Runs = tuple[int, ...]


def pairs(runs: Runs) -> Iterator[tuple[int, int]]:
    """The ``(start, stop)`` ranges of flat ``runs``."""
    it = iter(runs)
    return zip(it, it)


def runs_from_slots(slots: Iterable[int]) -> Runs:
    """The runs of a slot collection: maximal ranges of consecutive slots.

    A repeated slot opens a second run over the same slot, so repeats
    survive the conversion and validation still reports them.
    """
    out: list[int] = []
    for t in sorted(slots):
        if out and t == out[-1]:
            out[-1] = t + 1
        else:
            out += (t, t + 1)
    return tuple(out)


def normalize_runs(runs: Sequence[int]) -> Runs:
    """Sort flat ranges, drop empty ones, join touching ones.

    The result is the form :func:`runs_from_slots` gives for the same
    slots, so schedules compare equal exactly when their slots do.
    """
    if len(runs) == 2 and runs[0] < runs[1]:
        return tuple(runs)
    out: list[int] = []
    for start, stop in sorted(pairs(runs)):
        if stop <= start:
            continue
        if out:
            if start < out[-1]:  # repeats a slot: rare, so go per slot
                return runs_from_slots(expand_runs(runs))
            if start == out[-1]:
                out[-1] = stop
                continue
        out += (start, stop)
    return tuple(out)


def expand_runs(runs: Sequence[int]) -> Iterator[int]:
    """The slots of flat ``runs``, in run order."""
    return chain.from_iterable(map(range, runs[::2], runs[1::2]))


def slot_list(runs: Runs) -> list[int]:
    """The sorted slots of one job's runs."""
    if len(runs) == 2:
        return [*range(*runs)]
    return [*expand_runs(runs)]


def _span(start: int, stop: int) -> str:
    """``t`` for one slot, ``a..b`` (inclusive) for several."""
    return str(start) if stop - start == 1 else f"{start}..{stop - 1}"


class SlotView(Mapping[int, tuple[int, ...]]):
    """Read-only job id → sorted slot tuple view over a schedule's runs.

    A job's slots are expanded from its runs each time they are read.
    """

    __slots__ = ("runs",)

    def __init__(self, runs: Mapping[int, Runs]) -> None:
        self.runs = runs

    def __getitem__(self, jid: int) -> tuple[int, ...]:
        return tuple(slot_list(self.runs[jid]))

    def __iter__(self) -> Iterator[int]:
        return iter(self.runs)

    def __len__(self) -> int:
        return len(self.runs)

    def __repr__(self) -> str:
        return f"SlotView({dict(self.items())!r})"


class Schedule:
    """An assignment of jobs to slots.

    ``Schedule(instance, assignment)`` takes a job id → slots mapping with
    each job's slots in any order; :meth:`from_runs` takes job id → flat
    ranges (:data:`Runs`).

    Attributes
    ----------
    instance:
        The instance this schedule is for.
    runs:
        Maps job id to the sorted ranges the job runs in (touching ranges
        joined), packed flat as :data:`Runs`.
    assignment:
        Maps job id to the sorted tuple of slots the job runs in (a
        read-only view that expands :attr:`runs`).
    """

    __slots__ = (
        "instance", "_runs", "_starts", "_stops", "_active_time", "_violations"
    )

    def __init__(
        self, instance: Instance, assignment: Mapping[int, Iterable[int]]
    ) -> None:
        if isinstance(assignment, SlotView):
            runs = dict(assignment.runs)
        else:
            runs = {jid: runs_from_slots(slots) for jid, slots in assignment.items()}
        self._setup(instance, runs)

    def _setup(self, instance: Instance, runs: dict[int, Runs]) -> None:
        self.instance = instance
        self._runs = runs
        # The load of slot t is (starts <= t) - (stops <= t), so every
        # metric and the capacity check read the sorted endpoints.
        ends = [*chain.from_iterable(runs.values())]
        self._starts = sorted(ends[::2])
        self._stops = sorted(ends[1::2])
        # Pairing the k-th start with the k-th stop keeps the load, and
        # the paired runs are sorted by both ends: the gaps between them
        # are exactly the idle slots inside the span.
        first, last = (self._starts[0], self._stops[-1]) if ends else (0, 0)
        idle = sum(s - e for s, e in zip(self._starts[1:], self._stops) if s > e)
        self._active_time = last - first - idle
        self._violations: tuple[str, ...] | None = None

    @classmethod
    def from_runs(cls, instance: Instance, runs: Mapping[int, Sequence[int]]) -> "Schedule":
        """A schedule from job id → flat ranges (:data:`Runs`), in any order."""
        schedule = cls.__new__(cls)
        schedule._setup(instance, {jid: normalize_runs(r) for jid, r in runs.items()})
        return schedule

    @staticmethod
    def from_assignment(
        instance: Instance, assignment: Mapping[int, Iterable[int]]
    ) -> "Schedule":
        """Normalize an assignment mapping into a :class:`Schedule`.

        Given another schedule's :attr:`assignment`, its runs are reused.
        """
        return Schedule(instance, assignment)

    @property
    def runs(self) -> Mapping[int, Runs]:
        return MappingProxyType(self._runs)

    @property
    def assignment(self) -> SlotView:
        return SlotView(self._runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.instance == other.instance and self._runs == other._runs

    def __repr__(self) -> str:
        return f"Schedule(instance={self.instance!r}, runs={self._runs!r})"

    def __getstate__(self) -> tuple[Instance, dict[int, Runs]]:
        return self.instance, self._runs

    def __setstate__(self, state: tuple[Instance, dict[int, Runs]]) -> None:
        self._setup(*state)

    # -- metrics -----------------------------------------------------------

    @property
    def active_slots(self) -> tuple[int, ...]:
        """Slots with at least one job scheduled, sorted."""
        return tuple(chain.from_iterable(range(a, b) for a, b, _ in self._segments()))

    @property
    def active_time(self) -> int:
        """The objective value: number of active slots."""
        return self._active_time

    def load(self, t: int) -> int:
        """Number of jobs running in slot ``t``."""
        return bisect_right(self._starts, t) - bisect_right(self._stops, t)

    def utilization(self) -> float:
        """Average fraction of capacity used over active slots."""
        if not self._active_time:
            return 0.0
        units = sum(self._stops) - sum(self._starts)
        return units / (self.instance.g * self._active_time)

    def _segments(self) -> list[tuple[int, int, int]]:
        """The maximal ``(start, stop, load)`` ranges of equal positive
        load, sorted: a merge of the sorted starts and stops."""
        starts, stops = self._starts, self._stops
        segments: list[tuple[int, int, int]] = []
        load = at = i = j = 0
        n = len(starts)
        while j < n:
            # At a tie the stop goes first: runs are half-open.
            if i < n and starts[i] < stops[j]:
                t, step = starts[i], 1
                i += 1
            else:
                t, step = stops[j], -1
                j += 1
            if t != at:
                if load:
                    if segments and segments[-1][1] == at and segments[-1][2] == load:
                        segments[-1] = (segments[-1][0], t, load)
                    else:
                        segments.append((at, t, load))
                at = t
            load += step
        return segments

    # -- validation ----------------------------------------------------------

    def violations(self) -> list[str]:
        """All constraint violations (empty list means valid).

        A range ``a..b`` in a message stands for every slot from ``a`` to
        ``b``; one message covers each run outside a window and each range
        of overloaded slots.  A schedule is immutable, so they are found
        once and kept.
        """
        if self._violations is not None:
            return list(self._violations)
        problems: list[str] = []
        runs_of = self._runs
        for job in self.instance.jobs:
            runs = runs_of.get(job.id)
            if runs is None:
                problems.append(f"job {job.id} missing from assignment")
                continue
            r, d = job.release, job.deadline
            if len(runs) == 2 and runs[1] - runs[0] == job.processing:
                if r <= runs[0] and runs[1] <= d:
                    continue  # one run, in the window, of the right length
            units = 0
            reach = float("-inf")
            repeats = False
            outside = ()
            for start, stop in pairs(runs):
                units += stop - start
                if start < reach:
                    repeats = True
                if stop > reach:
                    reach = stop
                if start < r:
                    outside += ((start, min(stop, r)),)
                if stop > d:
                    outside += ((max(start, d), stop),)
            if repeats:
                problems.append(f"job {job.id} repeats a slot")
            if units != job.processing:
                problems.append(f"job {job.id} got {units} slots, needs {job.processing}")
            for start, stop in outside:
                problems.append(
                    f"job {job.id} scheduled at {_span(start, stop)} outside [{r},{d})"
                )
        extra = runs_of.keys() - {j.id for j in self.instance.jobs}
        for jid in sorted(extra):
            problems.append(f"assignment mentions unknown job {jid}")
        g = self.instance.g
        # Some slot runs more than g jobs iff, in sorted order, start
        # number k+g comes before stop number k for some k.
        if any(map(lt, self._starts[g:], self._stops)):
            for start, stop, load in self._segments():
                if load <= g:
                    continue
                if stop - start == 1:
                    problems.append(f"slot {start} runs {load} jobs, capacity is {g}")
                else:
                    problems.append(
                        f"slots {_span(start, stop)} run {load} jobs, capacity is {g}"
                    )
        self._violations = tuple(problems)
        return problems

    @property
    def is_valid(self) -> bool:
        return not self.violations()

    def require_valid(self) -> "Schedule":
        problems = self.violations()
        if problems:
            raise InvalidInstanceError(
                "invalid schedule: " + "; ".join(problems[:5])
            )
        return self
