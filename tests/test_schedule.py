"""Unit tests for Schedule representation and independent validation."""

import pickle
import re
from pathlib import Path

import pytest

from repro.core.schedule import Schedule, pairs
from repro.instances.jobs import Instance
from repro.util.errors import InvalidInstanceError
from repro.verify.reference import reference_violations

CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"


@pytest.fixture()
def inst():
    return Instance.from_triples([(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2)


class TestScheduleMetrics:
    def test_active_time_counts_distinct_slots(self, inst):
        s = Schedule.from_assignment(inst, {0: [0, 2], 1: [0], 2: [2]})
        assert s.active_time == 2
        assert s.active_slots == (0, 2)

    def test_load(self, inst):
        s = Schedule.from_assignment(inst, {0: [0, 2], 1: [0], 2: [2]})
        assert s.load(0) == 2
        assert s.load(1) == 0

    def test_utilization(self, inst):
        s = Schedule.from_assignment(inst, {0: [0, 2], 1: [0], 2: [2]})
        assert s.utilization() == pytest.approx(1.0)  # 4 units / (2*2)

    def test_empty_schedule(self, inst):
        empty = inst.with_jobs([])
        s = Schedule.from_assignment(empty, {})
        assert s.active_time == 0
        assert s.utilization() == 0.0


class TestScheduleValidation:
    def test_valid(self, inst):
        s = Schedule.from_assignment(inst, {0: [0, 2], 1: [0], 2: [2]})
        assert s.is_valid
        s.require_valid()

    def test_missing_job(self, inst):
        s = Schedule.from_assignment(inst, {0: [0, 2], 1: [0]})
        assert any("missing" in v for v in s.violations())

    def test_wrong_volume(self, inst):
        s = Schedule.from_assignment(inst, {0: [0], 1: [0], 2: [2]})
        assert any("needs 2" in v for v in s.violations())

    def test_outside_window(self, inst):
        s = Schedule.from_assignment(inst, {0: [0, 2], 1: [3], 2: [2]})
        assert any("outside" in v for v in s.violations())

    def test_capacity_violation(self, inst):
        s = Schedule.from_assignment(inst, {0: [0, 1], 1: [0], 2: [2]})
        # slot 0 now has jobs 0 and 1; add a third via unknown? craft load:
        s2 = Schedule.from_assignment(
            inst, {0: [2, 3], 1: [1], 2: [2]}
        )
        # slot 2 runs jobs 0 and 2 (ok, g=2); craft a real violation:
        bad = Schedule.from_assignment(inst, {0: [2, 0], 1: [2], 2: [2]})
        assert any("capacity" in v for v in bad.violations())
        assert s.is_valid and s2.is_valid

    def test_unknown_job(self, inst):
        s = Schedule.from_assignment(
            inst, {0: [0, 2], 1: [0], 2: [2], 99: [1]}
        )
        assert any("unknown job 99" in v for v in s.violations())

    def test_repeated_slot(self, inst):
        s = Schedule(instance=inst, assignment={0: (0, 0), 1: (1,), 2: (2,)})
        assert any("repeats" in v for v in s.violations())

    def test_require_valid_raises(self, inst):
        s = Schedule.from_assignment(inst, {})
        with pytest.raises(InvalidInstanceError):
            s.require_valid()

    def test_from_assignment_sorts_slots(self, inst):
        s = Schedule.from_assignment(inst, {0: [2, 0], 1: [0], 2: [3]})
        assert s.assignment[0] == (0, 2)


def _facts(messages):
    """The (kind, subject, ...) facts a list of violation messages states,
    one per job or per slot, so per-slot and per-range messages compare."""

    def slots(span):
        first, _, last = span.partition("..")
        return range(int(first), int(last or first) + 1)

    facts = set()
    for msg in messages:
        if m := re.fullmatch(r"job (-?\d+) scheduled at (\S+) outside \S+", msg):
            facts.update(("outside", int(m[1]), t) for t in slots(m[2]))
        elif m := re.fullmatch(r"slots? (\S+) runs? (\d+) jobs, capacity is \d+", msg):
            facts.update(("overload", t, int(m[2])) for t in slots(m[1]))
        else:
            facts.add(msg)
    return facts


def _valid_schedules():
    """Schedules from the 9/5 algorithm, the baselines and the corpus."""
    from repro.baselines.kumar_khuller import kumar_khuller_schedule
    from repro.baselines.minimal_feasible import minimal_feasible_schedule
    from repro.baselines.unit_jobs import unit_lazy_schedule
    from repro.core.algorithm import solve_nested
    from repro.corpus.store import iter_corpus
    from repro.instances.generators import random_laminar, random_unit_laminar

    for seed in range(6):
        inst = random_laminar(10, 2 + seed % 3, horizon=30, seed=seed)
        yield solve_nested(inst).schedule
        yield kumar_khuller_schedule(inst)
        yield minimal_feasible_schedule(inst)
        yield unit_lazy_schedule(random_unit_laminar(10, 3, horizon=12, seed=seed))
    for entry in iter_corpus(CORPUS, limit=150):
        inst = entry.instance()
        if inst.is_laminar:
            yield solve_nested(inst).schedule
        yield minimal_feasible_schedule(inst)


def _mutations(schedule):
    """One broken copy of ``schedule`` per kind of mistake."""
    inst = schedule.instance
    slots = {jid: list(ts) for jid, ts in schedule.assignment.items()}
    jid = next(j.id for j in inst.jobs if slots[j.id])
    job = next(j for j in inst.jobs if j.id == jid)
    t = slots[jid][0]
    yield "drop a unit", {**slots, jid: slots[jid][1:]}
    yield "duplicate a unit", {**slots, jid: slots[jid] + [t]}
    yield "shift out of the window", {**slots, jid: slots[jid][1:] + [job.deadline]}
    crowded = {j: list(ts) for j, ts in slots.items()}
    others = [j.id for j in inst.jobs] * (inst.g + 1)
    while sum(ts.count(t) for ts in crowded.values()) <= inst.g:
        crowded[others.pop()].append(t)
    yield "overload a slot by one", crowded
    yield "add an unknown job", {**slots, max(slots) + 1: [t]}
    yield "remove a job", {j: ts for j, ts in slots.items() if j != jid}


class TestRunsAgainstPerSlotOracle:
    """The run-based validator against the per-slot one in
    ``repro.verify.reference``: same verdicts, same jobs, same slots."""

    def test_valid_and_mutated_schedules(self):
        caught: dict[str, int] = {}
        checked = 0
        for schedule in _valid_schedules():
            inst = schedule.instance
            assert schedule.violations() == []
            assert reference_violations(inst, schedule.assignment) == []
            for kind, slots in _mutations(schedule):
                broken = Schedule.from_assignment(inst, slots)
                got = broken.violations()
                assert _facts(got) == _facts(reference_violations(inst, slots)), kind
                caught[kind] = caught.get(kind, 0) + bool(got)
            checked += 1
        assert checked == 290
        assert caught == {kind: checked for kind in caught} and len(caught) == 6

    def test_ranges_in_messages(self, inst):
        s = Schedule.from_runs(inst, {0: (2, 6), 1: (0, 1), 2: (2, 3)})
        assert s.violations() == [
            "job 0 got 4 slots, needs 2",
            "job 0 scheduled at 4..5 outside [0,4)",
        ]
        crowded = Schedule.from_runs(inst, {0: (0, 2), 1: (0, 2), 2: (0, 2)})
        assert "slots 0..1 run 3 jobs, capacity is 2" in crowded.violations()


class TestRuns:
    def test_runs_and_assignment_views(self, inst):
        s = Schedule.from_runs(inst, {0: (2, 3, 0, 1), 1: (0, 1), 2: (2, 3)})
        assert s.runs[0] == (0, 1, 2, 3)
        assert list(pairs(s.runs[0])) == [(0, 1), (2, 3)]
        assert s.assignment == {0: (0, 2), 1: (0,), 2: (2,)}
        assert s == Schedule.from_assignment(inst, {0: [2, 0], 1: [0], 2: [2]})
        with pytest.raises(TypeError):
            s.runs[0] = ()  # type: ignore[index]

    def test_touching_runs_join_and_empty_runs_drop(self, inst):
        s = Schedule.from_runs(inst, {0: (1, 2, 0, 1, 3, 3)})
        assert s.runs[0] == (0, 2)

    def test_from_assignment_reuses_the_runs_of_a_view(self, inst):
        s = Schedule.from_runs(inst, {0: (0, 10**9)})
        again = Schedule.from_assignment(inst, s.assignment)
        assert again.runs[0] is s.runs[0]
        assert again.active_time == 10**9

    def test_metrics_from_the_sweep(self, inst):
        s = Schedule.from_runs(inst, {0: (0, 2), 1: (1, 3), 2: (5, 6)})
        assert s.active_time == 4
        assert s.active_slots == (0, 1, 2, 5)
        assert [s.load(t) for t in range(-1, 7)] == [0, 1, 2, 1, 0, 0, 1, 0]
        assert s.utilization() == pytest.approx(5 / (2 * 4))

    def test_repeated_slot_survives_conversion(self, inst):
        s = Schedule.from_assignment(inst, {0: [1, 1, 2], 1: [0], 2: [2]})
        assert s.assignment[0] == (1, 1, 2)
        assert s.load(1) == 2
        assert "job 0 repeats a slot" in s.violations()
        assert s.runs[0] == (1, 2, 1, 3)
        assert Schedule.from_runs(inst, {0: (1, 3, 1, 2), 1: (0, 1), 2: (2, 3)}) == s

    def test_pickle_roundtrip(self, inst):
        s = Schedule.from_runs(inst, {0: (0, 1, 2, 3), 1: (0, 1), 2: (2, 3)})
        again = pickle.loads(pickle.dumps(s))
        assert again == s and again.active_time == 2 and again.is_valid
