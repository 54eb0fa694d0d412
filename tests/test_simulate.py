"""Unit tests for the batch-machine simulator."""

import pytest

from repro.core.algorithm import solve_nested
from repro.core.schedule import Schedule
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance
from repro.simulate.machine import BatchMachine
from repro.util.errors import InvalidInstanceError


@pytest.fixture()
def inst():
    return Instance.from_triples([(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2)


class TestRun:
    def test_accounting_matches_schedule(self, inst):
        sched = Schedule.from_assignment(inst, {0: [0, 2], 1: [0], 2: [2]})
        sim = BatchMachine(g=2).run(sched)
        assert sim.active_slots == sched.active_time == 2
        assert sim.energy == 2.0
        assert sim.total_units == 4
        assert sim.all_finished
        assert sim.utilization(2) == pytest.approx(1.0)

    def test_power_scaling(self, inst):
        sched = Schedule.from_assignment(inst, {0: [0, 2], 1: [0], 2: [2]})
        sim = BatchMachine(g=2, power_per_slot=3.5).run(sched)
        assert sim.energy == pytest.approx(7.0)

    def test_preemption_counting(self):
        big = Instance.from_triples([(0, 6, 2)], g=1)
        contiguous = Schedule.from_assignment(big, {0: [2, 3]})
        split = Schedule.from_assignment(big, {0: [0, 5]})
        assert BatchMachine(g=1).run(contiguous).preemptions == 0
        assert BatchMachine(g=1).run(split).preemptions == 1

    def test_incomplete_schedule_reports_remaining(self, inst):
        partial = Schedule.from_assignment(inst, {0: [0], 1: [0], 2: [2]})
        sim = BatchMachine(g=2).run(partial)
        assert not sim.all_finished
        assert sim.remaining[0] == 1


class TestIdleGaps:
    def test_gap_slots_emit_powered_off_events(self):
        big = Instance.from_triples([(0, 6, 2)], g=1)
        split = Schedule.from_assignment(big, {0: [0, 5]})
        sim = BatchMachine(g=1).run(split)
        # The trace covers the whole active span 0..5; the machine is a
        # real (powered-down) state in the four middle slots.
        assert [e.slot for e in sim.events] == [0, 1, 2, 3, 4, 5]
        assert [e.powered for e in sim.events] == [True] + [False] * 4 + [True]
        assert all(e.running == () for e in sim.events if not e.powered)

    def test_idle_slots_cost_no_energy(self):
        big = Instance.from_triples([(0, 6, 2)], g=1)
        split = Schedule.from_assignment(big, {0: [0, 5]})
        sim = BatchMachine(g=1, power_per_slot=2.0).run(split)
        assert sim.active_slots == 2  # powered slots only
        assert sim.energy == pytest.approx(4.0)
        assert sim.utilization(1) == pytest.approx(1.0)

    def test_empty_schedule_has_empty_trace(self):
        inst = Instance(jobs=(), g=1)
        sim = BatchMachine(g=1).run(Schedule.from_assignment(inst, {}))
        assert sim.events == []
        assert sim.active_slots == 0


class TestViolations:
    def test_capacity_mismatch(self, inst):
        sched = Schedule.from_assignment(inst, {0: [0, 2], 1: [0], 2: [2]})
        with pytest.raises(InvalidInstanceError):
            BatchMachine(g=3).run(sched)

    def test_overload_detected(self, inst):
        bad = Schedule.from_assignment(inst, {0: [2, 3], 1: [1], 2: [2]})
        # slots fine here; force overload instead:
        bad2 = Schedule.from_assignment(inst, {0: [2, 1], 1: [1], 2: [2]})
        # slot 1: jobs 0 and 1 → load 2 ≤ g, still fine; craft direct:
        worst = Schedule.from_assignment(inst, {0: [2, 0], 1: [0], 2: [2]})
        # slot 0: jobs 0,1 → 2 ok; slot 2: jobs 0,2 → 2 ok. Use g=1 machine:
        with pytest.raises(InvalidInstanceError):
            BatchMachine(g=1).run(worst)
        assert bad.is_valid and bad2.is_valid  # sanity on the setups

    def test_window_violation_detected(self, inst):
        outside = Schedule.from_assignment(inst, {0: [0, 2], 1: [3], 2: [2]})
        with pytest.raises(InvalidInstanceError):
            BatchMachine(g=2).run(outside)

    def test_unknown_job_detected(self, inst):
        ghost = Schedule.from_assignment(inst, {99: [0]})
        with pytest.raises(InvalidInstanceError):
            BatchMachine(g=2).run(ghost)

    def test_overrun_detected(self, inst):
        toomuch = Schedule.from_assignment(inst, {0: [0, 1, 2], 1: [0], 2: [2]})
        with pytest.raises(InvalidInstanceError):
            BatchMachine(g=2).run(toomuch)

    def test_bad_capacity_rejected(self):
        with pytest.raises(InvalidInstanceError):
            BatchMachine(g=0)


class TestTwinAudit:
    def test_audit_accepts_clean_session(self):
        from repro.twin import TwinSession, trace_from_instance

        inst = Instance.from_triples([(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2)
        session = TwinSession(2)
        session.replay(trace_from_instance(inst), strict=True)
        sim = BatchMachine(g=2).audit_twin(session)
        assert sim.all_finished
        assert sim.active_slots == len(session.committed_slots)
        assert sim.total_units == session.counters["committed_units"]

    def test_audit_rejects_capacity_mismatch(self):
        from repro.twin import TwinSession

        with pytest.raises(InvalidInstanceError, match="capacity"):
            BatchMachine(g=1).audit_twin(TwinSession(2))

    def test_audit_catches_tampered_history(self):
        from repro.twin import JobArrived, SlotTick, TwinSession
        from repro.instances.jobs import Job

        session = TwinSession(1)
        session.apply(JobArrived(Job(id=0, release=0, deadline=2, processing=1)))
        session.apply(SlotTick(until=2))
        (slot,) = session.committed_slots
        # Forge a duplicate run into the executed trace; the independent
        # audit must refuse what the twin's own bookkeeping would miss.
        session._history[slot] = (0, 0)
        with pytest.raises(InvalidInstanceError, match="duplicate"):
            BatchMachine(g=1).audit_twin(session)


    def test_audit_rejects_a_run_before_arrival(self):
        from repro.twin import JobArrived, SlotTick, TwinSession
        from repro.instances.jobs import Job

        session = TwinSession(1)
        session.apply(SlotTick(until=3))
        session.apply(JobArrived(Job(id=0, release=0, deadline=6, processing=1)))
        session.apply(SlotTick(until=6))
        (slot,) = session.committed_slots
        assert slot >= 3
        BatchMachine(g=1).audit_twin(session)
        # Forge the run back to slot 1: the job arrived, and was released,
        # at the twin clock 3.  Units, capacity and deadline still hold.
        del session._history[slot]
        session._history[1] = (0,)
        with pytest.raises(InvalidInstanceError, match="before it arrived at 3"):
            BatchMachine(g=1).audit_twin(session)


class TestIntegrationWithSolver:
    @pytest.mark.parametrize("seed", range(4))
    def test_solver_output_executes_cleanly(self, seed):
        inst = random_laminar(10, 3, horizon=22, seed=seed)
        result = solve_nested(inst)
        sim = BatchMachine(g=inst.g).run(result.schedule)
        assert sim.all_finished
        assert sim.active_slots == result.active_time
