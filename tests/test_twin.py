"""Tests for the rescheduling digital twin (:mod:`repro.twin`)."""

import json

import pytest

from repro.baselines.exact import solve_exact
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance, Job
from repro.simulate.machine import BatchMachine
from repro.twin import (
    JobArrived,
    JobCancelled,
    SlotTick,
    TwinSession,
    TwinTrace,
    WindowSlipped,
    count_kinds,
    dump_trace,
    event_from_dict,
    event_to_dict,
    load_trace,
    random_trace,
    trace_from_instance,
    twin_fingerprint,
)
from repro.util.errors import InfeasibleInstanceError, InvalidInstanceError
from repro.verify.fuzz import TwinFuzzConfig, run_twin_fuzz, twin_trace_for
from repro.verify.reference import (
    ColdTwinSession,
    TwinMismatchError,
    cross_check_twin,
)

def checked_replay(session, events, *, strict=False):
    """Apply each event and cross-check it from scratch."""
    diffs = []
    for event in events:
        diff = session.apply(event)
        cross_check_twin(session, diff)
        if strict and not diff.accepted:
            raise InfeasibleInstanceError(diff.detail)
        diffs.append(diff)
    return diffs


class TestEvents:
    def test_event_round_trip(self):
        events = [
            JobArrived(Job(id=3, release=1, deadline=5, processing=2)),
            JobCancelled(job_id=3),
            WindowSlipped(job_id=3, release=2, deadline=7),
            SlotTick(until=4),
        ]
        for event in events:
            assert event_from_dict(event_to_dict(event)) == event

    def test_unknown_event_kind_rejected(self):
        with pytest.raises(InvalidInstanceError, match="unknown twin event"):
            event_from_dict({"type": "job_teleported"})

    def test_malformed_event_rejected(self):
        with pytest.raises(InvalidInstanceError, match="malformed"):
            event_from_dict({"type": "slot_tick"})  # missing "until"

    def test_trace_file_round_trip(self, tmp_path):
        trace = random_trace(30, 2, seed=7, name="rt")
        path = tmp_path / "trace.json"
        dump_trace(trace, path)
        loaded = load_trace(path)
        assert loaded == trace
        assert loaded.name == "rt"
        doc = json.loads(path.read_text())
        assert doc["kind"] == "twin-event-log"

    def test_random_trace_is_pure(self):
        a = random_trace(40, 3, seed=11)
        b = random_trace(40, 3, seed=11)
        assert a == b
        assert random_trace(40, 3, seed=12) != a

    def test_count_kinds_partitions_trace(self):
        trace = random_trace(50, 2, seed=3)
        counts = count_kinds(trace.events)
        assert sum(counts.values()) == len(trace) == 50

    def test_bad_capacity_rejected(self):
        with pytest.raises(InvalidInstanceError):
            TwinTrace(g=0, events=())


class TestSessionBasics:
    def test_arrival_plans_complete_schedule(self):
        session = TwinSession(2)
        diff = session.apply(JobArrived(Job(id=0, release=0, deadline=4, processing=2)))
        assert diff.accepted
        assert session.active_time == 2
        assert len(session.planned_assignment()[0]) == 2
        session.planned_schedule()  # validates internally

    def test_tick_commits_and_finishes(self):
        session = TwinSession(1)
        session.apply(JobArrived(Job(id=0, release=0, deadline=2, processing=2)))
        diff = session.apply(SlotTick(until=2))
        assert diff.accepted
        assert [t for t, _ in diff.committed] == [0, 1]
        assert session.job_view(0).status == "finished"
        assert session.active_time == 2
        assert session.history() == {0: (0,), 1: (0,)}

    def test_cancellation_releases_slots(self):
        session = TwinSession(1)
        session.apply(JobArrived(Job(id=0, release=0, deadline=6, processing=3)))
        assert session.active_time == 3
        diff = session.apply(JobCancelled(job_id=0))
        assert diff.accepted
        assert session.active_time == 0
        assert session.job_view(0).status == "cancelled"

    def test_slip_moves_plan(self):
        session = TwinSession(1)
        session.apply(JobArrived(Job(id=0, release=0, deadline=3, processing=1)))
        diff = session.apply(WindowSlipped(job_id=0, release=5, deadline=8))
        assert diff.accepted
        (slot,) = session.planned_assignment()[0]
        assert 5 <= slot < 8

    def test_duplicate_arrival_raises(self):
        session = TwinSession(1)
        job = Job(id=0, release=0, deadline=4, processing=1)
        session.apply(JobArrived(job))
        with pytest.raises(ValueError, match="duplicate arrival"):
            session.apply(JobArrived(job))

    def test_unknown_ids_raise(self):
        session = TwinSession(1)
        with pytest.raises(ValueError, match="unknown job id"):
            session.apply(JobCancelled(job_id=9))
        with pytest.raises(ValueError, match="unknown job id"):
            session.apply(WindowSlipped(job_id=9, release=0, deadline=4))

    def test_backwards_tick_raises(self):
        session = TwinSession(1, start=5)
        with pytest.raises(ValueError, match="backwards"):
            session.apply(SlotTick(until=3))

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            TwinSession(0)


class TestAdmissionControl:
    def test_late_arrival_window_rejected(self):
        # The job's own window is fine, but the session clock has already
        # passed most of it: the clamped window cannot hold the work.
        session = TwinSession(1, start=1)
        diff = session.apply(
            JobArrived(Job(id=0, release=0, deadline=2, processing=2))
        )
        assert not diff.accepted
        assert "cannot hold" in diff.detail
        assert session.active_time == 0

    @pytest.mark.parametrize("mode", ("incremental", "cold", "differential"))
    def test_overload_rejected_state_unchanged(self, mode):
        """Incremental repair, the cold re-solve oracle, and incremental
        repair cross-checked after every event."""
        session = (ColdTwinSession if mode == "cold" else TwinSession)(1)
        replay = checked_replay if mode == "differential" else TwinSession.replay
        replay(session, [JobArrived(Job(id=0, release=0, deadline=2, processing=2))])
        plan_before = session.planned_assignment()
        (diff,) = replay(
            session, [JobArrived(Job(id=1, release=0, deadline=2, processing=1))]
        )
        assert not diff.accepted
        assert session.planned_assignment() == plan_before
        assert session.counters["rejected"] == 1

    def test_strict_raises_on_rejection(self):
        session = TwinSession(1, start=1)
        with pytest.raises(InfeasibleInstanceError):
            session.apply(
                JobArrived(Job(id=0, release=0, deadline=2, processing=2)),
                strict=True,
            )

    def test_infeasible_slip_rejected_window_kept(self):
        session = TwinSession(1)
        session.apply(JobArrived(Job(id=0, release=0, deadline=6, processing=3)))
        diff = session.apply(WindowSlipped(job_id=0, release=4, deadline=6))
        assert not diff.accepted
        assert session.job_view(0).window == (0, 6)

    def test_rejected_id_followups_are_noops(self):
        """Cancel/slip aimed at a rejected arrival must not crash replay."""
        session = TwinSession(1, start=1)
        session.apply(JobArrived(Job(id=7, release=0, deadline=2, processing=2)))
        cancel = session.apply(JobCancelled(job_id=7))
        slip = session.apply(WindowSlipped(job_id=7, release=0, deadline=9))
        assert cancel.accepted and "rejected at arrival" in cancel.detail
        assert slip.accepted and "rejected at arrival" in slip.detail
        assert session.active_time == 0


class TestBackendsAgree:
    """Incremental repair agrees with its oracles: the cold re-solve and
    the per-event cross-check."""

    @pytest.mark.parametrize("seed", range(4))
    def test_static_instance_anchor(self, seed):
        """On a batch workload the twin, the cold re-solve and the
        cross-checked twin plan valid schedules with the same active
        time, and the offline exact solver lower-bounds it."""
        inst = random_laminar(8, 2, horizon=18, seed=seed + 70)
        arrivals = [JobArrived(j) for j in sorted(inst.jobs, key=lambda j: j.id)]
        try:
            sessions = [
                TwinSession.from_instance(inst),
                ColdTwinSession.from_instance(inst),
            ]
        except InfeasibleInstanceError:
            pytest.skip("offline-infeasible draw")
        checked = TwinSession(inst.g, start=inst.horizon.start)
        checked_replay(checked, arrivals, strict=True)
        times = set()
        for session in sessions + [checked]:
            session.planned_schedule()
            times.add(session.active_time)
        assert len(times) == 1
        assert times.pop() >= solve_exact(inst).optimum

    def test_from_instance_replay_completes_all_work(self):
        inst = Instance.from_triples([(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2)
        trace = trace_from_instance(inst)
        session = TwinSession(trace.g, start=trace.start)
        checked_replay(session, trace.events, strict=True)
        assert all(r.status == "finished" for r in session.jobs())
        assert session.counters["committed_units"] == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_differential_replay_clean(self, seed):
        """Random dynamic traces replay with every event cross-checked
        against the from-scratch flow path — zero mismatches."""
        trace = random_trace(50, 3, seed=seed + 100)
        session = TwinSession(trace.g)
        diffs = checked_replay(session, trace.events)
        assert len(diffs) == 50
        assert session.counters["events"] == 50

    @pytest.mark.parametrize("seed", range(4))
    def test_replay_deterministic_across_backends(self, seed):
        """The diff stream is a pure function of the event log, and
        cross-checking every event never changes it."""
        trace = random_trace(45, 2, seed=seed + 200)
        fingerprints = set()
        for replay in (TwinSession.replay, checked_replay):
            for _ in range(2):
                session = TwinSession(trace.g)
                fingerprints.add(twin_fingerprint(replay(session, trace.events)))
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_machine_audits_committed_history(self, seed):
        trace = random_trace(60, 3, seed=seed + 300)
        session = TwinSession(trace.g)
        session.replay(trace)
        sim = BatchMachine(trace.g).audit_twin(session)
        assert sim.active_slots == len(session.committed_slots)


def _failing_grow(min_jobs):
    """Planted fault: ``_grow`` fails once the session holds ``min_jobs``
    jobs, so repair rejects feasible work."""
    real_grow = TwinSession._grow

    def grow(self, prefer):
        if len(self._jobs) < min_jobs:
            return real_grow(self, prefer)
        return False, []

    return grow


class _DropsASlot(TwinSession):
    """Planted fault: the synced plan loses its latest open slot."""

    def _settle(self):
        super()._settle()
        if self._open:
            self._open.discard(max(self._open))


class TestOracleCatchesFaults:
    def test_rejected_feasible_arrival_caught(self, monkeypatch):
        monkeypatch.setattr(TwinSession, "_grow", _failing_grow(0))
        session = TwinSession(1)
        event = JobArrived(Job(id=0, release=0, deadline=4, processing=1))
        diff = session.apply(event)
        assert not diff.accepted
        with pytest.raises(TwinMismatchError, match="rejected") as info:
            cross_check_twin(session, diff)
        assert info.value.event == event

    def test_infeasible_plan_caught(self):
        session = _DropsASlot(1)
        event = JobArrived(Job(id=0, release=0, deadline=2, processing=2))
        diff = session.apply(event)
        assert diff.accepted
        assert session.open_slots == (0,)
        with pytest.raises(TwinMismatchError, match="reference flow rejects"):
            cross_check_twin(session, diff)

    def test_twin_fuzz_reports_the_failing_event(self, monkeypatch):
        """Armed from the third job on, so the campaign counts clean
        events before the failing one."""
        monkeypatch.setattr(TwinSession, "_grow", _failing_grow(3))
        config = TwinFuzzConfig(n_traces=1, n_events=30, seed=5)
        result = run_twin_fuzz(config)
        assert not result.ok
        (mismatch,) = result.mismatches
        assert mismatch["trace"] == 0
        assert "rejected" in mismatch["error"]
        # The failing event is reported by index and is not counted.
        assert mismatch["event_index"] == result.events > 0
        assert result.accepted + result.rejected == result.events
        assert isinstance(
            twin_trace_for(config, 0).events[mismatch["event_index"]],
            JobArrived,
        )


class TestTwinFuzz:
    def test_small_campaign_clean(self):
        result = run_twin_fuzz(TwinFuzzConfig(n_traces=3, n_events=30, seed=5))
        assert result.ok
        assert result.events == 90
        assert result.traces == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TwinFuzzConfig(n_traces=0)
