"""Tests for the online scheduling policies."""

import pytest

from repro.baselines.exact import solve_exact
from repro.instances.families import batched_groups, section5_gap
from repro.instances.generators import laminar_suite, random_general, random_laminar
from repro.instances.jobs import Instance
from repro.online import (
    EagerActivation,
    LazyActivation,
    OnlinePolicy,
    TwinLookahead,
    competitive_ratio,
    run_online,
)
from repro.util.errors import InfeasibleInstanceError


class TestHarness:
    def test_eager_powers_every_busy_slot(self):
        inst = Instance.from_triples([(0, 4, 4)], g=1)
        run = run_online(inst, EagerActivation())
        assert run.active_time == 4

    def test_lazy_defers_slack_jobs(self):
        # One unit job with a wide window: lazy powers exactly one slot.
        inst = Instance.from_triples([(0, 6, 1)], g=1)
        run = run_online(inst, LazyActivation())
        assert run.active_time == 1
        assert run.schedule.active_slots == (5,)  # last feasible moment

    def test_lazy_batches_shared_deadline(self):
        inst = Instance.from_triples([(0, 3, 1)] * 3, g=3)
        run = run_online(inst, LazyActivation())
        assert run.active_time == 1

    def test_capacity_forces_multiple_slots(self):
        # g=1, two unit jobs, same window [0,2): lazy must not wait for
        # both to become critical simultaneously.
        inst = Instance.from_triples([(0, 2, 1), (0, 2, 1)], g=1)
        run = run_online(inst, LazyActivation())
        assert run.active_time == 2
        assert run.schedule.is_valid

    def test_infeasible_instance_detected(self):
        inst = Instance.from_triples([(0, 1, 1), (0, 1, 1)], g=1)
        with pytest.raises(InfeasibleInstanceError):
            run_online(inst, LazyActivation())

    @pytest.mark.parametrize("seed", range(8))
    def test_eager_valid_or_documented_failure(self, seed):
        inst = random_laminar(8, 2, horizon=18, seed=seed)
        try:
            run = run_online(inst, EagerActivation())
        except InfeasibleInstanceError:
            return  # the bounded-capacity impossibility (module docstring)
        assert run.schedule.is_valid

    def test_eager_impossibility(self):
        """Even maximal eagerness strands work: a lone long job cannot use
        both units of a slot, and a late burst needs the lost capacity."""
        inst = random_laminar(8, 2, horizon=18, seed=0)
        with pytest.raises(InfeasibleInstanceError):
            run_online(inst, EagerActivation())

    @pytest.mark.parametrize("seed", range(8))
    def test_both_policies_safe_on_shared_release(self, seed):
        inst = random_laminar(8, 2, horizon=18, seed=seed)
        shared = inst.with_jobs(
            [j.with_window(0, j.deadline) for j in inst.jobs]
        )
        for policy in (EagerActivation(), LazyActivation()):
            assert run_online(shared, policy).schedule.is_valid

    @pytest.mark.parametrize("seed", range(8))
    def test_lazy_valid_or_documented_failure(self, seed):
        """Lazy either succeeds with a valid schedule or reports the
        late-arrival collision — never emits a broken schedule."""
        inst = random_laminar(8, 2, horizon=18, seed=seed)
        try:
            run = run_online(inst, LazyActivation())
        except InfeasibleInstanceError:
            return
        assert run.schedule.is_valid

    def test_handles_non_laminar(self):
        inst = random_general(7, 2, horizon=14, seed=4)
        run = run_online(inst, EagerActivation())
        assert run.schedule.is_valid


class _ScriptedPolicy(OnlinePolicy):
    """Test stub: replay a fixed slot → batch script."""

    name = "scripted"

    def __init__(self, script):
        self.script = script

    def decide(self, t, pending, future_slots, g):
        return self.script.get(t)


class TestHarnessGuards:
    def test_bogus_job_id_names_policy_and_slot(self):
        """A policy inventing a job id used to die with a bare KeyError;
        the harness must instead say who returned what, where."""
        inst = Instance.from_triples([(0, 4, 1)], g=1)
        with pytest.raises(ValueError, match=r"'scripted'.*id 99 at slot 0"):
            run_online(inst, _ScriptedPolicy({0: [99]}))

    def test_zero_work_batch_is_not_an_activation(self):
        """Powering a slot and then running nobody must not be charged:
        activations has to match the schedule's active slots exactly."""
        inst = Instance.from_triples([(0, 6, 1)], g=1)
        script = {0: [0]}
        script.update({t: [] for t in range(1, 6)})  # power on, run nobody
        run = run_online(inst, _ScriptedPolicy(script))
        assert run.activations == [0]
        assert run.schedule.active_slots == (0,)
        assert run.active_time == 1


class TestTwinLookahead:
    def test_twin_policy_on_simple_instance(self):
        inst = Instance.from_triples([(0, 6, 1), (0, 6, 1)], g=2)
        run = run_online(inst, TwinLookahead())
        assert run.schedule.is_valid
        assert run.active_time == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_twin_valid_or_documented_failure(self, seed):
        inst = random_laminar(8, 2, horizon=18, seed=seed)
        policy = TwinLookahead(backend="differential")
        try:
            run = run_online(inst, policy)
        except InfeasibleInstanceError:
            return  # the online impossibility, reported not crashed
        assert run.schedule.is_valid

    @pytest.mark.parametrize("seed", range(6))
    def test_scattered_release_sweep(self, seed):
        """Jobs trickling in one by one (the adversarial online shape):
        every policy either finishes with a valid schedule or raises
        InfeasibleInstanceError — never a stranded-job crash mid-replay."""
        inst = random_general(9, 2, horizon=20, seed=seed + 500)
        for policy in (EagerActivation(), LazyActivation(), TwinLookahead()):
            try:
                run = run_online(inst, policy)
            except InfeasibleInstanceError:
                continue
            assert run.schedule.is_valid
            assert run.activations == list(run.schedule.active_slots)

    @pytest.mark.parametrize(
        "triples, g",
        [
            ([(4, 6, 2), (1, 4, 2), (7, 10, 2), (3, 5, 1), (2, 6, 2),
              (5, 8, 1), (4, 10, 2), (0, 5, 1)], 2),
            ([(7, 12, 5), (6, 9, 3), (4, 5, 1), (6, 10, 2), (3, 10, 4),
              (8, 14, 3), (1, 8, 3), (4, 14, 5), (2, 14, 5), (0, 8, 1)], 4),
        ],
    )
    def test_twin_history_tracks_the_replay(self, triples, g):
        """An arrival must not re-plan the slot the harness just ran: the
        twin would then pick a finished job later on (two smoke-corpus
        instances where it did)."""
        inst = Instance.from_triples(triples, g=g)
        try:
            run = run_online(inst, TwinLookahead())
        except InfeasibleInstanceError:
            return
        assert run.schedule.is_valid

    def test_reset_allows_replaying_another_instance(self):
        policy = TwinLookahead()
        a = Instance.from_triples([(0, 4, 2)], g=1)
        b = Instance.from_triples([(0, 3, 1)], g=1)
        assert run_online(a, policy).schedule.is_valid
        policy.reset()
        assert run_online(b, policy).schedule.is_valid


class TestQuality:
    def test_lazy_never_worse_than_eager_when_it_survives(self):
        compared = 0
        for inst in laminar_suite(seed=9, sizes=(6, 10)):
            try:
                lazy = run_online(inst, LazyActivation()).active_time
            except InfeasibleInstanceError:
                continue
            eager = run_online(inst, EagerActivation()).active_time
            assert lazy <= eager, inst.name
            compared += 1
        assert compared >= 3  # the comparison is not vacuous

    def test_lazy_optimal_on_batched_groups(self):
        inst = batched_groups(4, 3)
        assert run_online(inst, LazyActivation()).active_time == 4

    @pytest.mark.parametrize("seed", range(6))
    def test_measured_competitive_ratio_bounded(self, seed):
        # Shared release time = the class where lazy is provably safe.
        inst = random_laminar(7, 2, horizon=15, seed=seed + 40)
        shared = inst.with_jobs(
            [j.with_window(0, j.deadline) for j in inst.jobs]
        )
        ratio = competitive_ratio(shared, LazyActivation())
        assert 1.0 <= ratio <= 3.0  # empirical envelope on this family

    def test_deferral_impossibility_counterexample(self):
        """No deferring online algorithm survives this input (see module
        docstring); lazy must detect and report the collision."""
        inst = Instance.from_triples([(0, 10, 1), (8, 10, 2)], g=1)
        assert solve_exact(inst).optimum == 3  # offline is fine
        with pytest.raises(InfeasibleInstanceError):
            run_online(inst, LazyActivation())
        # Eager, which never defers, sails through.
        run = run_online(inst, EagerActivation())
        assert run.schedule.is_valid

    def test_lazy_on_gap_family(self):
        inst = section5_gap(3)
        run = run_online(inst, LazyActivation())
        assert run.schedule.is_valid
        opt = solve_exact(inst).optimum
        assert run.active_time >= opt


class TestSafeRatio:
    """Regression: zero-cost optima used to hit ``online / max(opt, 1)``,
    silently wrong when OPT = 0 with positive online cost."""

    def test_zero_over_zero_is_one(self):
        from repro.online import safe_ratio

        assert safe_ratio(0, 0) == 1.0

    def test_positive_over_zero_raises_typed_error(self):
        from repro.online import safe_ratio
        from repro.util.errors import ReproError, ZeroOptimumError

        with pytest.raises(ZeroOptimumError):
            safe_ratio(3, 0)
        # Typed: catchable via the library base class, not ZeroDivisionError.
        assert issubclass(ZeroOptimumError, ReproError)
        assert not issubclass(ZeroOptimumError, ZeroDivisionError)

    def test_ordinary_ratio_unchanged(self):
        from repro.online import safe_ratio

        assert safe_ratio(9, 5) == pytest.approx(1.8)

    def test_competitive_ratio_on_zero_job_instance(self):
        empty = Instance(jobs=(), g=1, name="empty")
        assert competitive_ratio(empty, LazyActivation()) == 1.0

    def test_run_online_zero_job_instance(self):
        empty = Instance(jobs=(), g=2, name="empty")
        run = run_online(empty, EagerActivation())
        assert run.active_time == 0
        assert run.activations == []


class TestNewActivationRules:
    def shared(self, seed):
        inst = random_laminar(7, 2, horizon=15, seed=seed + 40)
        return inst.with_jobs(
            [j.with_window(0, j.deadline) for j in inst.jobs]
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_lookahead_depth_one_equals_lazy(self, seed):
        from repro.online import LookaheadActivation

        inst = self.shared(seed)
        lazy = run_online(inst, LazyActivation())
        look = run_online(inst, LookaheadActivation(depth=1))
        assert look.activations == lazy.activations
        assert look.schedule.assignment == lazy.schedule.assignment

    @pytest.mark.parametrize("seed", range(4))
    def test_rules_valid_and_never_beat_opt_on_shared_release(self, seed):
        from repro.online import (
            DensestWindowActivation,
            EDFActivation,
            LookaheadActivation,
            ThresholdActivation,
        )

        inst = self.shared(seed)
        opt = solve_exact(inst).optimum
        for policy in (
            EDFActivation(),
            DensestWindowActivation(),
            ThresholdActivation(),
            LookaheadActivation(depth=2),
        ):
            run = run_online(inst, policy)
            assert run.schedule.is_valid
            assert opt <= run.active_time

    def test_rule_parameter_validation(self):
        from repro.online import (
            DensestWindowActivation,
            EDFActivation,
            LookaheadActivation,
            ThresholdActivation,
        )

        with pytest.raises(ValueError):
            EDFActivation(urgency=-1)
        with pytest.raises(ValueError):
            DensestWindowActivation(threshold=0.0)
        with pytest.raises(ValueError):
            ThresholdActivation(fill=1.5)
        with pytest.raises(ValueError):
            LookaheadActivation(depth=0)

    def test_decide_sees_snapshots_not_the_ledger(self):
        """Copy-on-advance: a policy that zeroes its pending view must
        not corrupt the harness's own remaining-work accounting."""

        class Vandal(EagerActivation):
            name = "vandal"

            def want_power(self, t, runnable, later, g):
                for job in runnable:
                    job.remaining = 0
                    job.deadline = t  # also try to wreck the windows
                return True

        inst = Instance.from_triples([(0, 4, 2), (0, 4, 2)], g=1)
        run = run_online(inst, Vandal())
        assert run.schedule.is_valid
        assert run.active_time == 4
