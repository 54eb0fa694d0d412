"""Unit tests for greedy deactivation (CKM 3-approx) and its orders."""

import math
import random
from pathlib import Path

import pytest

from repro import obs
from repro.baselines.exact import solve_exact
from repro.baselines.minimal_feasible import (
    best_of_orders,
    is_minimal_feasible,
    minimal_feasible_schedule,
    minimal_feasible_slots,
)
from repro.corpus.store import iter_corpus
from repro.flow.feasibility import coverage_segments
from repro.instances.generators import laminar_suite, random_general
from repro.instances.jobs import Instance, Job
from repro.util.errors import InfeasibleInstanceError
from repro.verify.fuzz import FuzzConfig, sample_instance
from repro.verify.reference import (
    covered_slots,
    reference_minimal_feasible_slots,
    reference_slot_feasible,
)

CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"
ORDERS = ("given", "left_to_right", "right_to_left", "densest_first", "sparsest_first")


class TestCoveredSlots:
    def test_union_of_windows(self):
        inst = Instance.from_triples([(0, 2, 1), (5, 7, 1)], g=1)
        assert covered_slots(inst) == [0, 1, 5, 6]


class TestMinimality:
    @pytest.mark.parametrize("order", ["given", "right_to_left", "densest_first"])
    def test_result_is_minimal_feasible(self, order, medium_laminar):
        slots = minimal_feasible_slots(medium_laminar, order)
        assert is_minimal_feasible(medium_laminar, slots)

    def test_three_approx_guarantee_on_suite(self):
        for inst in laminar_suite(seed=5, sizes=(6, 10)):
            slots = minimal_feasible_slots(inst, "given")
            opt = solve_exact(inst).optimum
            assert len(slots) <= 3 * opt, inst.name

    def test_works_on_non_laminar(self):
        inst = random_general(8, 2, horizon=14, seed=6)
        slots = minimal_feasible_slots(inst, "left_to_right")
        assert is_minimal_feasible(inst, slots)

    def test_infeasible_instance_raises(self):
        inst = Instance(
            jobs=(
                Job(id=0, release=0, deadline=1, processing=1),
                Job(id=1, release=0, deadline=1, processing=1),
            ),
            g=1,
        )
        with pytest.raises(InfeasibleInstanceError):
            minimal_feasible_slots(inst)

    def test_probes_grow_with_segments_not_slots(self):
        """T = 10⁶: one whole-set probe, then at most ⌈log2(len + 1)⌉
        probes per coverage segment."""
        rng = random.Random(6)
        jobs = []
        for k in range(12):
            release = rng.randrange(0, 900_000)
            deadline = release + rng.randint(1_000, 100_000)
            jobs.append(Job(k, release, deadline, rng.randint(1, 500)))
        jobs.append(Job(12, 0, 1_000_000, 2_000))
        inst = Instance(jobs=tuple(jobs), g=2)
        starts, ends, _ = coverage_segments(inst)
        bound = sum(
            math.ceil(math.log2(length + 1))
            for length in (ends - starts).tolist()
        )
        with obs.scope() as counted:
            slots = minimal_feasible_slots(inst, "right_to_left")
        probes = counted["flow"]["probes"]
        assert probes <= 1 + bound < 1_000
        assert len(slots) >= inst.total_volume / inst.g


class TestAgainstSlotBySlotReference:
    """The per-segment search keeps exactly the slots the slot-by-slot
    pass keeps, for every order."""

    def _assert_same(self, inst, order):
        try:
            expected = reference_minimal_feasible_slots(inst, order)
        except InfeasibleInstanceError:
            with pytest.raises(InfeasibleInstanceError):
                minimal_feasible_slots(inst, order)
            return
        assert minimal_feasible_slots(inst, order) == expected, (inst.name, order)

    @pytest.mark.parametrize("order", ORDERS)
    def test_smoke_corpus(self, order):
        entries = list(iter_corpus(CORPUS))
        assert len(entries) == 450
        for entry in entries:
            self._assert_same(entry.instance(), order)

    @pytest.mark.parametrize("family", ["general", "tight"])
    def test_fuzz_families(self, family):
        config = FuzzConfig(n_instances=60, seed=24, family=family, max_jobs=12)
        for index in range(60):
            inst = sample_instance(config, index)
            for order in ORDERS:
                self._assert_same(inst, order)

    def test_is_minimal_feasible_matches_per_slot_check(self):
        """Segment counts against one per-slot network per removal, on
        greedy outputs and on those outputs plus one slot."""
        rng = random.Random(24)

        def per_slot(inst, slots):
            slot_set = set(slots)
            if not reference_slot_feasible(inst, sorted(slot_set)):
                return False
            return all(
                not reference_slot_feasible(inst, sorted(slot_set - {t}))
                for t in slot_set
            )

        checked = 0
        for k, entry in enumerate(iter_corpus(CORPUS)):
            if k % 3:
                continue
            inst = entry.instance()
            try:
                slots = minimal_feasible_slots(inst, ORDERS[k % len(ORDERS)])
            except InfeasibleInstanceError:
                continue
            # One more slot: a covered one and one outside every window.
            extra = [inst.horizon.end]
            spare = sorted(set(covered_slots(inst)) - set(slots))
            if spare:
                extra.append(rng.choice(spare))
            for candidate in [slots] + [sorted(slots + [t]) for t in extra]:
                assert is_minimal_feasible(inst, candidate) == per_slot(
                    inst, candidate
                ), (inst.name, candidate)
                checked += 1
        assert checked > 200


class TestSchedules:
    def test_schedule_valid_and_uses_slots(self, medium_laminar):
        sched = minimal_feasible_schedule(medium_laminar, "right_to_left")
        assert sched.is_valid
        chosen = set(minimal_feasible_slots(medium_laminar, "right_to_left"))
        assert set(sched.active_slots) <= chosen

    def test_orders_can_disagree(self):
        # On at least one suite instance, different orders give different
        # active times (that is the whole point of ordered deactivation).
        diffs = 0
        for inst in laminar_suite(seed=17, sizes=(8, 12)):
            values = {
                order: minimal_feasible_schedule(inst, order).active_time
                for order in ("left_to_right", "right_to_left")
            }
            if len(set(values.values())) > 1:
                diffs += 1
        assert diffs >= 1  # the order must matter on some suite instance

    def test_best_of_orders_picks_minimum(self, medium_laminar):
        sched, order = best_of_orders(medium_laminar)
        for o in ("left_to_right", "right_to_left", "densest_first", "sparsest_first"):
            assert (
                sched.active_time
                <= minimal_feasible_schedule(medium_laminar, o).active_time
            )
