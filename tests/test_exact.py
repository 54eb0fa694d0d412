"""Unit tests for the exact branch-and-bound solver."""

import pytest

from repro.baselines.exact import (
    BudgetExceeded,
    SlotClass,
    exact_or_incumbent,
    slot_classes,
    solve_exact,
)
from repro.instances.generators import random_general, random_laminar
from repro.instances.jobs import Instance, Job
from repro.util.errors import InfeasibleInstanceError, SolverError
from repro.verify.reference import brute_force_optimum


class TestSlotClasses:
    def test_laminar_classes_match_tree_regions(self, tiny_instance):
        classes = slot_classes(tiny_instance)
        # Windows [0,4), [0,2), [2,4) → signatures {0,1},{0,2}.
        assert len(classes) == 2
        sizes = sorted(c.size for c in classes)
        assert sizes == [2, 2]

    def test_uncovered_slots_excluded(self):
        inst = Instance.from_triples([(0, 2, 1), (5, 7, 1)], g=1)
        classes = slot_classes(inst)
        slots = {t for c in classes for t in c.slots}
        assert slots == {0, 1, 5, 6}

    def test_crossing_windows_make_three_classes(self):
        inst = Instance.from_triples([(0, 3, 1), (2, 5, 1)], g=1)
        assert len(slot_classes(inst)) == 3

    @pytest.mark.parametrize("laminar", [True, False])
    def test_classes_match_per_slot_signatures(self, laminar):
        """Segment-built classes equal grouping every slot by its cover."""
        make = random_laminar if laminar else random_general
        for seed in range(40):
            inst = make(8, 2, horizon=30, seed=seed)
            by_signature: dict[frozenset[int], list[int]] = {}
            for t in inst.slots():
                sig = frozenset(
                    j.id for j in inst.jobs if j.release <= t < j.deadline
                )
                if sig:
                    by_signature.setdefault(sig, []).append(t)
            expected = sorted(
                (
                    SlotClass(slots=tuple(slots), jobs=tuple(sorted(sig)))
                    for sig, slots in by_signature.items()
                ),
                key=lambda c: (-len(c.jobs), c.slots),
            )
            assert slot_classes(inst) == expected, seed


class TestSolveExact:
    def test_tiny_optimum(self, tiny_instance):
        result = solve_exact(tiny_instance)
        assert result.optimum == 2
        assert result.schedule(tiny_instance).is_valid

    def test_witness_slot_count_matches_optimum(self, medium_laminar):
        result = solve_exact(medium_laminar)
        sched = result.schedule(medium_laminar)
        assert sched.active_time <= result.optimum
        assert len(result.slots) == result.optimum

    def test_empty_instance(self):
        inst = Instance.from_triples([(0, 2, 1)], g=1).with_jobs([])
        assert solve_exact(inst).optimum == 0

    def test_budget_exceeded_raises(self, medium_laminar):
        with pytest.raises(BudgetExceeded):
            solve_exact(medium_laminar, node_budget=2)

    def test_budget_exceeded_carries_incumbent(self, medium_laminar):
        from repro.flow.feasibility import slot_feasible

        with pytest.raises(BudgetExceeded) as exc:
            solve_exact(medium_laminar, node_budget=2)
        err = exc.value
        # The search seeds from the greedy 3-approximation, so even a
        # budget of 2 nodes has a feasible solution in hand.
        incumbent, reason = exact_or_incumbent(medium_laminar, node_budget=2)
        assert reason == str(err)
        assert incumbent.optimum == err.best_cost == len(err.best_slots)
        assert incumbent.optimum >= solve_exact(medium_laminar).optimum
        assert slot_feasible(medium_laminar, sorted(err.best_slots))
        assert incumbent.schedule(medium_laminar).is_valid
        assert err.nodes_explored > 0

    def test_budget_exceeded_pickles_with_incumbent(self, medium_laminar):
        import pickle

        with pytest.raises(BudgetExceeded) as exc:
            solve_exact(medium_laminar, node_budget=2)
        clone = pickle.loads(pickle.dumps(exc.value))
        assert isinstance(clone, BudgetExceeded)
        assert clone.best_cost == exc.value.best_cost
        assert tuple(clone.best_slots) == tuple(exc.value.best_slots)
        assert clone.nodes_explored == exc.value.nodes_explored

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force_laminar(self, seed):
        inst = random_laminar(6, 2, horizon=12, seed=seed)
        assert solve_exact(inst).optimum == brute_force_optimum(inst)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_general(self, seed):
        inst = random_general(5, 2, horizon=10, seed=seed)
        try:
            expected = brute_force_optimum(inst)
        except SolverError:
            pytest.skip("instance too wide for brute force")
        assert solve_exact(inst).optimum == expected

    def test_never_below_volume_bound(self):
        from repro.baselines.lower_bounds import volume_bound

        for seed in range(5):
            inst = random_laminar(8, 3, horizon=18, seed=seed)
            assert solve_exact(inst).optimum >= volume_bound(inst)


class TestBruteForce:
    def test_cap_respected(self):
        inst = random_laminar(10, 2, horizon=60, seed=0, n_windows=12)
        if len(list(inst.slots())) > 22:
            with pytest.raises(SolverError):
                brute_force_optimum(inst, max_slots=22)

    def test_infeasible_detected(self):
        inst = Instance(
            jobs=(
                Job(id=0, release=0, deadline=1, processing=1),
                Job(id=1, release=0, deadline=1, processing=1),
            ),
            g=1,
        )
        with pytest.raises(InfeasibleInstanceError):
            brute_force_optimum(inst)
