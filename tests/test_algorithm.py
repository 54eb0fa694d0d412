"""End-to-end tests for the 9/5-approximation (Theorem 4.15)."""

import pytest

from repro.baselines.exact import solve_exact
from repro.core.algorithm import solve_nested
from repro.core.rounding import APPROX_FACTOR
from repro.instances.families import natural_gap, rigid_chain, section5_gap
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance, Job
from repro.util.errors import InfeasibleInstanceError, NotLaminarError
from repro.util.numeric import SUM_EPS


class TestEndToEnd:
    def test_tiny_instance_optimal(self, tiny_instance):
        result = solve_nested(tiny_instance)
        assert result.active_time == 2
        assert result.schedule.is_valid
        assert result.repairs == 0

    def test_single_job(self, single_job_instance):
        result = solve_nested(single_job_instance)
        assert result.active_time == 4

    def test_rigid_chain(self):
        result = solve_nested(rigid_chain(5))
        assert result.active_time == 5

    def test_rejects_non_laminar(self, crossing_instance):
        with pytest.raises(NotLaminarError):
            solve_nested(crossing_instance)

    def test_rejects_infeasible(self):
        inst = Instance(
            jobs=(
                Job(id=0, release=0, deadline=1, processing=1),
                Job(id=1, release=0, deadline=1, processing=1),
            ),
            g=1,
        )
        with pytest.raises(InfeasibleInstanceError):
            solve_nested(inst)

    def test_summary_mentions_ratio(self, tiny_instance):
        assert "ratio" in solve_nested(tiny_instance).summary()


class TestGuarantee:
    @pytest.mark.parametrize("seed", range(20))
    def test_within_9_5_of_lp_and_no_repairs(self, seed):
        inst = random_laminar(
            8 + seed, (seed % 5) + 1, horizon=20 + seed, seed=seed,
            unit_fraction=0.35,
        )
        result = solve_nested(inst)
        assert result.schedule.is_valid
        assert result.repairs == 0, "defensive repair path fired"
        assert (
            result.active_time <= APPROX_FACTOR * result.lp_value + SUM_EPS
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_within_9_5_of_optimum(self, seed):
        inst = random_laminar(7, 2, horizon=16, seed=seed, unit_fraction=0.5)
        result = solve_nested(inst)
        opt = solve_exact(inst).optimum
        assert opt <= result.active_time <= APPROX_FACTOR * opt + SUM_EPS

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_gap_family_within_bound(self, g):
        result = solve_nested(section5_gap(g))
        opt = solve_exact(section5_gap(g)).optimum
        assert result.active_time <= APPROX_FACTOR * opt + SUM_EPS

    def test_natural_gap_family_solved_optimally(self):
        # The ceiling constraint makes LP = OPT here; rounding must not lose.
        result = solve_nested(natural_gap(5))
        assert result.active_time == 2


class TestScheduleMapsToOriginal:
    def test_schedule_is_for_the_original_instance(self):
        inst = random_laminar(10, 2, horizon=24, seed=13)
        result = solve_nested(inst)
        assert result.schedule.instance is inst
        # Canonicalization shrank some windows; the schedule still respects
        # the original (wider) ones by construction.
        assert result.schedule.is_valid

    def test_lp_value_is_a_lower_bound(self):
        inst = random_laminar(9, 3, horizon=20, seed=4)
        result = solve_nested(inst)
        opt = solve_exact(inst).optimum
        assert result.lp_value <= opt + SUM_EPS

    def test_simplex_backend_end_to_end(self, monkeypatch):
        """The pipeline on the simplex oracle's vertex, put in as the
        backend (a fresh service, so no cached HiGHS answer is read)."""
        from repro.solver import BACKENDS, SolverService, set_service
        from repro.verify.simplex import simplex_solve

        inst = Instance.from_triples(
            [(0, 4, 2), (0, 2, 1), (2, 4, 1)], g=2
        )
        monkeypatch.setitem(
            BACKENDS, "highs", lambda lp, parts: simplex_solve(lp)
        )
        previous = set_service(SolverService())
        try:
            result = solve_nested(inst)
        finally:
            set_service(previous)
        assert result.active_time == 2
        assert result.schedule.is_valid
