"""End-to-end tests for the 9/5-approximation (Theorem 4.15)."""

import hashlib
import random
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.baselines.exact import solve_exact
from repro.core import algorithm
from repro.core.algorithm import solve_nested
from repro.core.rounding import APPROX_FACTOR
from repro.corpus import iter_corpus
from repro.flow.feasibility import all_slots_feasible
from repro.instances.families import natural_gap, rigid_chain, section5_gap
from repro.instances.generators import _sample_laminar_windows, random_laminar
from repro.instances.jobs import Instance, Job
from repro.lp.nested_lp import NestedLPSolution
from repro.util.errors import (
    InfeasibleInstanceError,
    NotLaminarError,
    SolverError,
)
from repro.util.numeric import SUM_EPS

CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"

#: sha256 (first 128 bits) of the schedules of the feasible draws of
#: ``unchecked_laminar(0..2999)``, recorded while ``solve_nested`` ran
#: the all-slots probe up front: where the probe runs moves no schedule.
FAMILY_RUNS_DIGEST = "ee3bd6417f136b49148068c075c05e56"


def unchecked_laminar(seed: int) -> Instance:
    """A small random laminar instance, feasible or not.

    The windows come from ``random_laminar``'s sampler, but no job is
    dropped to make the instance feasible: about 3 in 5 draws have no
    schedule at all.
    """
    rng = random.Random(seed)
    g = rng.randint(1, 3)
    horizon = rng.randint(4, 20)
    windows = _sample_laminar_windows(rng, horizon, rng.randint(1, 6), 3)
    jobs = []
    for k in range(rng.randint(1, 10)):
        w = rng.choice(windows)
        p = rng.randint(1, w.length)
        jobs.append(Job(id=k, release=w.start, deadline=w.end, processing=p))
    return Instance(jobs=tuple(jobs), g=g, name=f"unchecked_laminar({seed})")


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

    def test_feasible_solve_builds_one_flow_network(self, tiny_instance):
        """No up-front probe: the Lemma 4.1 flow is the only network."""
        with obs.scope() as counted:
            result = solve_nested(tiny_instance)
        assert result.repairs == 0
        assert counted["flow"]["networks_built"] == 1
        assert counted["flow"]["probes"] == 1

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


class TestInfeasibleVerdict:
    """``solve_nested`` raises :class:`InfeasibleInstanceError` exactly
    where the all-slots probe rejects, though it runs the probe only
    after a stage fails."""

    def test_corpus_and_unchecked_family(self):
        corpus = [entry.instance() for entry in iter_corpus(CORPUS)]
        instances = [inst for inst in corpus if inst.is_laminar]
        family = [unchecked_laminar(seed) for seed in range(3000)]
        runs = hashlib.sha256()
        routes = {"lp": 0, "flow": 0}
        for inst in instances + family:
            feasible = all_slots_feasible(inst)
            try:
                result = solve_nested(inst)
            except InfeasibleInstanceError as exc:
                assert not feasible, inst.name
                assert str(exc) == (
                    f"instance {inst.name!r} cannot be scheduled at all"
                )
                # Raised while handling the failed stage's SolverError,
                # or after the flow rejected x̃ (no error in flight).
                if isinstance(exc.__context__, SolverError):
                    routes["lp"] += 1
                else:
                    routes["flow"] += 1
                continue
            assert feasible, inst.name
            assert result.repairs == 0
            if inst.name.startswith("unchecked_laminar"):
                runs.update(repr(sorted(result.schedule.runs.items())).encode())
        # Every infeasible draw has an infeasible LP (1); none reaches
        # the flow (test_flow_rejection_is_diagnosed_before_repair).
        assert routes == {"lp": 1778, "flow": 0}
        assert runs.hexdigest()[:32] == FAMILY_RUNS_DIGEST

    def test_flow_rejection_is_diagnosed_before_repair(self, monkeypatch):
        """An infeasible instance whose LP stage passes (stubbed here to
        open every slot) is rejected by the flow, and the probe raises
        before the repair loop runs."""
        inst = Instance.from_triples([(0, 1, 1), (0, 1, 1)], g=1)

        def every_slot(canonical):
            m = canonical.forest.m
            return NestedLPSolution(
                value=float(sum(canonical.forest.length)),
                x=np.array(canonical.forest.length, dtype=float),
                y=np.zeros((m, canonical.instance.n)),
                thresholds=None,
            )

        def no_repair(*args):
            raise AssertionError("repair loop ran on an infeasible instance")

        monkeypatch.setattr(algorithm, "solve_nested_lp", every_slot)
        monkeypatch.setattr(algorithm, "_repair", no_repair)
        with pytest.raises(InfeasibleInstanceError) as raised:
            solve_nested(inst)
        assert raised.value.__context__ is None
