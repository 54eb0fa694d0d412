"""The verification subsystem: properties, oracle, shrinker, fuzzing.

Includes the two headline guarantees of the subsystem:

* a seeded 200-instance sweep across all families finds **zero**
  violations on the healthy pipeline;
* deliberately re-introducing the banker's-``round()`` bug (plus the
  numerical drift that makes it observable) makes the fuzzer find a
  counterexample and shrink it to at most 4 jobs.
"""

import numpy as np
import pytest

from repro.core import transform as transform_mod
from repro.core.algorithm import solve_nested
from repro.core.rounding import classify_topmost, round_solution
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance
from repro.tree.canonical import canonicalize
from repro.util.errors import IntegralityError
from repro.verify import (
    FuzzConfig,
    Violation,
    check_budget,
    check_repairs,
    check_sandwich,
    check_schedule,
    reference_round,
    run_fuzz,
    sample_instance,
    shrink_instance,
    verify_instance,
)
from repro.verify.fuzz import fuzz_report_dict


# ---------------------------------------------------------------------------
# Property checks in isolation
# ---------------------------------------------------------------------------


class TestPropertyChecks:
    def test_budget_ok(self):
        x = np.array([1.2, 0.9])
        x_tilde = np.array([2.0, 1.0])  # 3 <= 1.8 * 2.1
        assert check_budget(x, x_tilde) == []

    def test_budget_violated(self):
        out = check_budget(np.array([1.0]), np.array([2.0]))
        assert [v.prop for v in out] == ["budget"]

    def test_repairs(self):
        assert check_repairs(0) == []
        assert [v.prop for v in check_repairs(2)] == ["repairs"]

    def test_sandwich_all_legs(self):
        assert check_sandwich(3.0, 4, 4) == []
        # ALG above the 9/5 certificate:
        assert any(v.prop == "sandwich" for v in check_sandwich(2.0, 4, None))
        # LP above OPT (relaxation not a lower bound):
        assert any(v.prop == "sandwich" for v in check_sandwich(5.0, 5, 4))
        # ALG beating OPT (one solver wrong):
        assert any(v.prop == "sandwich" for v in check_sandwich(2.0, 2, 3))

    def test_schedule_check_flags_corruption(self):
        inst = Instance.from_triples([(0, 2, 1)], g=1)
        from repro.core.schedule import Schedule

        broken = Schedule(instance=inst, assignment={})
        assert any(v.prop == "schedule" for v in check_schedule(broken))

    def test_violation_is_hashable_and_printable(self):
        v = Violation("budget", "x")
        assert "budget" in str(v)
        assert len({v, Violation("budget", "x")}) == 1


class TestReferenceRounding:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_production(self, seed):
        inst = random_laminar(9, 2, seed=seed)
        result = solve_nested(inst)
        tr = result.transformed
        expected = reference_round(
            result.canonical.forest, tr.x, tr.topmost
        )
        assert np.allclose(result.rounding.x_tilde, expected)

    def test_rejects_fractional_off_topmost(self):
        inst = Instance.from_triples([(0, 2, 2)], g=1)
        canon = canonicalize(inst)
        x = np.full(canon.forest.m, 0.5)
        with pytest.raises(IntegralityError):
            reference_round(canon.forest, x, [])


class TestRoundingHardening:
    """Satellite fixes: explicit nearest-int + strict C1/C2 classification."""

    def test_integral_off_topmost_raises_on_half(self):
        from repro.core.rounding import _integral_off_I

        with pytest.raises(IntegralityError) as exc_info:
            _integral_off_I(0.5, 3)
        assert exc_info.value.node == 3
        assert exc_info.value.value == 0.5

    def test_integral_off_topmost_snaps_near_integers(self):
        from repro.core.rounding import _integral_off_I

        assert _integral_off_I(2.0 + 1e-9, 0) == 2.0
        assert _integral_off_I(3.0 - 1e-9, 0) == 3.0
        # Exactly the cases banker's round() gets wrong: 0.5 -> 0, 2.5 -> 2.
        for bad in (0.5, 1.5, 2.5):
            with pytest.raises(IntegralityError):
                _integral_off_I(bad, 0)

    def test_round_solution_raises_on_drifted_input(self):
        inst = Instance.from_triples([(0, 2, 2), (0, 1, 1)], g=2)
        result = solve_nested(inst)
        forest = result.canonical.forest
        tr = result.transformed
        x = tr.x.copy()
        # Drift a node off the topmost set to a non-integral value.
        off = [i for i in range(forest.m) if i not in tr.topmost]
        assert off, "test instance must have non-topmost nodes"
        x[off[0]] += 0.5 if x[off[0]] == 0 else -0.5
        with pytest.raises(IntegralityError):
            round_solution(forest, x, tr.topmost)

    def test_classify_rejects_off_spec_x_tilde(self):
        inst = Instance.from_triples(
            [(0, 6, 4), (1, 3, 1), (4, 6, 1)], g=2
        )
        result = solve_nested(inst)
        forest = result.canonical.forest
        tr = result.transformed
        # Fabricate a type-C node whose rounded subtree sums to 3:
        # x(Des(i)) in (1, 4/3) but x_tilde(Des(i)) not in {1, 2}.
        i = tr.topmost[0]
        des = forest.descendants(i)
        x = np.zeros(forest.m)
        x_tilde = np.zeros(forest.m)
        x[i] = 1.2
        x_tilde[des[0]] = 3.0
        with pytest.raises(IntegralityError):
            classify_topmost(forest, x, x_tilde, [i])


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class TestOracle:
    def test_ok_on_known_good(self):
        report = verify_instance(random_laminar(8, 2, seed=11))
        assert report.status == "ok"
        assert report.ok and not report.failed
        assert report.violations == []
        assert report.lp_value is not None
        assert report.active_time is not None
        assert report.optimum is not None  # 8 jobs <= exact cap

    def test_general_instances_use_baseline_path(self):
        from repro.instances.generators import random_general

        inst = random_general(6, 2, seed=3)
        report = verify_instance(inst)
        assert report.ok
        if not inst.is_laminar:
            assert report.active_time is not None

    def test_infeasible_is_skipped(self):
        # Two rigid jobs in the same unit slot with g = 1: no schedule.
        inst = Instance.from_triples([(0, 1, 1), (0, 1, 1)], g=1)
        report = verify_instance(inst)
        assert report.status == "infeasible"
        assert report.ok  # skipped, not failed

    def test_exact_cap_disables_opt_leg(self):
        report = verify_instance(
            random_laminar(6, 2, seed=5), exact_max_jobs=3
        )
        assert report.ok
        assert report.optimum is None


# ---------------------------------------------------------------------------
# Shrinker
# ---------------------------------------------------------------------------


class TestShrinker:
    def test_shrinks_to_single_relevant_job(self):
        inst = random_laminar(12, 3, seed=1)
        assert any(j.processing >= 2 for j in inst.jobs)

        def failing(candidate: Instance) -> bool:
            return any(j.processing >= 2 for j in candidate.jobs)

        result = shrink_instance(inst, failing)
        assert result.n_jobs == 1
        assert result.instance.jobs[0].processing == 2
        assert result.instance.g == 1
        assert result.instance.jobs[0].release == 0  # normalized
        assert result.instance.jobs[0].slack == 0  # window shrunk tight

    def test_respects_eval_budget(self):
        inst = random_laminar(10, 2, seed=2)
        calls = []

        def failing(candidate: Instance) -> bool:
            calls.append(1)
            return True

        shrink_instance(inst, failing, max_evals=25)
        assert len(calls) <= 25

    def test_predicate_crash_treated_as_pass(self):
        inst = random_laminar(6, 2, seed=3)

        def failing(candidate: Instance) -> bool:
            if candidate.n < inst.n:
                raise RuntimeError("boom")
            return True

        result = shrink_instance(inst, failing)
        # Nothing could be removed (every smaller candidate "crashed"),
        # but the run completes and returns a valid instance.
        assert result.n_jobs == inst.n

    def test_result_is_valid_instance(self):
        inst = random_laminar(9, 2, seed=4)
        result = shrink_instance(inst, lambda c: c.n >= 2)
        assert result.n_jobs == 2
        assert result.instance.describe()  # constructible / consistent


# ---------------------------------------------------------------------------
# Fuzz campaigns
# ---------------------------------------------------------------------------


class TestFuzzCampaigns:
    def test_sampling_is_deterministic(self):
        config = FuzzConfig(n_instances=10, seed=42, max_jobs=6)
        a = [sample_instance(config, k) for k in range(10)]
        b = [sample_instance(config, k) for k in range(10)]
        assert a == b

    def test_families_rotate_in_mixed_mode(self):
        config = FuzzConfig(n_instances=6, seed=0, family="mixed", max_jobs=5)
        for k in range(6):
            assert sample_instance(config, k).n >= 1

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            FuzzConfig(family="nope")

    def test_smoke_sweep_200_instances(self):
        """The headline invariant sweep: 200 seeded instances, no findings."""
        config = FuzzConfig(
            n_instances=200, seed=2022, max_jobs=7, exact_max_jobs=6
        )
        result = run_fuzz(config)
        assert result.ok, [
            str(v) for f in result.failures for v in f.report.violations
        ]
        assert result.checked + result.skipped_infeasible == 200
        assert result.checked >= 190  # generators aim for feasible output

    def test_report_schema(self, tmp_path):
        config = FuzzConfig(n_instances=5, seed=1, max_jobs=4)
        result = run_fuzz(config)
        doc = fuzz_report_dict(result)
        assert doc["kind"] == "fuzz-report"
        assert doc["ok"] is True
        assert doc["config"]["seed"] == 1
        assert doc["checked"] + doc["skipped_infeasible"] == 5
        assert "environment" in doc and "solver" in doc


# ---------------------------------------------------------------------------
# Fault injection: re-introduce the round() bug, fuzzer must catch it
# ---------------------------------------------------------------------------


def _drifting_push_down(forest, x, y):
    """Real push-down, then -0.5 numerical drift on a fully-open node.

    The drift lands on an odd-length strict descendant of a topmost node —
    exactly the shape where banker's ``round()`` (round-half-to-even)
    differs from correct behaviour: ``round(L - 0.5) == L - 1`` for odd
    ``L``, silently closing a slot the schedule needs.
    """
    tr = transform_mod.push_down(forest, x, y)
    for i in tr.topmost:
        for d in sorted(forest.strict_descendants(i)):
            length = forest.length[d]
            if length % 2 == 1 and abs(tr.x[d] - length) <= 1e-9:
                tr.x[d] -= 0.5
                return tr
    return tr


class TestBugReinjection:
    """Acceptance check: the fuzzer finds and shrinks the round() bug."""

    def test_fixed_code_raises_loudly_under_drift(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.algorithm.push_down", _drifting_push_down
        )
        inst = Instance.from_triples([(0, 2, 2), (0, 1, 1)], g=2)
        with pytest.raises(IntegralityError):
            solve_nested(inst)

    def test_oracle_reports_crash_under_drift(self, monkeypatch):
        monkeypatch.setattr(
            "repro.core.algorithm.push_down", _drifting_push_down
        )
        report = verify_instance(
            Instance.from_triples([(0, 2, 2), (0, 1, 1)], g=2)
        )
        assert report.failed
        assert "crash" in report.property_names()

    def test_fuzzer_finds_and_shrinks_round_bug(self, monkeypatch):
        # Re-introduce the historical bug: banker's round() off the
        # topmost set, with the numerical drift that makes it bite.
        monkeypatch.setattr(
            "repro.core.rounding._integral_off_I",
            lambda value, node: float(round(value)),
        )
        monkeypatch.setattr(
            "repro.core.algorithm.push_down", _drifting_push_down
        )
        config = FuzzConfig(
            n_instances=40,
            seed=2022,
            family="laminar",
            max_jobs=8,
            exact_max_jobs=5,
        )
        result = run_fuzz(config)
        assert result.failures, "fuzzer failed to detect the round() bug"
        best = min(f.minimal.n for f in result.failures)
        assert best <= 4, (
            f"shrinker left {best} jobs; expected a <= 4 job counterexample"
        )
        # The differential reference check is among the detectors.
        props = {
            v.prop for f in result.failures for v in f.report.violations
        }
        assert props & {"rounding", "repairs", "node-flow", "transform"}

    def test_buggy_round_writes_counterexamples(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            "repro.core.rounding._integral_off_I",
            lambda value, node: float(round(value)),
        )
        monkeypatch.setattr(
            "repro.core.algorithm.push_down", _drifting_push_down
        )
        config = FuzzConfig(
            n_instances=25,
            seed=7,
            family="laminar",
            max_jobs=7,
            exact_max_jobs=5,
        )
        result = run_fuzz(config, out_dir=tmp_path)
        if result.failures:  # seed-dependent, but paths must match failures
            assert len(result.counterexample_paths) == len(result.failures)
            from repro.instances.io import load_instance

            reloaded = load_instance(result.counterexample_paths[0])
            assert reloaded.n == result.failures[0].minimal.n
