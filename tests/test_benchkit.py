"""Tests for the benchmark harness (``repro.benchkit``).

Covers the four load-bearing pieces:

* registry discovery — exactly E1–E14, no duplicates, informative specs;
* the runner — smoke-tier execution of two cheap benchmarks producing
  schema-valid ``BENCH_*.json`` artifacts (plus the standalone
  ``--json`` main, run from a foreign CWD with no ``PYTHONPATH``);
* the comparator — quality drift fails at any tolerance, timing drift
  respects ``--tolerance-pct``, coverage/check rules;
* the process fan-out of whole benchmarks over
  ``repro.analysis.parallel.WorkerPool``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.parallel import WorkerPool
from repro.benchkit import (
    BenchResult,
    discover,
    register,
    resolve_ids,
    run_benchmarks,
    validate_result,
)
from repro.benchkit.compare import (
    compare_dirs,
    compare_results,
    has_failures,
)
from repro.benchkit.registry import default_benchmarks_dir

REPO_ROOT = Path(__file__).resolve().parent.parent

EXPECTED_IDS = [f"E{i}" for i in range(1, 21)]


# ---------------------------------------------------------------- registry


class TestRegistry:
    def test_discovers_exactly_e1_to_e20(self):
        specs = discover()
        assert sorted(specs, key=lambda i: int(i[1:])) == EXPECTED_IDS
        for spec in specs.values():
            assert spec.title, spec.bench_id
            assert spec.claim, spec.bench_id
            assert callable(spec.fn)

    def test_discovery_is_idempotent(self):
        first = discover()
        second = discover()
        assert set(first) == set(second)

    def test_duplicate_id_from_other_module_rejected(self):
        discover()

        def imposter(ctx):  # pragma: no cover - never runs
            pass

        imposter.__module__ = "an_entirely_different_module"
        with pytest.raises(ValueError, match="duplicate benchmark id"):
            register("E3", title="imposter")(imposter)

    def test_bad_id_rejected(self):
        with pytest.raises(ValueError, match="must look like"):
            register("X1", title="nope")(lambda ctx: None)

    def test_resolve_ids(self):
        specs = discover()
        assert resolve_ids(None, specs) == EXPECTED_IDS
        assert resolve_ids("e14,E1", specs) == ["E1", "E14"]
        assert resolve_ids(["e2", "E2"], specs) == ["E2"]
        with pytest.raises(KeyError, match="E99"):
            resolve_ids("E99", specs)

    def test_default_benchmarks_dir_is_the_checkout(self):
        assert default_benchmarks_dir() == REPO_ROOT / "benchmarks"

    def test_default_out_dir_is_the_repo_root(self, monkeypatch, tmp_path):
        from repro.benchkit.registry import BENCH_DIR_ENV
        from repro.benchkit.runner import default_out_dir

        assert default_out_dir() == REPO_ROOT.resolve()
        # The artifact directory tracks the benchmarks directory: with a
        # relocated benchmarks/ the artifacts land next to it.
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        monkeypatch.setenv(BENCH_DIR_ENV, str(bench_dir))
        assert default_out_dir() == tmp_path.resolve()


# ---------------------------------------------------------------- runner


class TestRunner:
    @pytest.fixture(scope="class")
    def smoke_artifacts(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("bench_out")
        results = run_benchmarks(
            "E4,E13", tier="smoke", jobs=1, out_dir=out_dir
        )
        return out_dir, results

    def test_runs_selected_benchmarks(self, smoke_artifacts):
        _, results = smoke_artifacts
        assert [r.bench_id for r in results] == ["E4", "E13"]
        for result in results:
            assert result.tier == "smoke"
            assert result.passed, result.checks
            assert result.timings["wall_s"] > 0
            assert result.metrics, "quality metrics must be recorded"

    def test_artifacts_are_schema_valid(self, smoke_artifacts):
        out_dir, _ = smoke_artifacts
        paths = sorted(out_dir.glob("BENCH_*.json"))
        assert [p.name for p in paths] == ["BENCH_E13.json", "BENCH_E4.json"]
        for path in paths:
            doc = json.loads(path.read_text())
            assert validate_result(doc) == []
            rehydrated = BenchResult.from_dict(doc)
            assert rehydrated.bench_id == doc["bench_id"]

    def test_solver_stats_are_attributed(self, smoke_artifacts):
        _, results = smoke_artifacts
        e4 = next(r for r in results if r.bench_id == "E4")
        # E4 solves six LPs (natural + strengthened per g); the fresh
        # per-benchmark service means none of them can be cache hits
        # leaked from another benchmark.
        assert e4.solver["solves"] > 0
        assert e4.solver["cache_misses"] > 0

    def test_seed_is_recorded(self, tmp_path):
        (result,) = run_benchmarks("E13", tier="smoke", seed=7, out_dir=tmp_path)
        assert result.seed == 7
        doc = json.loads((tmp_path / "BENCH_E13.json").read_text())
        assert doc["seed"] == 7

    def test_unknown_tier_rejected(self):
        specs = discover()
        from repro.benchkit import execute

        with pytest.raises(ValueError, match="tier"):
            execute(specs["E13"], tier="warp")

    def test_standalone_main_from_foreign_cwd(self, tmp_path):
        """Satellite fix: bench scripts run from any CWD, no PYTHONPATH."""
        script = REPO_ROOT / "benchmarks" / "bench_e13_busytime.py"
        out = tmp_path / "BENCH_E13.json"
        env = {
            k: v for k, v in os.environ.items() if k != "PYTHONPATH"
        }
        proc = subprocess.run(
            [sys.executable, str(script), "--smoke", "--json", str(out)],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert validate_result(doc) == []
        assert doc["bench_id"] == "E13" and doc["tier"] == "smoke"


# ---------------------------------------------------------------- compare


def _doc(bench_id="E1", **overrides):
    result = BenchResult(
        bench_id=bench_id, title="t", claim="c", tier="smoke", seed=2022
    )
    result.add_metric("ratio", 1.25)
    result.add_check("claim_holds", True)
    result.add_timing("wall_s", 1.0)
    result.environment = {"python": "test"}
    doc = result.to_dict()
    doc.update(overrides)
    return doc


class TestCompareResults:
    def test_identical_documents_pass(self):
        assert compare_results(_doc(), _doc()) == []

    def test_quality_drift_fails_at_any_tolerance(self):
        base, cur = _doc(), _doc()
        cur["metrics"]["ratio"] = 1.26
        findings = compare_results(base, cur, tolerance_pct=1e9)
        assert has_failures(findings)
        assert findings[0].kind == "quality-drift"

    def test_missing_quality_metric_fails(self):
        base, cur = _doc(), _doc()
        del cur["metrics"]["ratio"]
        findings = compare_results(base, cur)
        assert has_failures(findings)
        assert findings[0].kind == "quality-missing"

    def test_new_metric_only_warns(self):
        base, cur = _doc(), _doc()
        cur["metrics"]["extra"] = 3
        findings = compare_results(base, cur)
        assert not has_failures(findings)
        assert findings[0].kind == "quality-new"

    def test_timing_within_tolerance_passes(self):
        base, cur = _doc(), _doc()
        cur["timings"]["wall_s"] = 1.15
        assert compare_results(base, cur, tolerance_pct=20) == []

    def test_timing_beyond_tolerance_fails(self):
        base, cur = _doc(), _doc()
        cur["timings"]["wall_s"] = 1.5
        findings = compare_results(base, cur, tolerance_pct=20)
        assert has_failures(findings)
        assert findings[0].kind == "timing-regression"

    def test_faster_is_always_fine(self):
        base, cur = _doc(), _doc()
        cur["timings"]["wall_s"] = 0.1
        assert compare_results(base, cur, tolerance_pct=0) == []

    def test_sub_floor_timings_are_noise(self):
        base, cur = _doc(), _doc()
        base["timings"]["wall_s"] = 0.001
        cur["timings"]["wall_s"] = 0.009  # 9x, but below the 10 ms floor
        assert compare_results(base, cur, tolerance_pct=0) == []

    def test_skip_timings(self):
        base, cur = _doc(), _doc()
        cur["timings"]["wall_s"] = 100.0
        assert compare_results(base, cur, skip_timings=True) == []

    def test_broken_check_fails(self):
        base, cur = _doc(), _doc()
        cur["checks"]["claim_holds"] = False
        findings = compare_results(base, cur)
        assert has_failures(findings)
        assert findings[0].kind == "check-broken"

    def test_mismatched_tier_is_incomparable(self):
        findings = compare_results(_doc(), _doc(tier="full"))
        assert has_failures(findings)
        assert findings[0].kind == "incomparable"


class TestCompareDirs:
    def _write(self, directory, docs):
        directory.mkdir(parents=True, exist_ok=True)
        for doc in docs:
            path = directory / f"BENCH_{doc['bench_id']}.json"
            path.write_text(json.dumps(doc))

    def test_matching_dirs_pass(self, tmp_path):
        self._write(tmp_path / "base", [_doc("E1"), _doc("E2")])
        self._write(tmp_path / "cur", [_doc("E1"), _doc("E2")])
        findings = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not has_failures(findings)

    def test_missing_current_artifact_fails(self, tmp_path):
        self._write(tmp_path / "base", [_doc("E1"), _doc("E2")])
        self._write(tmp_path / "cur", [_doc("E1")])
        findings = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert has_failures(findings)
        assert any(f.kind == "coverage" for f in findings)

    def test_missing_artifact_says_how_to_compare_a_subset(self, tmp_path):
        self._write(tmp_path / "base", [_doc("E1"), _doc("E2"), _doc("E3"), _doc("E10")])
        self._write(tmp_path / "cur", [_doc("E10"), _doc("E3")])
        findings = compare_dirs(tmp_path / "base", tmp_path / "cur")
        coverage = [f for f in findings if f.kind == "coverage"]
        assert [(f.bench_id, f.severity) for f in coverage] == [
            ("E1", "fail"),
            ("E2", "fail"),
            ("-", "warn"),
        ]
        assert "--only" not in coverage[0].message
        assert "pass the same --only to compare" in coverage[-1].message
        assert not has_failures(
            compare_dirs(tmp_path / "base", tmp_path / "cur", only="E3,E10")
        )

    def test_extra_current_artifact_warns(self, tmp_path):
        self._write(tmp_path / "base", [_doc("E1")])
        self._write(tmp_path / "cur", [_doc("E1"), _doc("E2")])
        findings = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert not has_failures(findings)
        assert any(f.kind == "coverage" and f.severity == "warn" for f in findings)

    def test_empty_baseline_fails(self, tmp_path):
        self._write(tmp_path / "base", [])
        self._write(tmp_path / "cur", [_doc("E1")])
        findings = compare_dirs(tmp_path / "base", tmp_path / "cur")
        assert has_failures(findings)

    def test_only_filter(self, tmp_path):
        drifted = _doc("E2")
        drifted["metrics"]["ratio"] = 9.0
        self._write(tmp_path / "base", [_doc("E1"), _doc("E2")])
        self._write(tmp_path / "cur", [_doc("E1"), drifted])
        assert not has_failures(
            compare_dirs(tmp_path / "base", tmp_path / "cur", only="E1")
        )
        assert has_failures(
            compare_dirs(tmp_path / "base", tmp_path / "cur", only="E1,E2")
        )

    def test_cli_exit_codes(self, tmp_path):
        from repro.benchkit.cli import main

        self._write(tmp_path / "base", [_doc("E1")])
        self._write(tmp_path / "cur", [_doc("E1")])
        assert main(["compare", str(tmp_path / "base"), str(tmp_path / "cur")]) == 0
        drifted = _doc("E1")
        drifted["checks"]["claim_holds"] = False
        self._write(tmp_path / "cur", [drifted])
        assert main(["compare", str(tmp_path / "base"), str(tmp_path / "cur")]) == 1


# ---------------------------------------------------------------- schema


class TestSchema:
    def test_roundtrip_is_valid(self):
        assert validate_result(_doc()) == []

    def test_missing_key_reported(self):
        doc = _doc()
        del doc["metrics"]
        assert any("metrics" in e for e in validate_result(doc))

    def test_bad_bench_id_reported(self):
        doc = _doc()
        doc["bench_id"] = "Q7"
        assert any("bench_id" in e for e in validate_result(doc))

    def test_bad_tier_reported(self):
        assert any("tier" in e for e in validate_result(_doc(tier="warp")))

    def test_boolean_metric_reported(self):
        doc = _doc()
        doc["metrics"]["oops"] = True
        assert any("oops" in e for e in validate_result(doc))

    def test_ragged_table_reported(self):
        doc = _doc()
        doc["tables"] = [
            {"name": "t", "title": "t", "headers": ["a", "b"], "rows": [[1]]}
        ]
        assert any("width" in e for e in validate_result(doc))

    def test_metric_rounding_makes_equality_robust(self):
        result = BenchResult(bench_id="E1", title="t")
        result.add_metric("x", 1 / 3)
        assert result.metrics["x"] == round(1 / 3, 9)

    def test_boolean_metric_rejected_at_record_time(self):
        result = BenchResult(bench_id="E1", title="t")
        with pytest.raises(TypeError, match="add_check"):
            result.add_metric("flag", True)


# ---------------------------------------------------------------- fan-out


def _without_clocks(result: BenchResult) -> tuple:
    """What a rerun must reproduce: all but timings, tables of
    timings, solver clocks and the environment."""
    solver = {k: v for k, v in result.solver.items() if not k.endswith("time")}
    return result.bench_id, result.metrics, result.checks, solver


class TestRunJobs:
    """Benchmark jobs fan out through ``WorkerPool.map``."""

    def test_in_process_short_circuit(self):
        with WorkerPool(1) as pool:
            assert pool.map("math:sqrt", [4.0, 9.0]) == [2.0, 3.0]

    def test_process_pool(self):
        with WorkerPool(2) as pool:
            assert pool.map("math:sqrt", [4.0, 9.0, 16.0]) == [
                2.0,
                3.0,
                4.0,
            ]

    def test_bad_spec_rejected_eagerly(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValueError, match="worker spec"):
                pool.map("no_colon_here", [1])
            with pytest.raises(ValueError, match="callable"):
                pool.map("math:pi", [1])
            assert pool._pool is None  # failed before forking

    def test_pooled_run_equals_in_process_run(self, tmp_path):
        serial = run_benchmarks("E17", jobs=1, out_dir=tmp_path / "one")
        pooled = run_benchmarks("E17", jobs=2, out_dir=tmp_path / "two")
        assert [_without_clocks(r) for r in pooled] == [
            _without_clocks(r) for r in serial
        ]
