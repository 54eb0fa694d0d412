"""Solver service layer: cache, the one HiGHS backend, instrumentation.

Also regression tests for the hardening pass riding along: the bounded
``_repair`` loop, the ``LPSolution.duals`` default, and ``run_battery``
failure context.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro import obs
from repro.analysis.parallel import register_task, run_battery
from repro.core.algorithm import solve_nested
from repro.instances.families import rigid_chain, section5_gap
from repro.instances.generators import laminar_suite, random_laminar
from repro.lp.backend import LinearProgram, LPSolution, NameFamily
from repro.lp.nested_lp import build_nested_lp
from repro.solver import (
    BACKENDS,
    SolveCache,
    SolverService,
    model_fingerprint,
    set_service,
    solver_stats,
)
from repro.tree.canonical import canonicalize
from repro.util.errors import BatteryTaskError, SolverError
from repro.verify.simplex import simplex_solve


@pytest.fixture()
def fresh_service():
    """Install an empty default service for the test, restore after."""
    service = SolverService()
    previous = set_service(service)
    try:
        yield service
    finally:
        set_service(previous)


def _toy_lp(name: str = "toy") -> LinearProgram:
    lp = LinearProgram(name)
    lp.add_var("x", objective=1.0, upper=2.0)
    lp.add_var("y", objective=2.0, upper=5.0)
    lp.add_constraint({"x": 1, "y": 1}, ">=", 3, label="cover")
    return lp


def _column_names(layout: np.ndarray) -> list[str]:
    return [f"v[{k}]" for k in layout.tolist()]


def _row_labels() -> list[str]:
    return ["cover"]


def _cover_lp(columns, labels) -> LinearProgram:
    """``min v0 + 2·v1`` s.t. ``v0 + v1 >= 1``, under the given names."""
    lp = LinearProgram("cover")
    lp.add_vars(columns, objective=[1.0, 2.0])
    lp.add_constraint_block(
        np.ones(2), np.arange(2), np.array([0, 2]), ">=", np.ones(1), labels
    )
    return lp


class TestCache:
    def test_identical_models_hit(self, fresh_service):
        a = _toy_lp().solve()
        b = _toy_lp().solve()  # rebuilt from scratch → same fingerprint
        assert b.value == pytest.approx(a.value)
        snap = fresh_service.stats_snapshot()
        assert snap["solves"] == 2
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 1
        assert snap["backend_solves"] == 1

    def test_different_models_miss(self, fresh_service):
        _toy_lp().solve()
        other = _toy_lp()
        other.add_constraint({"x": 1}, "<=", 1.5, label="cap")
        other.solve()
        assert fresh_service.stats_snapshot()["cache_hits"] == 0

    def test_hit_returns_a_copy(self, fresh_service):
        first = _toy_lp().solve()
        first.values["x"] = 999.0  # poison attempt
        second = _toy_lp().solve()
        assert second["x"] == pytest.approx(2.0)

    def test_variable_names_are_not_part_of_the_key(self, fresh_service):
        """The key is positional: models that differ only in their names
        share one entry, and the hit reads the requester's names."""
        first = _cover_lp(["a", "b"], ["r"]).solve()
        renamed = _cover_lp(["b", "a"], ["s"]).solve()
        snap = fresh_service.stats_snapshot()
        assert snap["backend_solves"] == 1
        assert snap["cache_hits"] == 1
        assert first.values == pytest.approx({"a": 1.0, "b": 0.0})
        assert list(renamed.values) == ["b", "a"]
        assert renamed.values == pytest.approx({"b": 1.0, "a": 0.0})
        assert first.dual("r") > 0
        assert renamed.duals == {"s": first.dual("r")}

    def test_lru_eviction(self):
        cache = SolveCache(max_entries=2)
        sol = LPSolution(value=1.0, x=np.ones(1))
        cache.put("a", sol)
        cache.put("b", sol)
        assert cache.get("a") is not None  # refresh a
        cache.put("c", sol)  # evicts b
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.get("c") is not None

    def test_cache_disabled(self):
        service = SolverService(cache_size=0)
        previous = set_service(service)
        try:
            _toy_lp().solve()
            _toy_lp().solve()
            snap = service.stats_snapshot()
            assert snap["cache_hits"] == 0
            assert snap["backend_solves"] == 2
        finally:
            set_service(previous)


def _failing_backend(kind="backend", calls=None):
    def backend(lp, parts):
        if calls is not None:
            calls.append(lp.name)
        raise SolverError("injected failure", kind=kind, backend="highs")

    return backend


class TestVectorEntries:
    """Solutions are vectors bound to names; cache entries hold no model."""

    def test_cache_holds_no_model(self, fresh_service):
        lp, _ = build_nested_lp(canonicalize(section5_gap(3)))
        sol = lp.solve()
        names = lp.variable_names()
        model = weakref.ref(lp)
        del lp
        gc.collect()
        assert model() is None
        assert len(fresh_service.cache) == 1
        assert list(sol.values) == list(names)

    def test_hit_on_a_rebuilt_model_matches_a_fresh_highs_solve(
        self, fresh_service
    ):
        canon = canonicalize(random_laminar(12, 2, horizon=30, seed=5))
        build_nested_lp(canon)[0].solve()
        hit = build_nested_lp(canon)[0].solve()
        assert fresh_service.stats_snapshot()["cache_hits"] == 1
        fresh = SolverService(cache_size=0).solve(build_nested_lp(canon)[0])
        assert hit.value == fresh.value
        assert hit.values == fresh.values
        assert hit.duals == fresh.duals
        ge_rows = [
            label
            for label in hit.duals
            if label.startswith(("volume[", "ceiling["))
        ]
        assert ge_rows
        assert all(hit.duals[label] >= -1e-9 for label in ge_rows)
        assert any(hit.duals[label] > 1e-9 for label in ge_rows)

    def test_entries_are_copies_of_the_vectors(self, fresh_service):
        first = _toy_lp().solve()
        first.x[:] = 999.0  # poison attempts on the arrays
        first.marginals_ub[:] = 999.0
        second = _toy_lp().solve()
        assert second["x"] == pytest.approx(2.0)
        assert second.dual("cover") == pytest.approx(2.0)
        second.x[:] = 999.0
        assert _toy_lp().solve()["y"] == pytest.approx(1.0)

    def test_ge_dual_sign_survives_a_hit(self, fresh_service):
        first = _toy_lp().solve()
        hit = _toy_lp().solve()
        assert fresh_service.stats_snapshot()["cache_hits"] == 1
        assert hit.dual("cover") == first.dual("cover") > 0

    def test_the_pipeline_reads_no_by_name_view(
        self, fresh_service, monkeypatch
    ):
        def unread(self):
            raise AssertionError("a by-name view was built")

        monkeypatch.setattr(LPSolution, "values", property(unread))
        monkeypatch.setattr(LPSolution, "duals", property(unread))
        for _ in range(2):  # a miss, then a hit
            result = solve_nested(section5_gap(3))
        assert fresh_service.stats_snapshot()["cache_hits"] == 1
        assert result.repairs == 0


class TestOneBackend:
    """HiGHS answers every miss; its failure reaches the caller as is."""

    def test_highs_failure_is_final(self, fresh_service, monkeypatch):
        calls = []
        monkeypatch.setitem(
            BACKENDS, "highs", _failing_backend("numerical", calls)
        )
        with pytest.raises(SolverError) as err:
            _toy_lp("doomed").solve()
        exc = err.value
        assert exc.kind == "numerical"
        assert str(exc) == "injected failure"
        assert calls == ["doomed"]  # one attempt, no second backend
        snap = fresh_service.stats_snapshot()
        assert snap["failures"] == 1
        assert snap["backend_solves"] == 0
        assert len(fresh_service.cache) == 0

    def test_nested_pipeline_surfaces_highs_failure_unchanged(
        self, fresh_service, monkeypatch
    ):
        """A HiGHS failure inside ``solve_nested`` is the error it raised:
        no simplex solve and no second attempt run."""
        from repro.verify import simplex

        raised = SolverError("injected", kind="numerical", backend="highs")
        calls = []

        def failing(lp, parts):
            calls.append(lp.name)
            raise raised

        def no_simplex(*args, **kwargs):
            raise AssertionError("the simplex oracle ran")

        monkeypatch.setitem(BACKENDS, "highs", failing)
        monkeypatch.setattr(simplex.SimplexSolver, "solve", no_simplex)
        with pytest.raises(SolverError) as err:
            solve_nested(section5_gap(3))
        assert err.value is raised
        assert len(calls) == 1

    def test_infeasible_and_unbounded_stay_distinguishable(
        self, fresh_service
    ):
        infeasible = LinearProgram("infeasible")
        infeasible.add_var("x", objective=1.0, upper=1.0)
        infeasible.add_constraint({"x": 1}, ">=", 2, label="impossible")
        unbounded = LinearProgram("unbounded")
        unbounded.add_var("x", objective=-1.0)
        unbounded.add_constraint({"x": 1}, ">=", 0, label="floor")
        kinds = []
        for lp in (infeasible, unbounded):
            with pytest.raises(SolverError) as err:
                lp.solve()
            assert err.value.backend == "highs"
            assert err.value.model == lp.name
            kinds.append(err.value.kind)
        assert kinds == ["infeasible", "unbounded"]
        assert fresh_service.stats_snapshot()["failures"] == 2

    def test_solve_takes_no_backend(self, fresh_service):
        with pytest.raises(TypeError):
            _toy_lp().solve(backend="highs")
        with pytest.raises(TypeError):
            SolverService(("highs",))


class TestStats:
    def test_counters_and_reset(self, fresh_service):
        lp = _toy_lp()
        lp.solve()
        snap = fresh_service.stats_snapshot()
        assert snap["rows"] == 1 and snap["cols"] == 2
        assert snap["wall_time"] > 0
        fresh_service.reset_stats()
        cleared = fresh_service.stats_snapshot()
        assert cleared["solves"] == 0 and cleared["backend_solves"] == 0

    def test_stats_delta(self, fresh_service):
        _toy_lp().solve()
        before = solver_stats()
        _toy_lp().solve()  # hit
        delta = obs.delta(solver_stats(), before)
        assert delta["solves"] == 1
        assert delta["cache_hits"] == 1
        assert delta["backend_solves"] == 0  # no new backend work


class TestWarmBattery:
    def test_repeated_battery_does_zero_backend_solves(self, fresh_service):
        """Acceptance: a warm-cache battery re-run never hits a backend."""
        instances = laminar_suite(seed=11, sizes=(5, 9))
        run_battery(instances, "solve_nested", max_workers=1)
        before = solver_stats()
        results = run_battery(instances, "solve_nested", max_workers=1)
        delta = obs.delta(solver_stats(), before)
        assert len(results) == len(instances)
        assert delta["solves"] == delta["cache_hits"] > 0
        assert delta["cache_misses"] == 0
        assert (
            delta["backend_solves"] == 0
        ), "warm battery must be answered entirely from cache"


class TestRepairBound:
    def test_repair_terminates_when_flow_never_accepts(self, monkeypatch):
        """Regression: with every node at full length and a still-
        rejecting flow, ``_repair`` must raise, not spin forever."""
        from repro.core import algorithm
        from repro.tree.canonical import canonicalize

        canonical = canonicalize(rigid_chain(3))
        monkeypatch.setattr(
            algorithm, "node_assignment", lambda *a, **k: None
        )
        x = np.zeros(canonical.forest.m, dtype=int)
        with pytest.raises(SolverError) as err:
            algorithm._repair(canonical, x)
        assert "full length" in str(err.value)
        assert err.value.kind == "numerical"

    def test_repair_count_bounded_by_capacity(self, monkeypatch):
        from repro.core import algorithm
        from repro.tree.canonical import canonicalize

        canonical = canonicalize(rigid_chain(3))
        capacity = sum(
            canonical.forest.length[i] for i in range(canonical.forest.m)
        )
        calls = {"n": 0}

        def reject_forever(*a, **k):
            calls["n"] += 1
            return None

        monkeypatch.setattr(algorithm, "node_assignment", reject_forever)
        with pytest.raises(SolverError):
            algorithm._repair(
                canonical, np.zeros(canonical.forest.m, dtype=int)
            )
        # One probe per raised slot plus the final full-length probe.
        assert calls["n"] == capacity + 1


class TestDualsDefaults:
    def test_default_duals_is_empty_dict(self):
        sol = LPSolution(value=0.0, x=np.zeros(0))
        assert sol.duals == {}
        assert sol.dual("anything") == 0.0

    def test_default_duals_not_shared_between_instances(self):
        """Regression: a shared default dict leaked between solutions;
        each solution must build its own."""
        a = LPSolution(value=0.0, x=np.zeros(0))
        b = LPSolution(value=0.0, x=np.zeros(0))
        assert a.duals is not b.duals

    def test_ge_duals_agree_across_backends(self, fresh_service):
        """HiGHS and the simplex oracle report the same labelled ``>=``
        duals."""
        lp = LinearProgram("cover2")
        lp.add_var("x", objective=2.0)
        lp.add_var("y", objective=3.0)
        lp.add_constraint({"x": 1, "y": 2}, ">=", 4, label="c1")
        lp.add_constraint({"x": 2, "y": 1}, ">=", 4, label="c2")
        hi = lp.solve()
        si = simplex_solve(lp)
        for label in ("c1", "c2"):
            assert si.dual(label) == pytest.approx(hi.dual(label), abs=1e-7)
            assert si.dual(label) >= -1e-9
        dual_obj = si.dual("c1") * 4 + si.dual("c2") * 4
        assert dual_obj == pytest.approx(si.value)

    def test_simplex_nonbinding_row_zero_dual(self, fresh_service):
        lp = LinearProgram()
        lp.add_var("x", objective=1.0)
        lp.add_constraint({"x": 1}, ">=", 1, label="need")
        lp.add_constraint({"x": 1}, "<=", 100, label="cap")
        sol = simplex_solve(lp)
        assert sol.dual("cap") == pytest.approx(0.0)
        assert sol.dual("need") == pytest.approx(1.0)


@register_task("always_fails")
def _task_always_fails(instance):
    raise RuntimeError("boom")


class TestBatteryErrorContext:
    def test_in_process_failure_names_task_and_instance(self):
        instances = [rigid_chain(2), rigid_chain(3)]
        with pytest.raises(BatteryTaskError) as err:
            run_battery(instances, "always_fails", max_workers=1)
        exc = err.value
        assert exc.task == "always_fails"
        assert exc.instance == instances[0].name
        assert exc.index == 0
        assert isinstance(exc.__cause__, RuntimeError)
        assert "always_fails" in str(exc) and instances[0].name in str(exc)

    def test_pool_failure_survives_pickling(self):
        instances = [rigid_chain(2), rigid_chain(3)]
        with pytest.raises(BatteryTaskError) as err:
            run_battery(instances, "always_fails", max_workers=2)
        # Context must survive the process boundary via the message.
        assert "always_fails" in str(err.value)
        assert "battery index" in str(err.value)

    def test_in_process_skips_serialization(self, monkeypatch):
        """Regression: ``max_workers=1`` must not round-trip instances
        through the JSON dict form."""
        from repro.analysis import parallel

        def banned(*a, **k):  # pragma: no cover - assertion helper
            raise AssertionError("in-process battery serialized an instance")

        monkeypatch.setattr(parallel, "instance_to_dict", banned)
        monkeypatch.setattr(parallel, "instance_from_dict", banned)
        results = run_battery([rigid_chain(2)], "greedy", max_workers=1)
        assert results[0]["active_time"] >= 1


class TestCLIStats:
    def test_solve_with_stats_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.instances.io import dump_instance

        path = tmp_path / "inst.json"
        dump_instance(rigid_chain(3), str(path))
        code = main(["--stats", "solve", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "solver stats" in out
        assert "cache hits" in out


class TestNameFamilyKeys:
    """A model named by name families keys on its numbers alone; a hit
    reads the requesting model's families."""

    @staticmethod
    def _family_lp(layout) -> LinearProgram:
        family = NameFamily(2, _column_names, np.array(layout))
        return _cover_lp(family, NameFamily(1, _row_labels))

    def test_same_and_other_layout_both_hit(self, fresh_service):
        first = self._family_lp([0, 1]).solve()
        hit = self._family_lp([0, 1]).solve()
        other = self._family_lp([1, 0]).solve()  # same numbers, other names
        snap = fresh_service.stats_snapshot()
        assert snap["cache_hits"] == 2
        assert snap["backend_solves"] == 1
        assert list(hit.values) == list(first.values) == ["v[0]", "v[1]"]
        assert list(other.values) == ["v[1]", "v[0]"]
        assert other["v[1]"] == hit["v[0]"] == pytest.approx(1.0)
        assert other.dual("cover") == hit.dual("cover")

    def test_string_and_family_names_share_a_key(self, fresh_service):
        strings = _cover_lp(["v[0]", "v[1]"], ["cover"])
        family = self._family_lp([0, 1])
        assert strings.variable_names() == family.variable_names()
        assert strings.constraint_labels() == family.constraint_labels()
        assert model_fingerprint(strings.compile()) == model_fingerprint(
            family.compile()
        )
        by_strings = strings.solve()
        by_family = self._family_lp([0, 1]).solve()
        snap = fresh_service.stats_snapshot()
        assert snap["cache_hits"] == 1
        assert snap["backend_solves"] == 1
        assert by_family.values == pytest.approx(by_strings.values)
        assert by_family.duals == by_strings.duals
