"""Solver service layer: cache, the one HiGHS backend, instrumentation.

Also regression tests for the hardening pass riding along: the bounded
``_repair`` loop, the ``LPSolution`` marginals default, and
``run_battery`` failure context.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from oracles import ub_duals

from repro import obs
from repro.analysis.parallel import register_task, run_battery
from repro.core.algorithm import solve_nested
from repro.instances.families import rigid_chain, section5_gap
from repro.instances.generators import laminar_suite, random_laminar
from repro.instances.jobs import Instance
from repro.lp.backend import LinearProgram, LPSolution
from repro.lp.nested_lp import build_nested_lp
from repro.solver import (
    BACKENDS,
    SolveCache,
    SolverService,
    model_fingerprint,
    set_service,
)
from repro.tree.canonical import canonicalize
from repro.util.errors import BatteryTaskError, InfeasibleInstanceError, SolverError
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
    """``min x + 2y`` s.t. ``x + y >= 3`` (the one ``A_ub`` row),
    ``x <= 2``, ``y <= 5``: ``x = 2``, ``y = 1``, row dual 2."""
    lp = LinearProgram(name)
    x = lp.add_var(objective=1.0, upper=2.0)
    y = lp.add_var(objective=2.0, upper=5.0)
    lp.add_constraint({x: 1, y: 1}, ">=", 3)
    return lp


def _cover_dual(lp: LinearProgram, sol: LPSolution) -> float:
    """The dual of ``lp``'s first ``A_ub`` row in ``sol``, as modelled."""
    return float(ub_duals(lp.compile(), sol)[0])


class TestCache:
    def test_identical_models_hit(self, fresh_service):
        a = _toy_lp().solve()
        b = _toy_lp().solve()  # rebuilt from scratch → same fingerprint
        assert b.value == pytest.approx(a.value)
        snap = fresh_service.stats.snapshot()
        assert snap["solves"] == 2
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 1
        assert snap["backend_solves"] == 1

    def test_different_models_miss(self, fresh_service):
        _toy_lp().solve()
        other = _toy_lp()
        other.add_constraint({0: 1}, "<=", 1.5)
        other.solve()
        assert fresh_service.stats.snapshot()["cache_hits"] == 0

    def test_hit_returns_a_copy(self, fresh_service):
        first = _toy_lp().solve()
        first.x[0] = 999.0  # poison attempt
        second = _toy_lp().solve()
        assert second.x[0] == pytest.approx(2.0)

    def test_equal_arrays_share_one_entry(self, fresh_service):
        """The key is the compiled arrays: a model built another way
        (by rows or as a block, under another model name) with equal
        arrays is answered from the same entry."""
        by_rows = _toy_lp("by rows")
        block = LinearProgram("as a block")
        block.add_vars(2, objective=[1.0, 2.0], upper=[2.0, 5.0])
        block.add_constraint_block(
            np.ones(2), np.arange(2), np.array([0, 2]), ">=", np.array([3.0])
        )
        assert model_fingerprint(by_rows.compile()) == model_fingerprint(
            block.compile()
        )
        first = by_rows.solve()
        hit = block.solve()
        snap = fresh_service.stats.snapshot()
        assert snap["backend_solves"] == 1
        assert snap["cache_hits"] == 1
        assert np.array_equal(hit.x, first.x)
        assert np.array_equal(hit.marginals_ub, first.marginals_ub)
        assert _cover_dual(block, hit) == _cover_dual(by_rows, first) > 0

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
            snap = service.stats.snapshot()
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
    """Solutions are vectors; cache entries hold no model."""

    def test_cache_holds_no_model(self, fresh_service):
        lp, _ = build_nested_lp(canonicalize(section5_gap(3)))
        sol = lp.solve()
        columns = lp.num_vars
        model = weakref.ref(lp)
        del lp
        gc.collect()
        assert model() is None
        assert len(fresh_service.cache) == 1
        assert sol.x.shape == (columns,)

    def test_hit_on_a_rebuilt_model_matches_a_fresh_highs_solve(
        self, fresh_service
    ):
        canon = canonicalize(random_laminar(12, 2, horizon=30, seed=5))
        build_nested_lp(canon)[0].solve()
        hit = build_nested_lp(canon)[0].solve()
        assert fresh_service.stats.snapshot()["cache_hits"] == 1
        lp = build_nested_lp(canon)[0]
        fresh = SolverService(cache_size=0).solve(lp)
        assert hit.value == fresh.value
        assert np.array_equal(hit.x, fresh.x)
        assert np.array_equal(hit.marginals_ub, fresh.marginals_ub)
        parts = lp.compile()
        ge_duals = ub_duals(parts, hit)[parts["negated_ub"]]
        assert ge_duals.size
        assert (ge_duals >= -1e-9).all()
        assert (ge_duals > 1e-9).any()

    def test_entries_are_copies_of_the_vectors(self, fresh_service):
        first = _toy_lp().solve()
        first.x[:] = 999.0  # poison attempts on the arrays
        first.marginals_ub[:] = 999.0
        second = _toy_lp().solve()
        assert second.x[0] == pytest.approx(2.0)
        assert _cover_dual(_toy_lp(), second) == pytest.approx(2.0)
        second.x[:] = 999.0
        assert _toy_lp().solve().x[1] == pytest.approx(1.0)

    def test_ge_dual_sign_survives_a_hit(self, fresh_service):
        lp = _toy_lp()
        first = lp.solve()
        hit = _toy_lp().solve()
        assert fresh_service.stats.snapshot()["cache_hits"] == 1
        assert _cover_dual(lp, hit) == _cover_dual(lp, first) > 0


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
        snap = fresh_service.stats.snapshot()
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
        x = infeasible.add_var(objective=1.0, upper=1.0)
        infeasible.add_constraint({x: 1}, ">=", 2)
        unbounded = LinearProgram("unbounded")
        x = unbounded.add_var(objective=-1.0)
        unbounded.add_constraint({x: 1}, ">=", 0)
        kinds = []
        for lp in (infeasible, unbounded):
            with pytest.raises(SolverError) as err:
                lp.solve()
            assert err.value.backend == "highs"
            assert err.value.model == lp.name
            kinds.append(err.value.kind)
        assert kinds == ["infeasible", "unbounded"]
        # An infeasible verdict is not a failure of the solve.
        assert fresh_service.stats.snapshot()["failures"] == 1

    def test_infeasible_instance_is_no_solver_failure(self, fresh_service):
        """Infeasible input reaches LP (1) and is answered as such; the
        ``failures`` counter keeps to faults of the solve."""
        inst = Instance.from_triples([(0, 1, 1), (0, 1, 1)], g=1)
        with obs.scope() as counted:
            with pytest.raises(InfeasibleInstanceError):
                solve_nested(inst)
        assert counted["solver"]["cache_misses"] == 1
        assert counted["solver"]["failures"] == 0
        assert fresh_service.stats.snapshot()["failures"] == 0

    def test_solve_takes_no_backend(self, fresh_service):
        with pytest.raises(TypeError):
            _toy_lp().solve(backend="highs")
        with pytest.raises(TypeError):
            SolverService(("highs",))


class TestStats:
    def test_counters_and_reset(self, fresh_service):
        lp = _toy_lp()
        lp.solve()
        snap = fresh_service.stats.snapshot()
        assert snap["rows"] == 1 and snap["cols"] == 2
        assert snap["wall_time"] > 0
        fresh_service.stats.reset()
        cleared = fresh_service.stats.snapshot()
        assert cleared["solves"] == 0 and cleared["backend_solves"] == 0

    def test_stats_delta(self, fresh_service):
        _toy_lp().solve()
        with obs.scope() as counted:
            _toy_lp().solve()  # hit
        delta = counted["solver"]
        assert delta["solves"] == 1
        assert delta["cache_hits"] == 1
        assert delta["backend_solves"] == 0  # no new backend work


class TestWarmBattery:
    def test_repeated_battery_does_zero_backend_solves(self, fresh_service):
        """Acceptance: a warm-cache battery re-run never hits a backend."""
        instances = laminar_suite(seed=11, sizes=(5, 9))
        run_battery(instances, "solve_nested", max_workers=1)
        with obs.scope() as counted:
            results = run_battery(instances, "solve_nested", max_workers=1)
        delta = counted["solver"]
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
        assert sol.marginals_ub is None and sol.marginals_eq is None
        assert ub_duals({"negated_ub": None}, sol).size == 0

    def test_default_duals_not_shared_between_instances(self):
        """Regression: solutions shared a default container; a copy now
        shares no array with its source."""
        a = LPSolution(
            value=0.0, x=np.zeros(2), marginals_ub=np.ones(1), marginals_eq=None
        )
        b = a.copy()
        assert b.x is not a.x and b.marginals_ub is not a.marginals_ub
        assert np.array_equal(b.marginals_ub, a.marginals_ub)
        assert b.marginals_eq is None

    def test_ge_duals_agree_across_backends(self, fresh_service):
        """HiGHS and the simplex oracle report the same ``>=`` duals."""
        lp = LinearProgram("cover2")
        x = lp.add_var(objective=2.0)
        y = lp.add_var(objective=3.0)
        lp.add_constraint({x: 1, y: 2}, ">=", 4)
        lp.add_constraint({x: 2, y: 1}, ">=", 4)
        parts = lp.compile()
        hi = ub_duals(parts, lp.solve())
        si_sol = simplex_solve(lp)
        si = ub_duals(parts, si_sol)
        assert si == pytest.approx(hi, abs=1e-7)
        assert (si >= -1e-9).all()
        assert si @ [4.0, 4.0] == pytest.approx(si_sol.value)

    def test_simplex_nonbinding_row_zero_dual(self, fresh_service):
        lp = LinearProgram()
        x = lp.add_var(objective=1.0)
        lp.add_constraint({x: 1}, ">=", 1)  # need
        lp.add_constraint({x: 1}, "<=", 100)  # cap
        need, cap = ub_duals(lp.compile(), simplex_solve(lp))
        assert cap == pytest.approx(0.0)
        assert need == pytest.approx(1.0)


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
