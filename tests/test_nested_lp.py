"""Unit tests for the strengthened tree LP (1)."""

from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from repro.core.algorithm import solve_nested
from repro.corpus.store import iter_corpus
from repro.flow.feasibility import all_slots_feasible
from repro.instances.families import natural_gap, section5_gap
from repro.instances.generators import deep_chain, random_laminar
from repro.instances.handcrafted import (
    CraftedSolution,
    umbrella_groups,
    verify_lp_feasible,
)
from repro.instances.jobs import Instance
from repro.lp.backend import LinearProgram, LPSolution
from repro.lp.nested_lp import (
    NestedLPSolution,
    build_nested_lp,
    job_classes,
    lift_solution,
    solve_nested_lp,
)
from repro.lp.perturbed import solve_with_weights
from repro.tree.canonical import canonicalize
from repro.util.errors import SolverError
from repro.util.numeric import SUM_EPS
from repro.verify.reference import literal_lp
from repro.verify.simplex import simplex_solve

CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _solve(inst, **kw):
    return canonicalize(inst), solve_nested_lp(canonicalize(inst), **kw)


class TestLPValue:
    def test_single_rigid_job(self):
        canon = canonicalize(
            __import__("repro.instances.jobs", fromlist=["Instance"]).Instance.from_triples(
                [(0, 3, 3)], g=1
            )
        )
        sol = solve_nested_lp(canon)
        assert sol.value == pytest.approx(3.0)

    def test_lower_bounds_optimum(self, small_suite):
        from repro.baselines.exact import solve_exact

        for inst in small_suite[:6]:
            canon = canonicalize(inst)
            sol = solve_nested_lp(canon)
            assert sol.value <= solve_exact(inst).optimum + SUM_EPS

    def test_ceiling_constraints_close_natural_gap(self):
        """On the g+1-unit-jobs instance, LP(1) = OPT = 2."""
        canon = canonicalize(natural_gap(4))
        assert solve_nested_lp(canon).value == pytest.approx(2.0)

    def test_ablation_without_ceiling_is_weaker(self):
        canon = canonicalize(natural_gap(4))
        with_c = solve_nested_lp(canon, ceiling=True).value
        without = solve_nested_lp(canon, ceiling=False).value
        assert without < with_c
        assert without == pytest.approx((4 + 1) / 4)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_section5_value_at_most_g_plus_2(self, g):
        canon = canonicalize(section5_gap(g))
        assert solve_nested_lp(canon).value <= g + 2 + SUM_EPS


class TestLPSolutionStructure:
    @pytest.mark.parametrize("seed", range(5))
    def test_solution_satisfies_all_constraints(self, seed):
        inst = random_laminar(10, 3, horizon=24, seed=seed)
        canon = canonicalize(inst)
        sol = solve_nested_lp(canon)
        forest = canon.forest
        g = canon.instance.g
        jobs = canon.instance.jobs
        # (4) length caps
        for i in range(forest.m):
            assert sol.x[i] <= forest.length[i] + SUM_EPS
        # (2) volume per job; (5)+(6) admissibility
        for pos, job in enumerate(jobs):
            total = sol.y[:, pos].sum()
            assert total >= job.processing - SUM_EPS
            admissible = set(forest.descendants(canon.job_node[job.id]))
            for i in range(forest.m):
                if sol.y[i, pos] > SUM_EPS:
                    assert i in admissible
                    assert sol.y[i, pos] <= sol.x[i] + SUM_EPS
        # (3) capacity
        loads = sol.y.sum(axis=1)
        for i in range(forest.m):
            assert loads[i] <= g * sol.x[i] + SUM_EPS

    def test_ceiling_constraints_hold(self):
        inst = random_laminar(12, 2, horizon=30, seed=8)
        canon = canonicalize(inst)
        sol = solve_nested_lp(canon)
        forest = canon.forest
        for i in range(forest.m):
            omega = sol.thresholds.value(i)
            if omega >= 2:
                assert sol.x[forest.descendants(i)].sum() >= omega - SUM_EPS

    def test_x_snapped_to_integers(self):
        canon = canonicalize(natural_gap(3))
        sol = solve_nested_lp(canon)
        near_int = np.abs(sol.x - np.round(sol.x)) < 1e-9
        fractional = ~near_int
        # Snapping leaves genuinely fractional values alone but kills fuzz.
        assert np.all(near_int | (np.abs(sol.x - np.round(sol.x)) > 1e-7))
        assert fractional.sum() >= 0  # smoke: vector well-formed

    def test_build_reports_shapes(self):
        inst = random_laminar(6, 2, horizon=15, seed=2)
        canon = canonicalize(inst)
        lp, thresholds = build_nested_lp(canon)
        assert lp.num_vars >= canon.forest.m
        assert lp.num_constraints > 0
        assert thresholds.value(canon.forest.roots[0]) >= 1


class TestBackendsAgree:
    def test_simplex_matches_highs_on_small_instance(self):
        inst = random_laminar(5, 2, horizon=10, seed=1, n_windows=3)
        canon = canonicalize(inst)
        a = solve_nested_lp(canon)
        b = simplex_solve(build_nested_lp(canon)[0])
        assert a.value == pytest.approx(b.value, abs=1e-6)


def per_job_lp(canonical, thresholds) -> LinearProgram:
    """LP (1) as the paper writes it: one ``y(i, j)`` column per job.

    The production model aggregates interchangeable jobs into classes;
    this row-by-row build of the literal LP is the oracle its optimum is
    compared against.  ``x(i)`` is column ``i``.
    """
    inst = canonical.instance
    forest = canonical.forest
    lp = LinearProgram(name=f"per_job_lp({inst.name})")
    lp.add_vars(forest.m, objective=1.0)
    admissible = {
        job.id: forest.descendants(canonical.job_node[job.id])
        for job in inst.jobs
    }
    y = {
        (i, job.id): lp.add_var() for job in inst.jobs for i in admissible[job.id]
    }
    # (2) every job fully scheduled.
    for job in inst.jobs:
        lp.add_constraint(
            {y[i, job.id]: 1.0 for i in admissible[job.id]}, ">=", job.processing
        )
    # (3) node capacity g·x(i); (4) length cap; (5) per-job cap x(i).
    per_node_jobs = {i: [] for i in range(forest.m)}
    for jid, nodes in admissible.items():
        for i in nodes:
            per_node_jobs[i].append(jid)
    for i in range(forest.m):
        coeffs = {y[i, jid]: 1.0 for jid in per_node_jobs[i]}
        coeffs[i] = -float(inst.g)
        lp.add_constraint(coeffs, "<=", 0.0)
        lp.add_constraint({i: 1.0}, "<=", float(forest.length[i]))
        for jid in per_node_jobs[i]:
            lp.add_constraint({y[i, jid]: 1.0, i: -1.0}, "<=", 0.0)
    # (7)-(8) ceiling constraints.
    for i in range(forest.m):
        omega = thresholds.value(i)
        if omega >= 2:
            lp.add_constraint(
                dict.fromkeys(forest.descendants(i), 1.0), ">=", float(omega)
            )
    return lp


def _assert_reduction_exact(inst) -> bool:
    """The reduced model against :func:`literal_lp` on one instance.

    Checks the optimum (1e-9 relative), that the production ``(x, Y)``,
    padded with zeros for the columns production leaves out, satisfies
    every literal row (1e-9), and that every ``x(i)`` the reduced model
    fixes is ``L(i)`` at the literal optimum.  Returns whether the
    instance had any fixed-open node.
    """
    canon = canonicalize(inst)
    forest = canon.forest
    lp, thresholds = build_nested_lp(canon)
    literal = literal_lp(canon, thresholds)
    want = literal.solve()
    got = lp.solve()
    assert got.value == pytest.approx(want.value, rel=1e-9, abs=1e-9), inst.name

    point = np.zeros(literal.num_vars)
    point[: lp.num_vars] = got.x  # literal starts with production's columns
    parts = literal.compile()
    assert (point >= -1e-9).all(), inst.name
    slack = parts["b_ub"] - parts["A_ub"] @ point
    assert slack.min() >= -1e-9, (inst.name, float(slack.min()))

    bounds = lp.compile()["bounds"][: forest.m]
    lengths = np.array([forest.length[i] for i in range(forest.m)], dtype=float)
    fixed = (bounds[:, 0] == bounds[:, 1]) & (lengths > 0)
    assert (bounds[:, 1] == lengths).all()
    assert np.allclose(want.x[: forest.m][fixed], lengths[fixed], rtol=0, atol=1e-9)
    return bool(fixed.any())


def _batch_dense_cycle(seed: int = 3) -> list[Instance]:
    """One input of each of the 20 ``batch-dense`` benchmark shapes."""
    import sys

    from repro.instances.io import instance_from_dict

    sys.path.insert(0, str(PERFBENCH))
    try:
        from closed_loop import BATCH_DENSE, op_instance
    finally:
        sys.path.remove(str(PERFBENCH))
    return [
        instance_from_dict(op_instance("batch-dense", seed, k))
        for k in range(len(BATCH_DENSE))
    ]


class TestReductionIsExact:
    """The reduced model keeps LP (1)'s feasible region and optimum."""

    def test_laminar_corpus(self):
        checked = fixed = 0
        for entry in iter_corpus(CORPUS):
            inst = entry.instance()
            if inst.is_laminar:
                fixed += _assert_reduction_exact(inst)
                checked += 1
        assert checked == 347
        assert fixed > 0

    def test_families(self):
        suite = [natural_gap(g, copies=c) for g in (2, 3, 4) for c in (1, 3)]
        suite += [section5_gap(g) for g in (2, 3, 4)]
        suite += [deep_chain(20, 2, seed=3), deep_chain(12, 3, seed=5)]
        suite += [deep_chain(25, 2, seed=s, slots_per_level=3) for s in range(3)]
        for inst in suite:
            _assert_reduction_exact(inst)

    def test_infeasible_stays_infeasible(self):
        for triples, g in (
            ([(0, 1, 1)] * 2, 1),
            ([(0, 2, 2), (0, 4, 3), (0, 4, 3)], 1),
            ([(0, 3, 2)] * 3 + [(0, 1, 1)], 2),
        ):
            canon = canonicalize(Instance.from_triples(triples, g=g))
            lp, thresholds = build_nested_lp(canon)
            for model in (lp, literal_lp(canon, thresholds)):
                with pytest.raises(SolverError) as info:
                    model.solve()
                assert info.value.kind == "infeasible"

    def test_batch_dense_shapes(self):
        cycle = _batch_dense_cycle()
        assert len(cycle) == 20
        assert all(_assert_reduction_exact(inst) for inst in cycle)


def _corpus_slice(limit: int = 150) -> list[Instance]:
    instances = (entry.instance() for entry in iter_corpus(CORPUS, limit=limit))
    return [
        inst
        for inst in instances
        if inst.n and inst.is_laminar and all_slots_feasible(inst)
    ]


def _differential_suite() -> list[Instance]:
    suite = [
        random_laminar(8 + 3 * seed, 1 + seed % 4, horizon=20 + 4 * seed, seed=seed)
        for seed in range(10)
    ]
    suite += [
        random_laminar(40, 3, horizon=24, seed=seed, unit_fraction=0.8, n_windows=4)
        for seed in range(3)
    ]
    suite += [deep_chain(20, 2, seed=3), deep_chain(12, 3, seed=5)]
    suite += [natural_gap(3), natural_gap(4, copies=3), section5_gap(3)]
    suite += [umbrella_groups(3, 4), umbrella_groups(4, 5, umbrella_volume=2)]
    return suite + _corpus_slice()


class TestClassModelMatchesPaperLP:
    """The class model against the per-job LP (1) it aggregates."""

    @pytest.fixture(scope="class")
    def suite(self):
        suite = _differential_suite()
        assert len(suite) > 40
        return suite

    def test_optimum_equals_per_job_optimum(self, suite):
        classes_total = jobs_total = 0
        for inst in suite:
            canon = canonicalize(inst)
            lp, thresholds = build_nested_lp(canon)
            oracle = per_job_lp(canon, thresholds)
            assert lp.solve().value == pytest.approx(
                oracle.solve().value, abs=1e-9
            ), inst.name
            classes_total += len(job_classes(canon).keys)
            jobs_total += inst.n
        assert classes_total < jobs_total  # the suite does aggregate

    def test_lifted_solution_is_lp1_feasible(self, suite):
        for inst in suite:
            canon = canonicalize(inst)
            sol = solve_nested_lp(canon)
            crafted = CraftedSolution(
                canonical=canon, x=sol.x, y=sol.y, value=sol.value
            )
            assert verify_lp_feasible(crafted) == [], inst.name
            assert sol.x.sum() == pytest.approx(sol.value, abs=1e-6)

    def test_pipeline_needs_no_repair(self, suite):
        for inst in suite:
            assert solve_nested(inst).repairs == 0, inst.name


class TestJobClasses:
    def _many_identical(self) -> Instance:
        triples = [(0, 4, 2)] * 6 + [(0, 2, 1)] * 5 + [(2, 4, 1)] * 4
        triples += [(0, 4, 1)] * 3 + [(0, 8, 3)] * 2 + [(4, 8, 2)]
        return Instance.from_triples(triples, g=6, name="many-identical")

    def test_model_size_follows_classes(self):
        canon = canonicalize(self._many_identical())
        forest = canon.forest
        lp, thresholds = build_nested_lp(canon)
        keys = {
            (canon.job_node[job.id], job.processing)
            for job in canon.instance.jobs
        }
        des_pos = sum(
            sum(forest.length[i] > 0 for i in forest.descendants(k))
            for k, _ in keys
        )
        assert len(keys) < canon.instance.n
        assert any(forest.length[i] == 0 for i in range(forest.m))
        # One Y column per positive-length admissible node of each class.
        assert lp.num_vars == forest.m + des_pos
        literal = literal_lp(canon, thresholds)
        assert lp.num_vars < literal.num_vars
        assert lp.num_constraints < literal.num_constraints
        oracle = per_job_lp(canon, thresholds)
        assert lp.num_vars < oracle.num_vars
        assert lp.num_constraints < oracle.num_constraints

    def test_split_divides_each_class_evenly(self):
        canon = canonicalize(self._many_identical())
        classes = job_classes(canon)
        sol = solve_nested_lp(canon)
        jobs = canon.instance.jobs
        for c, (k, p) in enumerate(classes.keys):
            members = np.flatnonzero(classes.job_class == c)
            assert all(
                (canon.job_node[jobs[j].id], jobs[j].processing) == (k, p)
                for j in members
            )
            block = sol.y[:, members]
            assert np.allclose(block, block[:, :1])
            assert (block.sum(axis=0) >= p - 1e-9).all()

    def test_solution_takes_y_in_one_form(self):
        sol = solve_nested_lp(canonicalize(self._many_identical()))
        assert sol._y is None  # class columns until y is read
        per_job = sol.y
        assert sol.y is per_job
        with pytest.raises(ValueError, match="either"):
            NestedLPSolution(
                sol.value,
                sol.x,
                per_job,
                thresholds=sol.thresholds,
                classes=sol.classes,
                share=sol.share,
            )
        with pytest.raises(ValueError, match="either"):
            NestedLPSolution(sol.value, sol.x, thresholds=sol.thresholds)

    def test_missing_variable_fails_loudly(self):
        canon = canonicalize(self._many_identical())
        lp, thresholds = build_nested_lp(canon)
        sol = lp.solve()
        broken = LPSolution(value=sol.value, x=sol.x[:-1])
        with pytest.raises(SolverError, match="values for"):
            lift_solution(canon, lp, broken, thresholds)

    @pytest.mark.parametrize("seed", range(4))
    def test_weighted_vertex_is_lp1_feasible(self, seed):
        for inst in (self._many_identical(), umbrella_groups(3, 4)):
            canon = canonicalize(inst)
            sol = solve_with_weights(canon, seed)
            crafted = CraftedSolution(
                canonical=canon, x=sol.x, y=sol.y, value=sol.value
            )
            assert verify_lp_feasible(crafted) == []
            assert sol.y.any()


class TestLazyNames:
    """LP (1) has no names: a solution is read by position, and its
    columns line up with the reference model's (:func:`literal_lp`)."""

    @pytest.mark.parametrize("seed", range(8))
    def test_names_read_after_a_solve_match_the_reference(self, seed):
        inst = random_laminar(
            4 + 2 * seed, 1 + seed % 3, horizon=30 + 5 * seed, seed=seed
        )
        self._assert_columns_match(canonicalize(inst))

    def test_names_read_after_a_solve_match_the_reference_deep_chain(self):
        self._assert_columns_match(canonicalize(deep_chain(25, 2, seed=3)))

    @staticmethod
    def _assert_columns_match(can):
        """One value per column (``x(i)`` at ``i``, class column ``t`` at
        ``m + t``) and one marginal per compiled ``A_ub`` row; padded
        with zeros, the solution satisfies every row of the reference."""
        lp, thresholds = build_nested_lp(can)
        sol = lp.solve()
        parts = lp.compile()
        literal = literal_lp(can, thresholds)
        classes = job_classes(can)
        m = can.forest.m
        assert sol.x.shape == (lp.num_vars,) == (m + classes.num_columns,)
        assert literal.num_vars >= lp.num_vars
        rows = 0 if parts["b_ub"] is None else parts["b_ub"].size
        if rows:
            assert sol.marginals_ub.shape == (rows,)
        else:
            assert sol.marginals_ub is None
        # Padded onto the literal model by index it is feasible there.
        point = np.zeros(literal.num_vars)
        point[: lp.num_vars] = sol.x
        literal_parts = literal.compile()
        slack = literal_parts["b_ub"] - literal_parts["A_ub"] @ point
        assert slack.min() >= -1e-9

    def test_rebuilt_models_share_one_cache_entry(self):
        from repro.solver.service import SolverService, set_service

        inst = random_laminar(12, 2, horizon=30, seed=5)
        service = SolverService()
        previous = set_service(service)
        try:
            first = build_nested_lp(canonicalize(inst))[0].solve()
            again = build_nested_lp(canonicalize(inst))[0].solve()
        finally:
            set_service(previous)
        assert service.stats.snapshot()["cache_hits"] == 1
        assert len(service.cache) == 1
        assert np.array_equal(first.x, again.x)
        assert np.array_equal(first.marginals_ub, again.marginals_ub)
