"""Cross-kernel and LP-oracle equivalence tests.

Four contracts:

* the ``csr`` and ``object`` max-flow kernels agree exactly — values,
  per-edge flows, misuse guards — on random networks and on the real
  feasibility reductions;
* the vectorized LP builders agree with the per-row references in
  :mod:`repro.verify.reference`: LP (1) reaches the optimum of the
  unreduced :func:`literal_lp` (and rebuilds to the same compiled
  model), and the CW LP compiles bit-identically to
  :func:`reference_cw_lp`;
* the simplex oracle returns HiGHS's optimum on LP (1) and goes
  through neither the solve cache nor the ``solver_stats()`` counters;
* the misuse guards introduced in PR 4 survive the CSR migration with
  the same typed errors and messages.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.flow import incremental
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.feasibility import extract_schedule, slot_feasible
from repro.flow.incremental import ClassFlowProber, DynamicFlowProber
from repro.instances.generators import (
    deep_chain,
    random_general,
    random_laminar,
)
from repro.lp.backend import LinearProgram
from repro.lp.cw_lp import build_cw_lp
from repro.lp.nested_lp import build_nested_lp
from repro.solver.cache import model_fingerprint
from repro.solver.service import (
    SolverService,
    get_service,
    set_service,
    solver_stats,
)
from repro.tree.canonical import canonicalize
from repro.verify.reference import (
    literal_lp,
    reference_cw_lp,
    reference_slot_network,
    same_compiled_model,
)
from repro.verify.simplex import simplex_solve

#: Both kernels, with the ids the guard-parity tests are reported under.
KERNELS = pytest.mark.parametrize(
    "kernel", [CSRMaxFlow, MaxFlow], ids=["csr", "object"]
)


def random_network(seed: int, n: int = 12, n_edges: int = 30):
    """The same random edge list, realised on both kernels."""
    rng = random.Random(seed)
    edges = []
    for _ in range(n_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((u, v, rng.randint(0, 9)))
    return edges


def _prober_with_arcs(arcs: int) -> ClassFlowProber:
    """A prober over one bucket holding every job: ``2 * n_jobs + 1`` arcs."""
    n_jobs = (arcs - 1) // 2
    assert 2 * n_jobs + 1 == arcs
    return ClassFlowProber([1] * n_jobs, [list(range(n_jobs))], 1)


class TestKernelSelector:
    def test_default_is_csr(self):
        inst = random_general(5, 2, horizon=12, seed=1)
        net, *_ = reference_slot_network(inst, list(inst.slots()))
        assert type(net) is CSRMaxFlow
        # Prober networks at or above the size constant run on CSR.
        big = incremental.SMALL_NETWORK_ARCS | 1
        assert type(_prober_with_arcs(big).engine.net) is CSRMaxFlow
        assert type(_prober_with_arcs(big + 2).engine.net) is CSRMaxFlow
        # The twin's prober stays on the object kernel.
        assert type(DynamicFlowProber(1, 0, 1).engine.net) is MaxFlow

    def test_small_prober_networks_run_on_the_object_kernel(self):
        small = (incremental.SMALL_NETWORK_ARCS - 2) | 1
        assert small < incremental.SMALL_NETWORK_ARCS
        assert type(_prober_with_arcs(small).engine.net) is MaxFlow
        assert type(ClassFlowProber([1], [[0]], 1).engine.net) is MaxFlow

    def test_size_rule_counts_source_member_and_sink_arcs(self, monkeypatch):
        # 3 jobs, buckets of 2 and 3 members: 3 + 5 + 2 = 10 arcs.
        def kernel(limit):
            monkeypatch.setattr(incremental, "SMALL_NETWORK_ARCS", limit)
            net = ClassFlowProber([1, 1, 1], [[0, 1], [0, 1, 2]], 1).engine.net
            assert len(net.to) == 2 * 10
            return type(net)

        assert kernel(10) is CSRMaxFlow
        assert kernel(11) is MaxFlow


class TestKernelEquivalence:
    @pytest.mark.parametrize("seed", range(25))
    def test_random_networks_agree(self, seed):
        edges = random_network(seed)
        obj, csr = MaxFlow(12), CSRMaxFlow(12)
        ids_o = [obj.add_edge(u, v, c) for u, v, c in edges]
        ids_c = csr.add_edges(*zip(*edges)) if edges else []
        assert ids_o == ids_c
        vo = obj.max_flow(0, 11)
        vc = csr.max_flow(0, 11)
        assert vo == vc
        # re-augmenting a maximum flow adds nothing, on either kernel
        assert obj.augment(0, 11) == 0
        assert csr.augment(0, 11) == 0
        # Edge decompositions of a max flow are not unique, but each
        # kernel's flow must be a *valid* flow of the agreed value.
        for net, ids, value in ((obj, ids_o, vo), (csr, ids_c, vc)):
            balance = [0.0] * 12
            for (u, v, c), f in zip(edges, net.flows(ids)):
                assert -1e-9 <= f <= c + 1e-9
                balance[u] -= f
                balance[v] += f
            for node in range(1, 11):
                assert abs(balance[node]) < 1e-9
            assert abs(balance[0] + value) < 1e-9
            assert abs(balance[11] - value) < 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_feasibility_agrees_across_kernels(self, seed):
        inst = random_general(3 + seed, 1 + seed % 3, horizon=15, seed=seed)
        slots = list(inst.slots())[:: 1 + seed % 2]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(incremental, "SMALL_NETWORK_ARCS", 10**9)
            verdict_obj = slot_feasible(inst, slots)
            sched_obj = extract_schedule(inst, slots)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(incremental, "SMALL_NETWORK_ARCS", 0)
            verdict_csr = slot_feasible(inst, slots)
            sched_csr = extract_schedule(inst, slots)
        assert verdict_obj == verdict_csr
        assert (sched_obj is None) == (sched_csr is None)
        if sched_obj is not None:
            assert sched_obj.active_time == sched_csr.active_time


class TestGuardParity:
    """PR 4's misuse guards must behave identically on both kernels."""

    @KERNELS
    def test_second_max_flow_raises(self, kernel):
        net = kernel(3)
        net.add_edge(0, 1, 2)
        net.add_edge(1, 2, 2)
        assert net.max_flow(0, 2) == 2
        with pytest.raises(RuntimeError, match="already ran"):
            net.max_flow(0, 2)
        net.reset()
        assert net.max_flow(0, 2) == 2

    @KERNELS
    def test_odd_edge_flow_rejected(self, kernel):
        net = kernel(3)
        eid = net.add_edge(0, 1, 2)
        net.max_flow(0, 1)
        with pytest.raises(ValueError, match="reverse edge"):
            net.edge_flow(eid + 1)
        assert net.edge_flow(eid) == 2

    @KERNELS
    def test_negative_capacity_rejected(self, kernel):
        net = kernel(3)
        with pytest.raises(ValueError, match="negative capacity"):
            net.add_edge(0, 1, -1)
        with pytest.raises(ValueError, match="negative capacity"):
            net.add_edges([0, 1], [1, 2], [1, -4])

    @KERNELS
    def test_source_equals_sink_rejected(self, kernel):
        net = kernel(3)
        with pytest.raises(ValueError, match="source equals sink"):
            net.max_flow(1, 1)

    @KERNELS
    def test_bulk_add_checks_everything_first(self, kernel):
        net = kernel(3)
        net.add_edge(0, 1, 2)
        before = (list(net.to), list(net.cap), [list(h) for h in net.head])
        with pytest.raises(ValueError, match="negative capacity"):
            net.add_edges([0, 1, 1], [1, 2, 2], [1, -4, 3])
        with pytest.raises(ValueError, match="length mismatch"):
            net.add_edges([0, 1], [1, 2], [1])
        assert (list(net.to), list(net.cap), [list(h) for h in net.head]) == (
            before
        )
        assert net.add_edges([1], [2], [3]) == [2]
        assert net.max_flow(0, 2) == 2

    def test_object_bulk_add_rejects_unknown_nodes(self):
        net = MaxFlow(3)
        with pytest.raises(ValueError, match="outside nodes"):
            net.add_edges([0, 1], [1, 3], [1, 1])
        with pytest.raises(ValueError, match="outside nodes"):
            net.add_edges([-1], [1], [1])
        assert net.to == [] and net.head == [[], [], []]

    @pytest.mark.parametrize("seed", range(10))
    def test_bulk_add_lays_out_like_the_per_edge_loop(self, seed):
        edges = random_network(seed)
        loop, bulk, csr = MaxFlow(12), MaxFlow(12), CSRMaxFlow(12)
        loop.add_edge(0, 5, 1)
        bulk.add_edge(0, 5, 1)
        csr.add_edge(0, 5, 1)
        ids = [loop.add_edge(u, v, c) for u, v, c in edges]
        if edges:
            us, vs, caps = (np.asarray(col) for col in zip(*edges))
            assert bulk.add_edges(us, vs, caps) == ids
            assert csr.add_edges(us, vs, caps) == ids
        assert bulk.to == loop.to and bulk.cap == loop.cap
        assert bulk._initial_cap == loop._initial_cap
        assert bulk.head == loop.head == csr.head
        # Plain Python scalars, not numpy ones, on the list kernel.
        assert not any(isinstance(x, np.generic) for x in bulk.cap + bulk.to)

    def test_csr_builds_no_adjacency_until_read(self):
        net = CSRMaxFlow(5)
        assert net._head_store == [] and net._head_dirty
        assert net.add_node() == 5
        assert net.head == [[]] * 6
        assert net.add_edge(0, 5, 2) == 0
        assert net.head[0] == [0] and net.head[5] == [1]

    def test_drop_edge_excluded_from_csr_solve(self):
        net = CSRMaxFlow(4)
        a = net.add_edge(0, 1, 5)
        net.add_edge(1, 3, 5)
        b = net.add_edge(0, 2, 5)
        net.add_edge(2, 3, 5)
        net.drop_edge(b)
        assert net.max_flow(0, 3) == 5  # only the 0→1→3 path remains
        assert net.edge_flow(a) == 5


def _assert_nested_matches_literal(inst) -> None:
    """LP (1) of ``inst`` rebuilt from scratch compiles to the same
    model, under the same cache key, and its optimum is the unreduced
    :func:`literal_lp`'s (1e-9 relative)."""
    can = canonicalize(inst)
    lp_vec, th = build_nested_lp(can)
    again, _ = build_nested_lp(canonicalize(inst))
    assert same_compiled_model(lp_vec, again)
    assert model_fingerprint(lp_vec.compile()) == model_fingerprint(again.compile())
    literal = literal_lp(can, th)
    assert literal.num_constraints > lp_vec.num_constraints
    want = SolverService(cache_size=0).solve(literal).value
    got = SolverService(cache_size=0).solve(lp_vec).value
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


class TestVectorizedLPBuilds:
    @pytest.mark.parametrize("seed", range(8))
    def test_nested_lp_fingerprint_identical(self, seed):
        inst = random_laminar(
            4 + 2 * seed, 1 + seed % 3, horizon=30 + 5 * seed, seed=seed
        )
        _assert_nested_matches_literal(inst)

    def test_nested_lp_fingerprint_identical_deep_chain(self):
        _assert_nested_matches_literal(deep_chain(25, 2, seed=3))

    @pytest.mark.parametrize("seed", range(6))
    def test_cw_lp_fingerprint_identical(self, seed):
        inst = random_general(
            3 + seed, 1 + seed % 2, horizon=10 + 3 * seed, seed=seed
        )
        lp_vec = build_cw_lp(inst)
        lp_ref = reference_cw_lp(inst)
        assert model_fingerprint(lp_vec.compile()) == model_fingerprint(lp_ref.compile())
        assert same_compiled_model(lp_vec, lp_ref)
        assert lp_vec.num_constraints == lp_ref.num_constraints

    def test_constraint_block_validation(self):
        lp = LinearProgram("t")
        lp.add_vars(2)
        with pytest.raises(ValueError, match="bad sense"):
            lp.add_constraint_block(
                np.ones(1), np.zeros(1, dtype=int), np.array([0, 1]), "<",
                np.ones(1),
            )
        with pytest.raises(ValueError, match="out of range"):
            lp.add_constraint_block(
                np.ones(1), np.array([5]), np.array([0, 1]), "<=", np.ones(1)
            )
        with pytest.raises(ValueError, match="indptr"):
            lp.add_constraint_block(
                np.ones(1), np.zeros(1, dtype=int), np.array([0]), "<=",
                np.ones(1),
            )
        assert lp.num_constraints == 0


class TestSimplexOracle:
    def _model(self, c2=3.0):
        lp = LinearProgram("oracle")
        x, y, z = lp.add_vars(3, objective=[1.0, 2.0, c2])
        lp.add_constraint({x: 1, y: 1, z: 1}, ">=", 4)
        lp.add_constraint({x: 1}, "<=", 2)
        lp.add_constraint({y: 1, z: 2}, "<=", 6)
        return lp

    def test_perturbed_objective_changes_the_key(self):
        base = self._model(c2=3.0)
        pert = self._model(c2=2.5)
        assert model_fingerprint(base.compile()) != model_fingerprint(pert.compile())
        sol = simplex_solve(pert)
        ref = SolverService(cache_size=0).solve(pert)
        assert sol.value == pytest.approx(ref.value, abs=1e-9)

    def test_oracle_touches_no_cache_or_counters(self):
        previous = set_service(SolverService())
        try:
            before = solver_stats()
            simplex_solve(self._model())
            assert solver_stats() == before
            assert len(get_service().cache) == 0
        finally:
            set_service(previous)

    @pytest.mark.parametrize("seed", range(6))
    def test_oracle_agrees_on_nested_lp_battery(self, seed):
        inst = random_laminar(5 + seed, 2, horizon=24, seed=seed)
        lp, _ = build_nested_lp(canonicalize(inst))
        ref = SolverService(cache_size=0).solve(lp)
        assert simplex_solve(lp).value == pytest.approx(ref.value, abs=1e-6)
