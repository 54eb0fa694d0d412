"""E19 — vectorized kernels and bulk LP builders.

Not a paper table; this measures the PR 9 raw-speed claims:

* the ``csr`` max-flow kernel (:class:`repro.flow.csr.CSRMaxFlow`,
  scipy's C Dinic on numpy adjacency arrays) beats the pure-Python
  ``object`` kernel (:class:`repro.flow.dinic.MaxFlow`) by ≥5x on the
  full-horizon slot network at the E9 large tier — both kernels load
  the same numpy edge arrays and solve the same max-flow, so the ratio
  measures the kernels, not numpy input against Python-list input;
* the bulk-CSR LP builders (:func:`repro.lp.nested_lp.build_nested_lp`
  / :func:`repro.lp.cw_lp.build_cw_lp`) build + compile ≥5x faster than
  the per-row reference builds of :mod:`repro.verify.reference`: LP (1)
  against the unreduced :func:`~repro.verify.reference.literal_lp`,
  whose optimum it must reach, and the CW LP against
  :func:`~repro.verify.reference.reference_cw_lp`, to which it must
  compile bit for bit.

A differential sweep re-runs 500 fuzz-corpus instances with the object
Dinic as the reference side of every flow probe
(:class:`repro.verify.reference.DifferentialFlowProber` builds its
reference networks on :class:`repro.flow.dinic.MaxFlow`) and
cross-checks the reference-vs-vectorized LP builds the same way (equal
LP (1) optima, or infeasible on both sides; equal compiled CW models)
with zero mismatches; the ``*fingerprints*`` metric names predate both
checks.  The incremental side picks its kernel by
network size (``SMALL_NETWORK_ARCS``), so on these ≤ 10-job instances
it runs on the object kernel too; the forced-CSR prober tests in
``tests/test_incremental_flow.py`` cross-check the CSR kernel's repair
path against the reference.  Runnable standalone for CI::

    python benchmarks/bench_e19_kernels.py --smoke [--json OUT]
"""

from __future__ import annotations

from time import perf_counter

import math
import statistics

import _bench_path  # noqa: F401
import numpy as np
import pytest

from repro import obs
from repro.analysis.tables import print_table
from repro.baselines.exact import BudgetExceeded, solve_exact
from repro.baselines.minimal_feasible import minimal_feasible_slots
from repro.benchkit import bench_main, register
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.instances.generators import (
    deep_chain,
    random_general,
    random_laminar,
)
from repro.lp.cw_lp import build_cw_lp
from repro.lp.nested_lp import build_nested_lp
from repro.solver import SolverService
from repro.tree.canonical import canonicalize
from repro.util.errors import InfeasibleInstanceError, SolverError
from repro.verify.fuzz import FuzzConfig, sample_instance
from repro.verify.reference import (
    DifferentialFlowProber,
    flow_prober,
    literal_lp,
    reference_cw_lp,
    reference_slot_network,
    same_compiled_model,
)

#: Timing repetitions per LP build path; the per-family wall is the best
#: of these, which stabilises speedup ratios on noisy CI runners.
_REPS = 3

#: Interleaved timing rounds of the two flow kernels.  Each round times
#: both kernels back to back (alternating which goes first) and the
#: flow speedup is the median of the per-round ratios, so a slow moment
#: of the machine skews one round's ratio, not the verdict.
_FLOW_ROUNDS = 21

# (label, jobs, g, horizon, n_windows) — flow-heavy workloads.  The
# first is the E9 large tier; the others scale the network up.
_FLOW_FULL = (
    ("E9-large", 200, 4, 600, 100),
    ("wide", 300, 4, 900, 150),
    ("dense", 400, 6, 1500, 250),
)
_FLOW_SMOKE = (("E9-large", 200, 4, 600, 100),)

# deep_chain depth for the nested-LP build (dense descendant sets make
# the constraint matrix quadratic in depth — the worst case the
# vectorized builder must win on).
_NESTED_FULL = 200
_NESTED_SMOKE = 100

# (jobs, g, horizon) for the CW LP build (a Θ(T²) row family).
_CW_FULL = (40, 3, 60)
_CW_SMOKE = (24, 3, 40)

# Differential sweep: instances per family (full / smoke); ×4 families
# gives the 500-instance campaign.
_SWEEP_FULL = 125
_SWEEP_SMOKE = 15
_SWEEP_FAMILIES = ("laminar", "general", "tight", "mixed")


def _timed(fn):
    """Best-of-``_REPS`` wall time of ``fn()``; returns (wall, result)."""
    best = float("inf")
    result = None
    for _ in range(_REPS):
        t0 = perf_counter()
        result = fn()
        wall = perf_counter() - t0
        best = min(best, wall)
    return best, result


def _flow_run(instance):
    """``run(kernel)``: load ``instance``'s slot network on ``kernel``,
    solve it and read the busy job→slot edges.

    The network's edge arrays — the int64 arrays the feasibility
    builder hands to ``add_edges`` — are read off one build, so both
    kernels load the same input.
    """
    net, (slot_eids, _, _), source, sink = reference_slot_network(
        instance, list(instance.slots())
    )
    edges = (
        net.to[1::2].astype(np.int64),
        net.to[0::2].astype(np.int64),
        net._initial_cap[0::2].astype(np.int64),
    )

    def run(kernel):
        flow = kernel(net.n)
        flow.add_edges(*edges)
        feasible = flow.max_flow(source, sink) == instance.total_volume
        icap = np.asarray(flow._initial_cap, dtype=float)[slot_eids]
        used = icap - np.asarray(flow.cap, dtype=float)[slot_eids]
        return (feasible, int(np.count_nonzero(used > 0.5)))

    return run


def run_flow_workloads(configs=_FLOW_FULL, seed_shift: int = 0):
    """Full-horizon slot-network feasibility + extraction on both kernels.

    A fresh :class:`MaxFlow` and :class:`CSRMaxFlow` per run; build,
    max-flow and reading the job→slot flows are timed.  Each of
    :data:`_FLOW_ROUNDS` rounds runs both kernels on every config back
    to back, alternating which goes first.  Returns per-config rows (median
    walls), the (object, csr) sums of those medians, the median over
    rounds of the round's object/csr wall ratio, and the per-config
    (object, csr) ``(feasible, busy job→slot edges)`` outcome lists.
    """
    labels, runs = [], []
    for label, n, g, horizon, n_windows in configs:
        instance = random_laminar(
            n,
            g,
            horizon=horizon,
            seed=99 + seed_shift,
            unit_fraction=0.5,
            n_windows=n_windows,
        )
        labels.append(f"{label} n={n} g={g} h={horizon}")
        runs.append(_flow_run(instance))

    walls = {MaxFlow: [[] for _ in runs], CSRMaxFlow: [[] for _ in runs]}
    outcomes = {MaxFlow: [None] * len(runs), CSRMaxFlow: [None] * len(runs)}
    ratios = []
    for r in range(_FLOW_ROUNDS):
        kernels = (MaxFlow, CSRMaxFlow) if r % 2 == 0 else (CSRMaxFlow, MaxFlow)
        for c, run in enumerate(runs):
            for kernel in kernels:
                t0 = perf_counter()
                outcomes[kernel][c] = run(kernel)
                walls[kernel][c].append(perf_counter() - t0)
        ratios.append(
            sum(w[r] for w in walls[MaxFlow])
            / sum(w[r] for w in walls[CSRMaxFlow])
        )

    rows = []
    obj_total = csr_total = 0.0
    for c, label in enumerate(labels):
        obj, csr = walls[MaxFlow][c], walls[CSRMaxFlow][c]
        obj_total += statistics.median(obj)
        csr_total += statistics.median(csr)
        rows.append(
            [
                label,
                f"{statistics.median(obj) * 1e3:.1f}",
                f"{statistics.median(csr) * 1e3:.1f}",
                f"{statistics.median(o / k for o, k in zip(obj, csr)):.1f}x",
                "yes" if outcomes[CSRMaxFlow][c][0] else "no",
            ]
        )
    speedup = statistics.median(ratios)
    return (
        rows,
        (obj_total, csr_total),
        speedup,
        (outcomes[MaxFlow], outcomes[CSRMaxFlow]),
    )


def _optimum(lp):
    """``lp``'s optimum from an uncached solve, or ``None`` if infeasible."""
    try:
        return SolverService(cache_size=0).solve(lp).value
    except SolverError as exc:
        if exc.kind != "infeasible":
            raise
        return None


def same_optimum(lp_vec, lp_ref) -> bool:
    """Do both models reach the same optimum (1e-9 relative), or are both
    infeasible?"""
    a, b = _optimum(lp_vec), _optimum(lp_ref)
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def run_lp_builds(nested_depth=_NESTED_FULL, cw_config=_CW_FULL):
    """Reference vs vectorized LP build+compile.  LP (1) must reach the
    optimum of :func:`literal_lp` (:func:`same_optimum`); the CW LP must
    compile to :func:`reference_cw_lp`'s model
    (:func:`same_compiled_model`).

    Returns per-family rows, the (reference, vectorized) total walls, and
    the number of families whose two builds agree.
    """
    rows = []
    ref_total = vec_total = 0.0
    identical = 0

    can = canonicalize(deep_chain(nested_depth, 3, seed=7))
    _, thresholds = build_nested_lp(can)

    def nested(vectorized):
        if vectorized:
            lp, _ = build_nested_lp(can, thresholds=thresholds)
        else:
            lp = literal_lp(can, thresholds)
        return lp, lp.compile()

    cw_jobs, cw_g, cw_h = cw_config
    cw_inst = random_general(cw_jobs, cw_g, horizon=cw_h, seed=5)

    def cw(vectorized):
        lp = build_cw_lp(cw_inst) if vectorized else reference_cw_lp(cw_inst)
        return lp, lp.compile()

    families = (
        (f"nested deep_chain({nested_depth},3)", nested, same_optimum),
        (f"cw general({cw_jobs},{cw_g},h={cw_h})", cw, same_compiled_model),
    )
    for label, build, agree in families:
        ref_wall, (lp_ref, _) = _timed(lambda: build(False))
        vec_wall, (lp_vec, _) = _timed(lambda: build(True))
        ref_total += ref_wall
        vec_total += vec_wall
        match = agree(lp_vec, lp_ref)
        identical += int(match)
        rows.append(
            [
                label,
                f"{ref_wall * 1e3:.1f}",
                f"{vec_wall * 1e3:.1f}",
                f"{ref_wall / vec_wall:.1f}x",
                "yes" if match else "NO",
            ]
        )
    return rows, (ref_total, vec_total), identical


def run_differential_sweep(per_family=_SWEEP_FULL, seed: int = 2022):
    """Every instance cross-checked two ways: flow probes through the
    differential prober (object-Dinic reference vs the incremental
    engine) and reference-vs-vectorized LP builds: on laminar instances
    LP (1) against :func:`literal_lp` (:func:`same_optimum`), otherwise
    the CW LP against :func:`reference_cw_lp`
    (:func:`same_compiled_model`).

    Returns (instances, probe count, agreeing models, mismatches).
    """
    checked = 0
    fingerprints = 0
    mismatches = 0
    try:
        with obs.scope() as counted, flow_prober(DifferentialFlowProber):
            for family in _SWEEP_FAMILIES:
                config = FuzzConfig(
                    n_instances=per_family,
                    seed=seed,
                    family=family,
                    max_jobs=10,
                )
                for index in range(per_family):
                    instance = sample_instance(config, index)
                    try:
                        minimal_feasible_slots(instance, order="given")
                        if instance.n <= 8:
                            solve_exact(instance, node_budget=2000)
                    except InfeasibleInstanceError:
                        pass  # the probes still ran (and were cross-checked)
                    except BudgetExceeded:
                        pass
                    if instance.is_laminar:
                        can = canonicalize(instance)
                        lp_vec, thresholds = build_nested_lp(can)
                        lp_ref = literal_lp(can, thresholds)
                        agree = same_optimum
                    else:
                        lp_vec = build_cw_lp(instance)
                        lp_ref = reference_cw_lp(instance)
                        agree = same_compiled_model
                    fingerprints += int(agree(lp_vec, lp_ref))
                    checked += 1
    except Exception:
        mismatches += 1
        raise
    return checked, counted["flow"]["probes"], fingerprints, mismatches


_FLOW_HEADERS = ["workload", "object [ms]", "csr [ms]", "speedup", "feasible"]
_LP_HEADERS = ["LP family", "reference [ms]", "vectorized [ms]", "speedup", "agrees"]


@register(
    "E19",
    title="vectorized kernels and bulk LP builders",
    claim="CSR flow kernel and bulk-CSR LP builders run >=5x faster than "
    "the per-object reference paths at the E9 large tier (the flow ratio "
    "compares the two max-flow kernels on the same numpy edge arrays, "
    "not numpy against Python-list input); LP (1) reaches the unreduced "
    "LP's optimum and the CW LP compiles bit-identical to its reference",
)
def run_bench(ctx):
    flow_rows, (f_obj, f_csr), f_speedup, (f_obj_out, f_csr_out) = (
        run_flow_workloads(ctx.pick(_FLOW_FULL, _FLOW_SMOKE), ctx.seed_shift)
    )
    ctx.add_table(
        "flow",
        _FLOW_HEADERS,
        flow_rows,
        title="E19 — feasibility + extraction, object vs csr kernel",
    )
    lp_rows, (l_ref, l_vec), identical = run_lp_builds(
        ctx.pick(_NESTED_FULL, _NESTED_SMOKE), ctx.pick(_CW_FULL, _CW_SMOKE)
    )
    ctx.add_table(
        "lp_build",
        _LP_HEADERS,
        lp_rows,
        title="E19 — LP build+compile, per-row reference vs bulk CSR",
    )
    per_family = ctx.pick(_SWEEP_FULL, _SWEEP_SMOKE)
    checked, probes, fingerprints, mismatches = run_differential_sweep(
        per_family, seed=ctx.seed
    )
    ctx.add_table(
        "sweep",
        ["family", "instances"],
        [[family, per_family] for family in _SWEEP_FAMILIES],
        title=f"E19 — differential sweep: {checked} instances, {probes} "
        f"probes, {fingerprints} agreeing LP models, {mismatches} "
        "mismatches",
    )
    # Deterministic outcomes (exact-gated by `benchkit compare`).
    ctx.add_metric("flow_workloads", len(flow_rows))
    ctx.add_metric("flow_feasible", sum(v for v, _ in f_csr_out))
    ctx.add_metric("lp_fingerprints_identical", identical)
    ctx.add_metric("sweep_instances", checked)
    ctx.add_metric("sweep_probes", probes)
    ctx.add_metric("sweep_fingerprints_identical", fingerprints)
    ctx.add_metric("sweep_mismatches", mismatches)
    # Wall times and ratios (tolerance-gated, skipped cross-machine).
    ctx.add_timing("flow_object_s", f_obj)
    ctx.add_timing("flow_csr_s", f_csr)
    ctx.add_timing("flow_speedup_x", f_speedup)
    ctx.add_timing("lp_reference_s", l_ref)
    ctx.add_timing("lp_vectorized_s", l_vec)
    ctx.add_timing("lp_speedup_x", l_ref / l_vec)
    # Claim checks.
    ctx.add_check("flow_verdicts_agree", f_obj_out == f_csr_out)
    ctx.add_check("flow_speedup_ge_5x", f_speedup >= 5.0)
    ctx.add_check("lp_speedup_ge_5x", l_ref / l_vec >= 5.0)
    ctx.add_check("lp_fingerprints_identical", identical == len(lp_rows))
    ctx.add_check(
        "sweep_no_mismatches", mismatches == 0 and checked > 0
    )
    ctx.add_check("sweep_fingerprints_identical", fingerprints == checked)


@pytest.fixture(scope="module")
def e19_tables():
    flow_rows, _, flow_speedup, flow_outs = run_flow_workloads(_FLOW_SMOKE)
    lp_rows, lp_walls, identical = run_lp_builds(_NESTED_SMOKE, _CW_SMOKE)
    print_table(
        _FLOW_HEADERS, flow_rows,
        title="E19 — feasibility + extraction, object vs csr kernel",
    )
    print_table(
        _LP_HEADERS, lp_rows,
        title="E19 — LP build+compile, per-row reference vs bulk CSR",
    )
    return flow_speedup, flow_outs, lp_walls, identical, len(lp_rows)


class TestKernelBench:
    def test_verdicts_and_fingerprints(self, e19_tables):
        _, (obj_out, csr_out), _, identical, families = e19_tables
        assert obj_out == csr_out
        assert identical == families

    def test_speedups(self, e19_tables):
        flow_speedup, _, (l_ref, l_vec), _, _ = e19_tables
        assert flow_speedup >= 5.0
        assert l_ref / l_vec >= 5.0

    def test_differential_sweep(self):
        checked, probes, fingerprints, mismatches = run_differential_sweep(
            _SWEEP_SMOKE
        )
        assert mismatches == 0
        assert checked == _SWEEP_SMOKE * len(_SWEEP_FAMILIES)
        assert fingerprints == checked
        assert probes > 0


if __name__ == "__main__":
    raise SystemExit(bench_main(run_bench))
