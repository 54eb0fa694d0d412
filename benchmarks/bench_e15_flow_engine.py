"""E15 — flow engine: per-probe rebuild vs warm-started repair.

Not a paper table; this measures the engineering claim behind the
incremental max-flow engine (:mod:`repro.flow.incremental`): greedy
deactivation (a binary search per coverage segment) and branch-and-bound
probe the same bucket network tens to hundreds of times with counts
that change in one bucket per probe, so repairing the previous flow
beats rebuilding the network and re-pushing the full volume from
scratch — by ≥5x on both hot workloads.

Printed tables: per workload config the reference and incremental wall
times, the speedup, and the engine counters (probes, repaired units).
A differential sweep re-runs every probe through both probers
(:class:`repro.verify.reference.DifferentialFlowProber`) on seeded
laminar/general/tight instances and counts disagreements (must be
zero).  Runnable standalone for CI::

    python benchmarks/bench_e15_flow_engine.py --smoke [--json OUT]
"""

from __future__ import annotations

from time import perf_counter

import _bench_path  # noqa: F401
import pytest

from _bench_util import run_once
from repro import obs
from repro.analysis.tables import print_table
from repro.baselines.exact import BudgetExceeded, exact_or_incumbent, solve_exact
from repro.baselines.minimal_feasible import minimal_feasible_slots
from repro.benchkit import bench_main, register
from repro.flow.incremental import ClassFlowProber
from repro.instances.generators import random_laminar
from repro.util.errors import InfeasibleInstanceError
from repro.verify.fuzz import FuzzConfig, sample_instance
from repro.verify.reference import (
    DifferentialFlowProber,
    ReferenceFlowProber,
    flow_prober,
)

#: Timing repetitions per prober; the per-config wall is the best of
#: these, which stabilises the speedup ratio on noisy CI runners.
_REPS = 3

# (jobs, g, horizon, seed) — greedy deactivation workloads.
_GREEDY_FULL = ((30, 3, 80, 101), (36, 3, 100, 202), (40, 3, 120, 303))
_GREEDY_SMOKE = ((30, 3, 80, 101),)

# (jobs, g, horizon, node_budget, seed) — exact-search workloads.  The
# seeds are chosen so branch-and-bound genuinely searches (hundreds of
# nodes) instead of exiting on the greedy incumbent at the root.
_EXACT_FULL = ((32, 4, 80, 3000, 19), (40, 5, 100, 2000, 10))
_EXACT_SMOKE = ((40, 5, 100, 2000, 10),)

# Differential sweep: instances per family (full / smoke).
_SWEEP_FULL = 170
_SWEEP_SMOKE = 40
_SWEEP_FAMILIES = ("laminar", "general", "tight")


def _timed(prober: type, fn):
    """Best-of-``_REPS`` wall time of ``fn()`` with every probe on ``prober``.

    Returns ``(wall_s, result, delta)`` where the counter delta
    covers the timed-best repetition only.
    """
    with flow_prober(prober):
        best = float("inf")
        result = None
        delta: dict = {}
        for _ in range(_REPS):
            with obs.scope() as counted:
                t0 = perf_counter()
                result = fn()
                wall = perf_counter() - t0
            if wall < best:
                best = wall
                delta = counted["flow"]
        return best, result, delta


def run_greedy_workload(configs=_GREEDY_FULL, seed_shift: int = 0):
    """Greedy deactivation on both probers; returns per-config rows
    plus the (reference, incremental) total walls and the slot sets."""
    rows = []
    ref_total = inc_total = 0.0
    ref_slots = []
    inc_slots = []
    for n, g, horizon, seed in configs:
        instance = random_laminar(
            n, g, seed=seed + seed_shift, horizon=horizon
        )
        run = lambda: minimal_feasible_slots(instance, order="right_to_left")
        ref_wall, ref_result, _ = _timed(ReferenceFlowProber, run)
        inc_wall, inc_result, delta = _timed(ClassFlowProber, run)
        ref_total += ref_wall
        inc_total += inc_wall
        ref_slots.append(tuple(ref_result))
        inc_slots.append(tuple(inc_result))
        rows.append(
            [
                f"greedy n={n} g={g} h={horizon}",
                f"{ref_wall * 1e3:.1f}",
                f"{inc_wall * 1e3:.1f}",
                f"{ref_wall / inc_wall:.1f}x",
                delta.get("probes", 0),
                delta.get("units_repaired", 0),
            ]
        )
    return rows, (ref_total, inc_total), (ref_slots, inc_slots)


def run_exact_workload(configs=_EXACT_FULL, seed_shift: int = 0):
    """Branch-and-bound on both probers; returns per-config rows,
    total walls, and the (optimum, nodes_explored) outcome pairs."""
    rows = []
    ref_total = inc_total = 0.0
    ref_outcomes = []
    inc_outcomes = []
    for n, g, horizon, budget, seed in configs:
        instance = random_laminar(
            n, g, seed=seed + seed_shift, horizon=horizon
        )

        def run():
            result, _ = exact_or_incumbent(instance, node_budget=budget)
            return (result.optimum, result.nodes_explored)

        ref_wall, ref_result, _ = _timed(ReferenceFlowProber, run)
        inc_wall, inc_result, delta = _timed(ClassFlowProber, run)
        ref_total += ref_wall
        inc_total += inc_wall
        ref_outcomes.append(ref_result)
        inc_outcomes.append(inc_result)
        rows.append(
            [
                f"exact n={n} g={g} h={horizon} budget={budget}",
                f"{ref_wall * 1e3:.1f}",
                f"{inc_wall * 1e3:.1f}",
                f"{ref_wall / inc_wall:.1f}x",
                delta.get("probes", 0),
                delta.get("units_repaired", 0),
            ]
        )
    return rows, (ref_total, inc_total), (ref_outcomes, inc_outcomes)


def run_agreement_sweep(per_family=_SWEEP_FULL, seed: int = 2022):
    """Every probe cross-checked: greedy (and exact on small instances)
    on the differential prober, which raises on any verdict
    disagreement between the incremental engine and the from-scratch
    reference.  Returns (instances checked, probe count, mismatches)."""
    checked = 0
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
                    checked += 1
    except Exception:
        mismatches += 1
        raise
    return checked, counted["flow"]["probes"], mismatches


_HEADERS = [
    "workload",
    "reference [ms]",
    "incremental [ms]",
    "speedup",
    "probes",
    "repaired units",
]


@register(
    "E15",
    title="flow engine: rebuild vs warm-started repair",
    claim="Incremental flow engine: greedy and exact probe workloads run "
    ">=5x faster than per-probe rebuilds, with identical verdicts",
)
def run_bench(ctx):
    greedy_rows, (g_ref, g_inc), (g_ref_slots, g_inc_slots) = (
        run_greedy_workload(
            ctx.pick(_GREEDY_FULL, _GREEDY_SMOKE), ctx.seed_shift
        )
    )
    exact_rows, (e_ref, e_inc), (e_ref_out, e_inc_out) = run_exact_workload(
        ctx.pick(_EXACT_FULL, _EXACT_SMOKE), ctx.seed_shift
    )
    ctx.add_table(
        "greedy", _HEADERS, greedy_rows,
        title="E15 — greedy deactivation, per-probe rebuild vs repair",
    )
    ctx.add_table(
        "exact", _HEADERS, exact_rows,
        title="E15 — exact search, per-probe rebuild vs repair",
    )
    per_family = ctx.pick(_SWEEP_FULL, _SWEEP_SMOKE)
    checked, probes, mismatches = run_agreement_sweep(
        per_family, seed=ctx.seed
    )
    ctx.add_table(
        "agreement",
        ["family", "instances"],
        [[family, per_family] for family in _SWEEP_FAMILIES],
        title=f"E15 — differential sweep: {checked} instances, "
        f"{probes} probes, {mismatches} mismatches",
    )
    # Deterministic outcomes (exact-gated by `benchkit compare`).
    ctx.add_metric("greedy_total_slots", sum(len(s) for s in g_inc_slots))
    ctx.add_metric("exact_total_optimum", sum(o for o, _ in e_inc_out))
    ctx.add_metric("exact_total_nodes", sum(n for _, n in e_inc_out))
    ctx.add_metric("sweep_instances", checked)
    ctx.add_metric("sweep_probes", probes)
    ctx.add_metric("sweep_mismatches", mismatches)
    # Wall times and ratios (tolerance-gated, skipped cross-machine).
    ctx.add_timing("greedy_reference_s", g_ref)
    ctx.add_timing("greedy_incremental_s", g_inc)
    ctx.add_timing("exact_reference_s", e_ref)
    ctx.add_timing("exact_incremental_s", e_inc)
    ctx.add_timing("greedy_speedup_x", g_ref / g_inc)
    ctx.add_timing("exact_speedup_x", e_ref / e_inc)
    ctx.add_check("greedy_verdicts_agree", g_ref_slots == g_inc_slots)
    ctx.add_check("exact_verdicts_agree", e_ref_out == e_inc_out)
    ctx.add_check("sweep_no_mismatches", mismatches == 0 and checked > 0)
    ctx.add_check("greedy_speedup_ge_5x", g_ref / g_inc >= 5.0)
    ctx.add_check("exact_speedup_ge_5x", e_ref / e_inc >= 5.0)


@pytest.fixture(scope="module")
def e15_tables():
    greedy_rows, greedy_walls, greedy_slots = run_greedy_workload()
    exact_rows, exact_walls, exact_outcomes = run_exact_workload()
    print_table(
        _HEADERS, greedy_rows,
        title="E15 — greedy deactivation, per-probe rebuild vs repair",
    )
    print_table(
        _HEADERS, exact_rows,
        title="E15 — exact search, per-probe rebuild vs repair",
    )
    return greedy_walls, greedy_slots, exact_walls, exact_outcomes


class TestFlowEngine:
    def test_verdicts_agree(self, e15_tables):
        _, (ref_slots, inc_slots), _, (ref_out, inc_out) = e15_tables
        assert ref_slots == inc_slots
        assert ref_out == inc_out

    def test_speedups(self, e15_tables):
        (g_ref, g_inc), _, (e_ref, e_inc), _ = e15_tables
        assert g_ref / g_inc >= 5.0
        assert e_ref / e_inc >= 5.0

    def test_agreement_sweep(self, e15_tables):
        checked, probes, mismatches = run_agreement_sweep(_SWEEP_SMOKE)
        assert mismatches == 0
        assert checked == _SWEEP_SMOKE * len(_SWEEP_FAMILIES)
        assert probes > 0

    def test_incremental_workload_benchmark(self, benchmark):
        instance = random_laminar(30, 3, seed=101, horizon=80)
        run_once(
            benchmark,
            minimal_feasible_slots,
            instance,
            order="right_to_left",
        )


if __name__ == "__main__":
    raise SystemExit(bench_main(run_bench))
