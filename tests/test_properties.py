"""Hypothesis property tests over the core pipeline.

Random *structured* instances are generated directly with hypothesis (not
via the library's own generators, to avoid shared blind spots), then the
central invariants are asserted end to end:

* the 9/5 algorithm always emits a valid schedule within budget;
* exact ≤ greedy ≤ 3·exact; exact ≤ algorithm value;
* LP values are genuine lower bounds and ordered by relaxation strength;
* serialization round-trips.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.exact import solve_exact
from repro.baselines.minimal_feasible import minimal_feasible_slots
from repro.core.algorithm import solve_nested
from repro.core.rounding import APPROX_FACTOR
from repro.flow.feasibility import all_slots_feasible
from repro.instances.io import instance_from_dict, instance_to_dict
from repro.instances.jobs import Instance, Job
from repro.lp.natural_lp import solve_natural_lp
from repro.lp.nested_lp import solve_nested_lp
from repro.tree.canonical import canonicalize
from repro.util.numeric import SUM_EPS


@st.composite
def laminar_instances(draw) -> Instance:
    """Small random laminar instances built from a random window tree."""
    g = draw(st.integers(1, 4))
    horizon = draw(st.integers(4, 16))
    windows = [(0, horizon)]
    # A couple of nested levels of sub-windows.
    for _ in range(draw(st.integers(0, 4))):
        parent = windows[draw(st.integers(0, len(windows) - 1))]
        lo, hi = parent
        if hi - lo < 2:
            continue
        a = draw(st.integers(lo, hi - 1))
        b = draw(st.integers(a + 1, hi))
        if (a, b) != parent:
            # Keep laminarity: only accept if nested/disjoint with all.
            ok = all(
                b <= w0 or w1 <= a or (w0 <= a and b <= w1) or (a <= w0 and w1 <= b)
                for (w0, w1) in windows
            )
            if ok:
                windows.append((a, b))
    n = draw(st.integers(1, 6))
    jobs = []
    for k in range(n):
        w = windows[draw(st.integers(0, len(windows) - 1))]
        p = draw(st.integers(1, min(3, w[1] - w[0])))
        jobs.append(Job(id=k, release=w[0], deadline=w[1], processing=p))
    return Instance(jobs=tuple(jobs), g=g, name="hyp")


FEASIBLE = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@given(laminar_instances())
@FEASIBLE
def test_algorithm_invariants(inst):
    if not all_slots_feasible(inst):
        return
    result = solve_nested(inst)
    assert result.schedule.is_valid
    assert result.repairs == 0
    assert result.active_time <= APPROX_FACTOR * result.lp_value + SUM_EPS


@given(laminar_instances())
@FEASIBLE
def test_algorithm_vs_exact_sandwich(inst):
    if not all_slots_feasible(inst):
        return
    opt = solve_exact(inst).optimum
    result = solve_nested(inst)
    assert opt <= result.active_time
    assert result.active_time <= APPROX_FACTOR * opt + SUM_EPS


@given(laminar_instances())
@FEASIBLE
def test_greedy_sandwich(inst):
    if not all_slots_feasible(inst):
        return
    opt = solve_exact(inst).optimum
    greedy = len(minimal_feasible_slots(inst, "given"))
    assert opt <= greedy <= 3 * opt


@given(laminar_instances())
@FEASIBLE
def test_lp_ordering(inst):
    if not all_slots_feasible(inst):
        return
    natural = solve_natural_lp(inst).value
    canon = canonicalize(inst)
    weak = solve_nested_lp(canon, ceiling=False).value
    strong = solve_nested_lp(canon, ceiling=True).value
    opt = solve_exact(inst).optimum
    assert natural <= opt + SUM_EPS
    assert weak <= strong + SUM_EPS
    assert strong <= opt + SUM_EPS


@given(laminar_instances())
@settings(max_examples=80, deadline=None)
def test_io_roundtrip(inst):
    again = instance_from_dict(instance_to_dict(inst))
    assert again.jobs == inst.jobs
    assert again.g == inst.g


@given(laminar_instances())
@FEASIBLE
def test_canonicalization_preserves_optimum(inst):
    if not all_slots_feasible(inst):
        return
    canon = canonicalize(inst)
    assert solve_exact(inst).optimum == solve_exact(canon.instance).optimum


@given(laminar_instances())
@settings(max_examples=60, deadline=None)
def test_tree_lengths_partition_cover(inst):
    canon = canonicalize(inst)
    covered = {t for j in inst.jobs for t in range(j.release, j.deadline)}
    total = sum(canon.forest.length[i] for i in range(canon.forest.m))
    assert total == len(covered)
