"""Hand-crafted LP solutions that exercise the rounding's hard cases.

HiGHS (and any simplex) returns *vertex* optima, which concentrate
fractional mass into as few tree nodes as possible; empirically (see
benchmark E8) that means type-C1 nodes never materialize from solver
output — the Algorithm 1 budget always affords rounding every fractional
node up.  But Theorem 4.5 promises feasibility for the rounding of *any*
feasible LP solution, vertex or not, and the paper's triple analysis
exists precisely for the spread-out case.  This module constructs such a
solution explicitly.

``umbrella_groups(g, k)`` is one unit umbrella job over ``k`` groups of
``g`` unit jobs.  The LP optimum is ``k + 1/g`` and a vertex concentrates
the extra ``1/g`` in one group; :func:`even_spread_solution` builds the
*even* optimum instead — ``x(group node) = 1/(g·k)`` everywhere — which
makes every group a type-C topmost node with subtree mass ``1 + 1/(gk)``.
The 9/5 budget then affords only ≈ ``0.8k`` round-ups, so ≈ ``0.2k``
groups stay floored (type C1) and the umbrella's volume must re-route
through the rounded-up C2 groups — exactly the Lemma 4.13 feasibility
argument, which tests and benchmark E8 verify end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from repro.instances.jobs import Instance, Job

if TYPE_CHECKING:  # pragma: no cover
    # repro.tree.canonical imports repro.instances.jobs, so a runtime
    # import here would make the instances package __init__ circular;
    # the functions below import canonicalize lazily instead.
    from repro.tree.canonical import CanonicalInstance
    from repro.tree.node import WindowForest


def umbrella_groups(g: int, k: int, umbrella_volume: int = 1) -> Instance:
    """One umbrella job (volume ``umbrella_volume``, window ``[0, 2k)``)
    over ``k`` groups of ``g`` unit jobs (group ``i`` in ``[2i, 2i+2)``)."""
    if g < 1 or k < 1:
        raise ValueError("g and k must be positive")
    if umbrella_volume < 1 or umbrella_volume > 2 * k:
        raise ValueError("umbrella volume must fit its window")
    jobs: list[Job] = [
        Job(id=0, release=0, deadline=2 * k, processing=umbrella_volume)
    ]
    jid = 1
    for i in range(k):
        for _ in range(g):
            jobs.append(
                Job(id=jid, release=2 * i, deadline=2 * i + 2, processing=1)
            )
            jid += 1
    return Instance(jobs=tuple(jobs), g=g, name=f"umbrella_groups({g},{k})")


@dataclass(frozen=True)
class CraftedSolution:
    """A canonical instance with an explicit feasible LP (1) solution."""

    canonical: "CanonicalInstance"
    x: np.ndarray
    y: np.ndarray
    value: float

    @property
    def group_nodes(self) -> list[int]:
        """The group window nodes (length-2 intervals with jobs)."""
        return _group_nodes(self.canonical.forest)


def _group_nodes(forest: WindowForest) -> list[int]:
    """Internal nodes with jobs and a length-2 interval: the groups, not
    the umbrella's own node."""
    return [
        i
        for i in range(forest.m)
        if forest.jobs[i] and forest.children[i] and forest.end[i] - forest.start[i] == 2
    ]


def even_spread_solution(g: int, k: int) -> CraftedSolution:
    """The even-spread optimum for ``umbrella_groups(g, k)`` (volume 1).

    Per group (δ = 1/(g·k)):

    * rigid child slot fully open (``x = 1``): the moved unit job runs
      entirely there, each remaining group job at extent ``1 - δ``, and
      ``(g-1)·δ`` units of the umbrella — load exactly ``g``;
    * group node open to ``x = δ``: the remaining group jobs at ``δ``
      each plus ``δ`` umbrella — load ``g·δ``, per-job extents ≤ ``δ``.

    Summing over groups the umbrella receives ``k·g·δ = 1``.  Objective
    ``k + 1/g`` — the LP optimum — with all ``k`` groups fractional.
    """
    if g < 2:
        raise ValueError(
            "need g >= 2 (with g = 1 a group's only job moves to the rigid "
            "child and the construction below has no remaining jobs to split)"
        )
    if g * k <= 3:
        raise ValueError("need g*k > 3 so groups are type-C (x(Des) < 4/3)")
    if k < 3:
        raise ValueError("need k >= 3 groups for the root ceiling constraint")
    from repro.tree.canonical import canonicalize

    inst = umbrella_groups(g, k, 1)
    canonical = canonicalize(inst)
    forest = canonical.forest
    pos = {job.id: p for p, job in enumerate(canonical.instance.jobs)}
    umbrella_pos = pos[0]

    x = np.zeros(forest.m)
    y = np.zeros((forest.m, inst.n))
    delta = 1.0 / (g * k)

    for group in _group_nodes(forest):
        child = forest.children[group][0]
        moved = forest.jobs[child][0]
        remaining = forest.jobs[group]
        x[child] = 1.0
        x[group] = delta
        y[child, pos[moved]] = 1.0
        for jid in remaining:
            y[child, pos[jid]] = 1.0 - delta
            y[group, pos[jid]] = delta
        y[child, umbrella_pos] = (g - 1) * delta
        y[group, umbrella_pos] = delta

    return CraftedSolution(
        canonical=canonical, x=x, y=y, value=float(x.sum())
    )


def verify_lp_feasible(crafted: CraftedSolution, tol: float = 1e-9) -> list[str]:
    """Check a crafted solution against all LP (1) constraints (2)-(8)."""
    canonical = crafted.canonical
    forest = canonical.forest
    inst = canonical.instance
    x, y = crafted.x, crafted.y
    problems: list[str] = []
    for pos_, job in enumerate(inst.jobs):
        if y[:, pos_].sum() < job.processing - tol:
            problems.append(f"job {job.id} underscheduled")
        admissible = set(forest.descendants(canonical.job_node[job.id]))
        for i in range(forest.m):
            if y[i, pos_] > tol and i not in admissible:
                problems.append(f"y[{i},{job.id}] outside Des(k(j))")
            if y[i, pos_] > x[i] + tol:
                problems.append(f"y[{i},{job.id}] > x[{i}]")
    for i in range(forest.m):
        if x[i] > forest.length[i] + tol:
            problems.append(f"x[{i}] exceeds length")
        if y[i, :].sum() > inst.g * x[i] + tol:
            problems.append(f"capacity violated at node {i}")
    # Ceiling constraints (7)-(8).
    from repro.core.opt_thresholds import compute_thresholds

    thresholds = compute_thresholds(
        forest, canonical.job_node, {j.id: j for j in inst.jobs}, inst.g
    )
    for i in range(forest.m):
        omega = thresholds.value(i)
        if omega >= 2:
            if x[forest.descendants(i)].sum() < omega - tol:
                problems.append(f"ceiling x(Des({i})) >= {omega} violated")
    return problems
