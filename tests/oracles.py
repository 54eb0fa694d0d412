"""Independent reference computations the forest tests compare against.

Each is written for obviousness, not speed: pairwise containment instead
of a sweep, slot enumeration instead of interval arithmetic, and the
push-down and rounding loops over subtree lists as first written.
:func:`ub_duals` reads an LP solution's inequality duals as modelled.
"""

from __future__ import annotations

from math import ceil, floor
from typing import Iterable

import numpy as np

from repro.core.rounding import APPROX_FACTOR
from repro.util.intervals import Interval
from repro.util.numeric import EPS, SUM_EPS, snap_vector


def crossing_pair(
    intervals: Iterable[Interval],
) -> tuple[Interval, Interval] | None:
    """A properly crossing pair, or ``None`` when laminar: the witness the
    library reported before windows were swept as int pairs.

    Sort by ``(start, -end)`` so that at each new interval every open
    ancestor is on the stack; the family is laminar iff each new interval
    nests inside the innermost open one (or starts after it ends).
    """
    items = sorted(set(intervals), key=lambda iv: (iv.start, -iv.end))
    stack: list[Interval] = []
    for iv in items:
        while stack and stack[-1].end <= iv.start:
            stack.pop()
        if stack and not stack[-1].contains_interval(iv):
            return stack[-1], iv
        stack.append(iv)
    return None


def containment_forest(
    intervals: list[tuple[int, int]],
) -> tuple[list[int], list[int], list[int]]:
    """``(parent, length, depth)`` of distinct laminar intervals by brute
    force: the parent is the smallest strict superset (``-1`` if none), the
    depth the number of strict supersets, and the length the slots of the
    interval that no child interval covers."""
    supersets = [
        [
            k
            for k, (a, b) in enumerate(intervals)
            if a <= s and e <= b and (a, b) != (s, e)
        ]
        for s, e in intervals
    ]
    parent = [
        min(sup, key=lambda k: intervals[k][1] - intervals[k][0]) if sup else -1
        for sup in supersets
    ]
    length = []
    for i, (s, e) in enumerate(intervals):
        covered = {
            t
            for c, (a, b) in enumerate(intervals)
            if parent[c] == i
            for t in range(a, b)
        }
        length.append(sum(1 for t in range(s, e) if t not in covered))
    return parent, length, [len(sup) for sup in supersets]


def reference_push_down(forest, x):
    """Lemma 3.1 as first written: ``(x, topmost, (src, dst, frac))``.

    Each positive node, in preorder, pushes its mass into its strict
    descendants sorted deepest first, on numpy scalars; ``I`` is read off
    the ancestor lists.
    """
    x = x.astype(float).copy()
    lengths = np.array(forest.length, dtype=float)
    src, dst, frac = [], [], []
    for i1 in forest.preorder:
        if x[i1] <= EPS:
            continue
        for i2 in sorted(forest.strict_descendants(i1), key=lambda k: -forest.depth[k]):
            if x[i1] <= EPS:
                break
            slack = lengths[i2] - x[i2]
            if slack <= EPS:
                continue
            theta = min(slack, x[i1])
            src.append(i1)
            dst.append(i2)
            frac.append(theta / x[i1])
            x[i1] -= theta
            x[i2] += theta
    x = snap_vector(x)
    topmost = [
        i
        for i in range(forest.m)
        if x[i] > EPS and all(x[a] <= EPS for a in forest.strict_ancestors(i))
    ]
    return x, topmost, (src, dst, [float(f) for f in frac])


def reference_round(forest, x, topmost):
    """Algorithm 1 as first written: ``(x_tilde, rounded_up)``.

    Walk ``Anc(I)`` bottom-up; while the budget affords it, round up the
    first floored ``I``-node of ``Des(i)`` in preorder, scanning for it.
    """
    tops = set(topmost)
    x_tilde = np.array(
        [float(floor(v + EPS)) if i in tops else float(floor(v + 0.5)) for i, v in enumerate(x)]
    )
    anc_of_i = {a for i in topmost for a in forest.ancestors(i)}
    rounded_up = []
    for i in forest.postorder:
        if i not in anc_of_i:
            continue
        des = forest.descendants(i)
        x_sum = float(x[des].sum())
        while APPROX_FACTOR * x_sum >= float(x_tilde[des].sum()) + 1.0 - SUM_EPS:
            candidate = next((k for k in des if k in tops and x_tilde[k] < x[k] - EPS), None)
            if candidate is None:
                break
            x_tilde[candidate] = ceil(x[candidate] - EPS)
            rounded_up.append(candidate)
    return x_tilde, rounded_up


def ub_duals(parts, sol) -> np.ndarray:
    """The duals of the compiled ``A_ub`` rows of ``parts = lp.compile()``
    in ``sol``, with the ``>=`` rows (compiled negated) flipped back: a
    binding ``>=`` row has a nonnegative dual, a binding ``<=`` row a
    nonpositive one."""
    if sol.marginals_ub is None:
        return np.zeros(0)
    return np.where(parts["negated_ub"], -sol.marginals_ub, sol.marginals_ub)
