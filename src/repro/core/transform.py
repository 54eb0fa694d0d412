"""Lemma 3.1: push fractional open slots down the tree.

Given a feasible LP solution ``(x, y)``, repeatedly move open mass from a
node to an unsaturated strict descendant (moving each job's assignment
proportionally) until the invariant holds:

    if any strict descendant of ``i`` has ``x < L``, then ``x(i) = 0``.

Afterwards the *topmost positive* nodes ``I`` satisfy Claim 1: pairwise
incomparable, all leaves below them, everything strictly below fully open,
everything strictly above zero.

Which mass moves where depends on ``x`` alone, and the rounding reads
only ``x`` and ``I``; so the moves run on ``x`` and are recorded, and
the transformed ``y`` is a replay of them, made only when read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.tree.node import WindowForest
from repro.util.numeric import EPS, snap_vector


@dataclass
class TransformedLP:
    """LP solution after the Lemma 3.1 transformation.

    Attributes
    ----------
    x:
        The transformed open-slot vector (same total as the input).
    topmost:
        The set ``I``: topmost nodes with ``x > 0``.
    moves:
        Number of push-down operations performed.
    steps:
        The moves in order, as parallel arrays: source node, target
        node, and the share of the source's ``x`` (and of each job's
        ``y`` there) moved.
    source:
        Returns the input per-job ``y``.
    y:
        The transformed per-job ``y``: the moves replayed on the input
        ``y``, built on first read.
    """

    x: np.ndarray
    topmost: list[int]
    moves: int
    steps: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    source: Callable[[], np.ndarray] = field(repr=False)
    _y: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def y(self) -> np.ndarray:
        if self._y is None:
            y = np.array(self.source(), dtype=float)
            src, dst, frac = (a.tolist() for a in self.steps)
            for i1, i2, f in zip(src, dst, frac):
                moved = f * y[i1, :]
                y[i1, :] -= moved
                y[i2, :] += moved
            y[np.abs(y) < EPS] = 0.0
            self._y = y
        return self._y


def push_down(
    forest: WindowForest,
    x: np.ndarray,
    y: np.ndarray | Callable[[], np.ndarray],
) -> TransformedLP:
    """Apply the Lemma 3.1 transformation (in a fresh copy).

    One preorder pass suffices: when node ``i1`` is processed, its mass is
    pushed into unsaturated strict descendants until ``x(i1) = 0`` or all
    are saturated; mass only ever moves downward, and a node that keeps
    mass has a fully saturated subtree, so no later step re-violates it.

    ``y`` is the per-job array the moves act on, or a function of no
    arguments returning it; it is read only when the result's ``y`` is.
    """
    pre, depth, tin, tout = forest.preorder, forest.depth, forest.tin, forest.tout
    length, parent = forest.length, forest.parent
    # Python floats do the same double arithmetic as the array's scalars.
    xs = x.astype(float).tolist()
    # ``Des+(i)`` deepest first, preorder within a depth: per depth the
    # sorted preorder positions, of which subtree i holds one range; and
    # per node the depth of its deepest descendant.
    levels: list[list[int]] = [[] for _ in range(max(depth, default=0) + 1)]
    for t, i in enumerate(pre):
        levels[depth[i]].append(t)
    bottom = depth[:]
    for i in forest.postorder:
        if parent[i] >= 0 and bottom[parent[i]] < bottom[i]:
            bottom[parent[i]] = bottom[i]
    src: list[int] = []
    dst: list[int] = []
    frac: list[float] = []
    for i1 in pre:
        if xs[i1] <= EPS:
            continue
        lo, hi = tin[i1], tout[i1]
        deepest_first = (
            pre[t]
            for level in levels[bottom[i1] : depth[i1] : -1]
            for t in level[bisect_left(level, lo) : bisect_left(level, hi)]
        )
        for i2 in deepest_first:
            if xs[i1] <= EPS:
                break
            slack = length[i2] - xs[i2]
            if slack <= EPS:
                continue
            theta = min(slack, xs[i1])
            src.append(i1)
            dst.append(i2)
            frac.append(theta / xs[i1])
            xs[i1] -= theta
            xs[i2] += theta
    x = snap_vector(xs)
    # I: positive nodes under no positive strict ancestor (one preorder pass).
    xs = x.tolist()
    shadowed = [False] * forest.m
    for i in pre:
        p = parent[i]
        if p >= 0:
            shadowed[i] = shadowed[p] or xs[p] > EPS
    topmost = [i for i, v in enumerate(xs) if v > EPS and not shadowed[i]]
    return TransformedLP(
        x=x,
        topmost=topmost,
        moves=len(src),
        steps=(
            np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64),
            np.array(frac, dtype=float),
        ),
        source=y if callable(y) else lambda: y,
    )


def verify_pushdown_invariant(forest: WindowForest, x: np.ndarray) -> bool:
    """Check the Lemma 3.1 property on a solution."""
    for i1 in range(forest.m):
        if x[i1] <= EPS:
            continue
        for i2 in forest.strict_descendants(i1):
            if x[i2] < forest.length[i2] - EPS:
                return False
    return True


def verify_claim1(forest: WindowForest, x: np.ndarray, topmost: list[int]) -> list[str]:
    """Check properties (1a)–(1e) of Claim 1; returns violations."""
    problems: list[str] = []
    tops = set(topmost)
    for i in topmost:
        for a in forest.strict_ancestors(i):
            if a in tops:
                problems.append(f"(1a) {a} is a strict ancestor of {i} in I")
            if x[a] > EPS:
                problems.append(f"(1e) strict ancestor {a} of {i} has x > 0")
        if x[i] <= EPS:
            problems.append(f"(1c) node {i} in I has x = 0")
        for d in forest.strict_descendants(i):
            if abs(x[d] - forest.length[d]) > EPS:
                problems.append(f"(1d) descendant {d} of {i} not fully open")
    covered = set()
    for i in topmost:
        covered.update(forest.descendants(i))
    for leaf in forest.leaves():
        if leaf not in covered:
            problems.append(f"(1b) leaf {leaf} outside Des(I)")
    return problems
