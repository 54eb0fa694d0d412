"""Non-canonical feasible LP solutions for stress-testing the rounding.

Theorem 4.5 promises feasibility of Algorithm 1's output for *any*
feasible solution of LP (1) (after the Lemma 3.1 transformation), not
just the optimum a solver happens to return.  These helpers explore that
space:

* :func:`solve_with_weights` — optimize a random positive weighting of
  the ``x`` variables instead of the uniform objective; the result is a
  vertex of the same feasible region but generally *not* an optimum of
  LP (1), with a different fractional support;
* :func:`convex_combination` — mix two feasible solutions; the result is
  feasible but not a vertex, spreading fractional mass the way the
  paper's hard-case analysis anticipates.
"""

from __future__ import annotations

import random

from repro.lp.nested_lp import (
    NestedLPSolution,
    build_nested_lp,
    job_classes,
    lift_solution,
)
from repro.tree.canonical import CanonicalInstance


def solve_with_weights(
    canonical: CanonicalInstance, seed: int, *, spread: float = 1.0
) -> NestedLPSolution:
    """Solve LP (1)'s feasible region under a random positive objective.

    Weights are ``1 + spread·U(0,1)`` per node, so the solution stays a
    reasonable (if suboptimal) open-slot profile; the ``value`` field
    reports ``Σx`` (the active-time objective), not the weighted one.
    """
    rng = random.Random(seed)
    classes = job_classes(canonical)
    lp, thresholds = build_nested_lp(canonical, classes=classes)
    # Rebuild the objective: random weights on x (columns 0..m-1), zero
    # on y.
    for i in range(canonical.forest.m):
        lp._objective[i] = 1.0 + spread * rng.random()
    lifted = lift_solution(canonical, lp, lp.solve(), thresholds, classes)
    lifted.value = float(lifted.x.sum())
    return lifted


def convex_combination(
    a: NestedLPSolution, b: NestedLPSolution, lam: float
) -> NestedLPSolution:
    """``lam·a + (1-lam)·b`` — feasible by convexity, generally non-vertex."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must be in [0, 1]")
    x = lam * a.x + (1 - lam) * b.x
    y = lam * a.y + (1 - lam) * b.y
    return NestedLPSolution(float(x.sum()), x, y, thresholds=a.thresholds)
