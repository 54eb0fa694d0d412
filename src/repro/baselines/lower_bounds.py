"""Lower bounds on the active-time optimum.

Used to certify approximation ratios when the exact solver is too slow,
and as pruning inside search.  From weakest to strongest:

* volume bound          ``⌈Σ p_j / g⌉``
* longest-job bound     ``max p_j``
* interval bound        ``max_I ⌈Σ_j q_j(I) / g⌉`` (the CW ceiling)
* natural LP bound      optimum of the per-slot relaxation
* strengthened LP bound optimum of LP (1) (laminar only; the bound the
  9/5 guarantee is proven against)
"""

from __future__ import annotations

from math import ceil

from repro.instances.jobs import Instance


def volume_bound(instance: Instance) -> int:
    """``⌈ total volume / g ⌉``."""
    if instance.n == 0:
        return 0
    return ceil(instance.total_volume / instance.g)


def longest_job_bound(instance: Instance) -> int:
    """A job needs ``p_j`` distinct active slots."""
    return max((j.processing for j in instance.jobs), default=0)


def interval_bound(instance: Instance) -> int:
    """``max_I ⌈ Σ_j q_j(I) / g ⌉`` over all windows-aligned intervals.

    Restricting ``I`` to endpoints among release/deadline values loses
    nothing: ``q_j`` only changes there.  Vectorized over the endpoint
    grid: for interval ``[a, b)``, ``q_j = max(0, p_j - (|W_j| -
    |W_j ∩ [a,b)|))``.
    """
    if instance.n == 0:
        return 0
    import numpy as np

    # Aggregate identical (release, deadline, processing) triples: the
    # reduction instances repeat one job shape thousands of times, and
    # q_j(I) only depends on the shape.
    multiplicity: dict[tuple[int, int, int], int] = {}
    for j in instance.jobs:
        key = (j.release, j.deadline, j.processing)
        multiplicity[key] = multiplicity.get(key, 0) + 1
    shapes = np.array(sorted(multiplicity), dtype=np.int64)  # (U, 3)
    counts = np.array([multiplicity[tuple(s)] for s in shapes], dtype=np.int64)
    rel, dead, proc = shapes[:, 0], shapes[:, 1], shapes[:, 2]
    win = dead - rel
    points = np.unique(np.concatenate([rel, dead]))

    # Row-chunked over the left endpoint a: memory O(P·U) per row.
    best = 0
    b = points[None, :]  # (1, P)
    for a in points[:-1]:
        overlap = np.maximum(
            0,
            np.minimum(dead[:, None], b) - np.maximum(rel[:, None], a),
        )  # (U, P)
        forced = np.maximum(0, proc[:, None] - (win[:, None] - overlap))
        totals = (counts[:, None] * forced).sum(axis=0)  # (P,)
        valid = totals[points > a]
        if valid.size:
            best = max(best, int(valid.max()))
    return ceil(best / instance.g) if best > 0 else 0


def natural_lp_bound(instance: Instance) -> float:
    """Optimum of the natural per-slot LP.

    Solves through the solver service: repeated bound queries on the
    same instance (gap sweeps, exact-solver pruning) hit the solve
    cache.
    """
    from repro.lp.natural_lp import solve_natural_lp

    return solve_natural_lp(instance).value


def strengthened_lp_bound(instance: Instance) -> float:
    """Optimum of LP (1) on the canonical tree (laminar instances)."""
    from repro.lp.nested_lp import solve_nested_lp
    from repro.tree.canonical import canonicalize

    return solve_nested_lp(canonicalize(instance)).value


def best_combinatorial_bound(instance: Instance) -> int:
    """Strongest bound that needs no LP solve."""
    return max(
        volume_bound(instance),
        longest_job_bound(instance),
        interval_bound(instance),
    )
