"""The Călinescu–Wang LP (Figure 3 of the paper).

The natural per-slot LP plus *interval ceiling constraints*: for every
time interval ``I = [t1, t2)``,

    Σ_{t ∈ I} x(t)  ≥  ⌈ Σ_j q_j(I) / g ⌉

where ``q_j(I)`` is the minimum number of slots job ``j`` must occupy
inside ``I`` even if every slot outside ``I`` were active:

    q_j(I) = max(0, p_j - |window_j \\ I|).

The number of constraints is quadratic in the horizon, so this model is
intended for the moderate instances of the gap experiments (E3/E4).
"""

from __future__ import annotations

import numpy as np

from repro.instances.jobs import Instance, Job
from repro.lp.backend import LinearProgram
from repro.lp.natural_lp import SlotLPSolution, _solve_slot_lp, build_natural_lp
from repro.util.intervals import Interval


def forced_occupancy(job: Job, interval: Interval) -> int:
    """``q_j(I)``: slots job ``j`` is forced to use inside ``interval``."""
    window = job.window
    inter = window.intersect(interval)
    inside = inter.length if inter else 0
    outside = window.length - inside
    return max(0, job.processing - outside)


def build_cw_lp(instance: Instance) -> LinearProgram:
    """Natural LP plus all interval ceiling constraints.

    The forced-occupancy sums are evaluated on a broadcast ``(t1, t2)``
    grid and all ceiling rows are appended as one CSR block; the model
    compiles bit-for-bit like the per-interval reference build
    :func:`repro.verify.reference.reference_cw_lp`.
    """
    lp = build_natural_lp(instance)
    lp.name = f"cw_lp({instance.name})"
    _add_ceiling_block(lp, instance)
    return lp


def _add_ceiling_block(lp: LinearProgram, instance: Instance) -> None:
    """Vectorized interval-ceiling rows, in (t1 asc, t2 asc) order.

    ``q_j([t1,t2)) = max(0, p_j - w_j + overlap)`` broadcasts over the
    interval grid; the grid is evaluated in t1 chunks to bound the
    ``O(H²·n)`` intermediate at a few megabytes.
    """
    start, end = instance.horizon.start, instance.horizon.end
    h = end - start
    n_jobs = instance.n
    if h <= 0 or n_jobs == 0:
        return
    rel = np.fromiter(
        (j.release for j in instance.jobs), dtype=np.int64, count=n_jobs
    )
    dead = np.fromiter(
        (j.deadline for j in instance.jobs), dtype=np.int64, count=n_jobs
    )
    proc = np.fromiter(
        (j.processing for j in instance.jobs), dtype=np.int64, count=n_jobs
    )
    base = proc - (dead - rel)  # p_j - w_j (≤ 0 for feasible jobs)
    t1 = np.arange(start, end, dtype=np.int64)
    t2 = np.arange(start + 1, end + 1, dtype=np.int64)
    lo = np.maximum(rel[None, :], t1[:, None])  # (h, n): max(r_j, t1)
    hi = np.minimum(dead[None, :], t2[:, None])  # (h, n): min(d_j, t2)
    forced = np.empty((h, h), dtype=np.int64)
    chunk = max(1, 4_000_000 // max(1, h * n_jobs))
    for a0 in range(0, h, chunk):
        a1 = min(h, a0 + chunk)
        overlap = np.clip(hi[None, :, :] - lo[a0:a1, None, :], 0, None)
        forced[a0:a1] = np.clip(base[None, None, :] + overlap, 0, None).sum(
            axis=2
        )
    if h > 1:
        forced[np.tril_indices(h, -1)] = 0  # t2 ≤ t1: not an interval
    sel_a, sel_b = np.nonzero(forced > 0)
    if not sel_a.size:
        return
    rhs_int = -(-forced[sel_a, sel_b] // int(instance.g))  # ceil div
    lens = sel_b - sel_a + 1  # slots in [t1, t2)
    total = int(lens.sum())
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    # x of slot t is column t - start (build_natural_lp's layout).
    lp.add_constraint_block(
        np.ones(total),
        np.repeat(sel_a, lens) + within,
        np.concatenate(([0], np.cumsum(lens))),
        ">=",
        rhs_int.astype(float),
    )


def solve_cw_lp(instance: Instance) -> SlotLPSolution:
    """Solve the Călinescu–Wang LP; values snapped within tolerance."""
    return _solve_slot_lp(instance, build_cw_lp(instance))
