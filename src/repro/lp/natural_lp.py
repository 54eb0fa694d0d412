"""The natural per-slot LP relaxation of active-time scheduling.

``x(t)`` = extent slot ``t`` is open, ``y(t, j)`` = extent job ``j`` uses
slot ``t``.  This is the relaxation whose integrality gap approaches 2
([3]); it works for arbitrary (not necessarily laminar) instances and is
the base of the Călinescu–Wang LP in :mod:`repro.lp.cw_lp`.
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.instances.jobs import Instance
from repro.lp.backend import LinearProgram
from repro.util.numeric import snap_vector


@dataclass(frozen=True)
class SlotLPSolution:
    """Solution of a per-slot LP; ``x[t]`` indexed by absolute slot."""

    value: float
    x: dict[int, float]
    y: dict[tuple[int, int], float]  # (slot, job id) -> extent


def build_natural_lp(instance: Instance) -> LinearProgram:
    """Build the natural LP (no ceiling constraints).

    ``x`` of slot ``t`` is column ``t - horizon.start``; the ``y``
    columns follow, job by job in ``instance.jobs`` order, each job's
    window slots in time order.
    """
    lp = LinearProgram(name=f"natural_lp({instance.name})")
    slots = instance.slots()
    start = slots.start
    lp.add_vars(len(slots), objective=1.0, upper=1.0)
    ycols = [lp.add_vars(job.deadline - job.release) for job in instance.jobs]
    jobs_at: list[list[int]] = [[] for _ in slots]  # y columns per slot
    for job, ys in zip(instance.jobs, ycols):
        lp.add_constraint(dict.fromkeys(ys, 1.0), ">=", job.processing)
        for t, y in zip(range(job.release, job.deadline), ys):
            lp.add_constraint({y: 1.0, t - start: -1.0}, "<=", 0.0)
            jobs_at[t - start].append(y)
    for k, ys in enumerate(jobs_at):
        if ys:
            coeffs = dict.fromkeys(ys, 1.0)
            coeffs[k] = -float(instance.g)
            lp.add_constraint(coeffs, "<=", 0.0)
    return lp


def solve_natural_lp(instance: Instance) -> SlotLPSolution:
    """Solve the natural LP; values snapped within tolerance."""
    return _solve_slot_lp(instance, build_natural_lp(instance))


def _solve_slot_lp(instance: Instance, lp: LinearProgram) -> SlotLPSolution:
    """Solve a per-slot LP laid out by :func:`build_natural_lp` and read
    it back: ``x`` snapped within tolerance, ``y`` above ``1e-9`` only."""
    sol = lp.solve()
    slots = instance.slots()
    x = dict(zip(slots, snap_vector(sol.x[: len(slots)]).tolist()))
    y = {}
    base = len(slots)
    for job in instance.jobs:
        window = range(job.release, job.deadline)
        values = sol.x[base : base + len(window)].tolist()
        base += len(window)
        for t, v in zip(window, values):
            if v > 1e-9:
                y[(t, job.id)] = v
    return SlotLPSolution(value=float(sol.value), x=x, y=y)
