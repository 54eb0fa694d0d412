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


def _xname(t: int) -> str:
    return f"x[{t}]"


def _yname(t: int, jid: int) -> str:
    return f"y[{t},{jid}]"


def build_natural_lp(instance: Instance) -> LinearProgram:
    """Build the natural LP (no ceiling constraints)."""
    lp = LinearProgram(name=f"natural_lp({instance.name})")
    slots = list(instance.slots())
    for t in slots:
        lp.add_var(_xname(t), objective=1.0, upper=1.0)
    for job in instance.jobs:
        for t in range(job.release, job.deadline):
            lp.add_var(_yname(t, job.id))
    for job in instance.jobs:
        lp.add_constraint(
            {_yname(t, job.id): 1.0 for t in range(job.release, job.deadline)},
            ">=",
            job.processing,
            label=f"volume[{job.id}]",
        )
        for t in range(job.release, job.deadline):
            lp.add_constraint(
                {_yname(t, job.id): 1.0, _xname(t): -1.0},
                "<=",
                0.0,
                label=f"spread[{t},{job.id}]",
            )
    jobs_at: dict[int, list[int]] = {t: [] for t in slots}
    for job in instance.jobs:
        for t in range(job.release, job.deadline):
            jobs_at[t].append(job.id)
    for t in slots:
        if jobs_at[t]:
            coeffs = {_yname(t, jid): 1.0 for jid in jobs_at[t]}
            coeffs[_xname(t)] = -float(instance.g)
            lp.add_constraint(coeffs, "<=", 0.0, label=f"capacity[{t}]")
    return lp


def solve_natural_lp(instance: Instance) -> SlotLPSolution:
    """Solve the natural LP; values snapped within tolerance."""
    return _solve_slot_lp(instance, build_natural_lp(instance))


def _solve_slot_lp(instance: Instance, lp: LinearProgram) -> SlotLPSolution:
    """Solve a per-slot LP over ``x[t]``/``y[t,j]`` columns and read it
    back: ``x`` snapped within tolerance, ``y`` above ``1e-9`` only."""
    sol = lp.solve()
    slots = list(instance.slots())
    xs = snap_vector(sol.get(_xname(t)) for t in slots)
    x = {t: float(v) for t, v in zip(slots, xs)}
    y = {}
    for job in instance.jobs:
        for t in range(job.release, job.deadline):
            v = sol.get(_yname(t, job.id))
            if v > 1e-9:
                y[(t, job.id)] = float(v)
    return SlotLPSolution(value=float(sol.value), x=x, y=y)
