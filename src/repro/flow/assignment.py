"""Turning node-level assignments into concrete slot schedules.

Within one tree node, any ``x`` open slots of its exclusive region are
interchangeable, so a node-level assignment ``y(i, j)`` (with
``y(i, j) ≤ x(i)`` and ``Σ_j y(i, j) ≤ g·x(i)``) always decomposes into a
per-slot schedule.  The decomposition is the classic *wrap-around rule*
(McNaughton-style): lay all units out in one long row-major ribbon over the
``x`` slots; each job occupies at most ``x`` consecutive ribbon cells, so it
never repeats a slot, and no slot exceeds ``⌈total/x⌉ ≤ g`` jobs.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.schedule import Schedule
from repro.instances.jobs import Instance
from repro.tree.node import WindowForest
from repro.util.errors import SolverError


def spread_units(
    units: Mapping[int, int], slots: Sequence[int], capacity: int
) -> dict[int, list[int]]:
    """Assign ``units[j]`` slot-units per job onto ``slots`` (wrap-around).

    Parameters
    ----------
    units:
        Job id → number of units to place (each unit on a distinct slot).
    slots:
        The concrete open slots of one node.
    capacity:
        Per-slot job limit ``g``.

    Returns
    -------
    Job id → list of slots.

    Raises
    ------
    SolverError
        If the load conditions ``units[j] ≤ len(slots)`` or
        ``Σ units ≤ g·len(slots)`` fail (caller bug).
    """
    x = len(slots)
    total = sum(units.values())
    if total == 0:
        return {j: [] for j in units}
    if x == 0:
        raise SolverError("units to place but no open slots")
    if total > capacity * x:
        raise SolverError(f"load {total} exceeds capacity {capacity}*{x}")
    out: dict[int, list[int]] = {}
    cursor = 0
    for jid in sorted(units):
        k = units[jid]
        if k > x:
            raise SolverError(f"job {jid} needs {k} units but only {x} slots")
        out[jid] = [slots[(cursor + step) % x] for step in range(k)]
        cursor += k
    return out


def schedule_from_node_counts(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
    x: Sequence[int],
    y: Mapping[tuple[int, int], int],
) -> Schedule:
    """Build a full schedule from node open-counts ``x`` and units ``y``.

    ``y[(i, j)]`` gives the units of job ``j`` placed in node ``i`` (e.g.
    from :func:`repro.flow.feasibility.node_assignment`).  Each node's units
    are spread over the first ``x(i)`` slots of its exclusive region.
    """
    per_node: dict[int, dict[int, int]] = {}
    for (i, jid), amount in y.items():
        if amount > 0:
            per_node.setdefault(i, {})[jid] = amount

    assignment: dict[int, list[int]] = {j.id: [] for j in instance.jobs}
    for i, units in per_node.items():
        open_slots = forest.exclusive_slots(i, limit=int(x[i]))
        placed = spread_units(units, open_slots, instance.g)
        for jid, slots in placed.items():
            assignment[jid].extend(slots)
    return Schedule.from_assignment(instance, assignment)
