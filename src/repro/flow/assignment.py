"""Turning node-level assignments into concrete slot schedules.

Within one tree node, any ``x`` open slots of its exclusive region are
interchangeable, so a node-level assignment ``y(i, j)`` (with
``y(i, j) ≤ x(i)`` and ``Σ_j y(i, j) ≤ g·x(i)``) always decomposes into a
per-slot schedule.  The decomposition is the classic *wrap-around rule*
(McNaughton-style): lay all units out in one long row-major ribbon over the
``x`` slots; each job occupies at most ``x`` consecutive ribbon cells, so it
never repeats a slot, and no slot exceeds ``⌈total/x⌉ ≤ g`` jobs.

A job's cells are at most two ribbon pieces, and the ``x`` open slots are
a few ``(start, stop)`` runs (one per gap between the node's children), so
each piece maps onto slot runs through prefix sums and a binary search:
the cost is per piece and per run, never per unit.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import Mapping, Sequence

from repro.core.schedule import Runs, Schedule
from repro.instances.jobs import Instance
from repro.tree.node import WindowForest
from repro.util.errors import SolverError


def spread_runs(
    units: Mapping[int, int], runs: Sequence[tuple[int, int]], capacity: int
) -> dict[int, Runs]:
    """Assign ``units[j]`` slot-units per job onto open slot runs (wrap-around).

    Parameters
    ----------
    units:
        Job id → number of units to place (each unit on a distinct slot).
    runs:
        The open slots of one node as sorted disjoint ``(start, stop)``
        ranges.
    capacity:
        Per-slot job limit ``g``.

    Returns
    -------
    Job id → its sorted disjoint ranges, packed flat
    (:data:`~repro.core.schedule.Runs`).

    Raises
    ------
    SolverError
        If the load conditions ``units[j] ≤ x`` or ``Σ units ≤ g·x`` fail
        for the ``x`` open slots (caller bug).
    """
    ends = list(accumulate(stop - start for start, stop in runs))
    x = ends[-1] if ends else 0
    total = sum(units.values())
    if total == 0:
        return {j: () for j in units}
    if x == 0:
        raise SolverError("units to place but no open slots")
    if total > capacity * x:
        raise SolverError(f"load {total} exceeds capacity {capacity}*{x}")

    out: dict[int, Runs] = {}
    cursor = 0
    for jid in sorted(units):
        need = units[jid]
        if need > x:
            raise SolverError(f"job {jid} needs {need} units but only {x} slots")
        if not need:
            out[jid] = ()
            continue
        lo = cursor % x
        hi = lo + need
        cursor += need
        k = bisect_right(ends, lo)
        if hi <= ends[k]:  # inside one run: the common case
            first = runs[k][1] - ends[k] + lo
            out[jid] = (first, first + need)
        elif hi <= x:
            out[jid] = _open_ranges(runs, ends, lo, hi)
        else:  # wraps: the piece at the front comes first in slot order
            out[jid] = _open_ranges(runs, ends, 0, hi - x) + _open_ranges(runs, ends, lo, x)
    return out


def _open_ranges(
    runs: Sequence[tuple[int, int]], ends: Sequence[int], lo: int, hi: int
) -> Runs:
    """Open slots ``lo..hi-1`` (counted from 0 in slot order) as flat slot
    ranges; ``ends`` are the prefix sums of the run lengths."""
    out: list[int] = []
    k = bisect_right(ends, lo)
    while lo < hi:
        first = runs[k][1] - (ends[k] - lo)
        take = min(hi, ends[k]) - lo
        out += (first, first + take)
        lo += take
        k += 1
    return tuple(out)


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
    ``instance`` may be the original instance of a canonicalized one: the
    canonical windows lie inside the original ones.
    """
    per_node: dict[int, dict[int, int]] = {}
    for (i, jid), amount in y.items():
        if amount > 0:
            per_node.setdefault(i, {})[jid] = amount

    runs: dict[int, Runs] = {j.id: () for j in instance.jobs}
    for i, units in per_node.items():
        open_runs = forest.exclusive_runs(i, int(x[i]))
        for jid, pieces in spread_runs(units, open_runs, instance.g).items():
            runs[jid] += pieces
    return Schedule.from_runs(instance, runs)
