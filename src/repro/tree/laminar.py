"""Construction of the window forest from a laminar instance (Section 2).

One tree node per *distinct* job window; node ``i'`` is a child of ``i``
when ``K(i') ⊊ K(i)`` with no window strictly between.  Jobs map onto nodes
via ``k(j)``.  All of it comes from the instance's one sweep of its windows
(:attr:`Instance.nest <repro.instances.jobs.Instance.nest>`).
"""

from __future__ import annotations

from repro.instances.jobs import Instance
from repro.tree.node import WindowForest


def build_forest(instance: Instance) -> tuple[WindowForest, dict[int, int]]:
    """Build the window forest of a laminar instance.

    Returns
    -------
    (forest, job_node):
        ``forest`` is the :class:`WindowForest`; ``job_node`` maps each job
        id to its node index ``k(j)``.

    Raises
    ------
    NotLaminarError
        If the instance windows cross.
    """
    start, end, children, jobs = window_lists(instance)
    job_node = {job.id: k for job, k in zip(instance.jobs, instance.nest.of_item)}
    return WindowForest(start, end, children, jobs), job_node


def window_lists(
    instance: Instance,
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """Fresh ``start``, ``end``, ``children`` and ``jobs`` lists of the
    window forest, which a caller may extend
    (:func:`~repro.tree.canonical.canonicalize`)."""
    instance.require_laminar()
    nest = instance.nest
    children: list[list[int]] = [[] for _ in nest.start]
    # Windows come in (start, -end) order, so each child list is sorted.
    for i, p in enumerate(nest.parent):
        if p >= 0:
            children[p].append(i)
    jobs: list[list[int]] = [[] for _ in nest.start]
    for job, k in zip(instance.jobs, nest.of_item):
        jobs[k].append(job.id)
    return list(nest.start), list(nest.end), children, jobs
