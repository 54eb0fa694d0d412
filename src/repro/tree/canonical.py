"""Canonical trees (Definition 2.1): binary with rigid leaves.

Two instance-preserving transformations from Section 2:

1. *Binarization*: a node with ``t > 2`` children gets a caterpillar of
   virtual nodes so every node has at most 2 children.  A virtual node's
   interval is the hull of the children it groups; its length counts the
   gap slots between those children (the paper's ``L = 0`` is the special
   case of gap-free hulls — computing ``L`` from intervals keeps the
   instance literally unchanged, since a gap slot serves exactly the same
   job set whether it is charged to the parent or to the virtual node).
2. *Rigid leaves*: a leaf whose longest job ``j`` has ``p_j < |K(leaf)|``
   gets a child covering the first ``p_j`` slots, and ``j``'s window is
   shrunk to it.  The new leaf is rigid (any feasible solution opens all of
   it).  W.l.o.g. valid because slots inside a leaf are interchangeable.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.instances.jobs import Instance, Job
from repro.tree.laminar import window_lists
from repro.tree.node import WindowForest


@dataclass(frozen=True)
class CanonicalInstance:
    """A canonicalized laminar instance with its window forest.

    Attributes
    ----------
    instance:
        The transformed instance (some job windows may be shrunk).  Any
        schedule for it is a schedule for :attr:`original` with the same
        number of active slots, and the optima coincide.
    original:
        The instance as given by the caller.
    forest:
        Canonical window forest (binary, rigid leaves).
    job_node:
        Maps job id to its tree node ``k(j)`` in :attr:`forest`.
    shrunk_jobs:
        Job ids whose windows were shrunk by the rigid-leaf step.
    """

    instance: Instance
    original: Instance
    forest: WindowForest
    job_node: dict[int, int]
    shrunk_jobs: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.forest.m


def _binarize(
    start: list[int], end: list[int], children: list[list[int]], jobs: list[list[int]]
) -> None:
    """Append virtual hull nodes until every node has at most 2 children.

    A node with children ``k0 … k(t-1)`` keeps ``[v1, k(t-1)]``; ``v(s)``
    is the hull of ``k0 … k(t-1-s)`` with children ``[v(s+1), k(t-1-s)]``,
    down to ``[k0, k1]``.  Nodes are expanded from the highest index
    down, each caterpillar numbered from the top.
    """
    for i in [i for i, kids in enumerate(children) if len(kids) > 2][::-1]:
        kids = children[i]
        top = i
        for k in range(len(kids) - 1, 1, -1):
            v = len(start)
            start.append(start[kids[0]])
            end.append(end[kids[k - 1]])
            children[top] = [v, kids[k]]
            children.append(kids[:2])  # the last hull's; the others are replaced
            jobs.append([])
            top = v


def _make_leaves_rigid(
    start: list[int],
    end: list[int],
    children: list[list[int]],
    jobs: list[list[int]],
    jobs_by_id: dict[int, Job],
) -> list[int]:
    """Apply the rigid-leaf transformation; returns ids of shrunk jobs."""
    shrunk: list[int] = []
    for i in range(len(start)):
        if children[i]:
            continue
        # Every leaf is a job window (hulls have children): its first
        # longest job, in instance order, gets the rigid child.
        longest = max(jobs[i], key=lambda jid: jobs_by_id[jid].processing)
        p = jobs_by_id[longest].processing
        if p == end[i] - start[i]:
            continue  # already rigid
        children[i] = [len(start)]
        start.append(start[i])
        end.append(start[i] + p)
        children.append([])
        jobs.append([longest])
        jobs[i].remove(longest)
        jobs_by_id[longest] = jobs_by_id[longest].with_window(start[i], start[i] + p)
        shrunk.append(longest)
    return shrunk


def canonicalize(instance: Instance) -> CanonicalInstance:
    """Build the canonical (binary, rigid-leaf) form of a laminar instance.

    The lists of the instance's window forest are extended in place and
    made into one forest, checked once.
    """
    start, end, children, jobs = window_lists(instance)
    jobs_by_id = {j.id: j for j in instance.jobs}
    windows = len(start)
    _binarize(start, end, children, jobs)
    virtual = range(windows, len(start))
    shrunk = _make_leaves_rigid(start, end, children, jobs, jobs_by_id)

    canon_forest = WindowForest(start, end, children, jobs, virtual=virtual)
    job_node = {jid: i for i, ids in enumerate(jobs) for jid in ids}
    canon_instance = Instance(
        jobs=tuple(jobs_by_id.values()), g=instance.g, name=instance.name or "canonical"
    )
    return CanonicalInstance(
        instance=canon_instance,
        original=instance,
        forest=canon_forest,
        job_node=job_node,
        shrunk_jobs=tuple(shrunk),
    )


def is_canonical(forest: WindowForest, jobs_by_id: dict[int, Job]) -> bool:
    """Check Definition 2.1: binary tree with rigid leaves."""
    for i, kids in enumerate(forest.children):
        if len(kids) > 2:
            return False
        if not kids:
            ids = forest.jobs[i]
            if not ids:
                return False
            if max(jobs_by_id[j].processing for j in ids) != forest.length[i]:
                return False
    return True
