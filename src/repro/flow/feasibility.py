"""Flow-based feasibility tests and schedule extraction.

Three levels of granularity, all on the same ``s → jobs → buckets → t``
shape:

* **Slot level** — given an arbitrary set of active slots, build the
  bipartite network ``s → jobs → slots → t`` with capacities
  ``(p_j, 1, g)`` and test ``maxflow == Σ p_j`` (the classic reduction
  mentioned in the paper's introduction; works for *any* instance,
  laminar or not).  Cost grows with the number of slots.
* **Segment level** — cut the time axis at every release and deadline.
  Slots of one elementary segment ``[c_k, c_{k+1})`` are covered by the
  same windows and so are interchangeable: a segment is one bucket with
  capacities ``(p_j, len, g·len)``.  :func:`coverage_segments` computes
  the segments; :func:`all_slots_feasible` (every slot active) and
  :func:`repro.baselines.exact.slot_classes` are built on them, for
  laminar and crossing windows alike, at O(n) buckets whatever the
  horizon length.
* **Node level** — given a per-node open-slot count ``x̃`` on the window
  forest, build the paper's Lemma 4.1 network ``s → jobs → nodes → t``
  with capacities ``(p_j, x̃(i), g·x̃(i))``.  Equivalent to slot level for
  laminar instances because slots in a node's exclusive region are
  interchangeable, and much smaller.

The slot and node builders assemble their edge lists as flat arrays and
add them in one :meth:`~repro.flow.dinic.MaxFlow.add_edges` call on the
:class:`~repro.flow.csr.CSRMaxFlow` kernel, in the same global order the
historical per-edge loops used — so edge ids match the object-kernel
reference and flow extraction vectorizes over the resulting id arrays.
The segment level and :func:`node_prober` probe through
:func:`repro.flow.incremental.make_prober`, handing it their bucket
memberships as CSR :class:`~repro.flow.incremental.Buckets` arrays.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.schedule import Schedule
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.incremental import Buckets, make_prober
from repro.instances.jobs import Instance
from repro.tree.node import WindowForest


# ---------------------------------------------------------------------------
# Slot level
# ---------------------------------------------------------------------------


def _ranges(lo: np.ndarray, cnt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[lo[k], lo[k] + cnt[k])`` laid end to end.

    Returns ``(owner, value)``: per entry, the ``k`` whose range it
    belongs to and its value, ranges in ``k`` order.
    """
    owner = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
    shift = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt)
    return owner, np.arange(owner.size) + shift


def _job_blocks(
    cnt: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge layout of per-job blocks: job ``k``'s source edge, then its
    ``cnt[k]`` window edges — the historical per-job insertion order.

    Returns ``(starts, job_of, within, pos)``: the position of each
    job's source edge, and per window edge its job, its rank within the
    job's block and its position.
    """
    block = cnt + 1
    starts = np.cumsum(block) - block
    job_of, within = _ranges(np.zeros_like(cnt), cnt)
    return starts, job_of, within, np.repeat(starts + 1, cnt) + within


def _slot_network(
    instance: Instance, active: Sequence[int]
) -> tuple[MaxFlow, tuple[np.ndarray, np.ndarray, np.ndarray], int, int]:
    """Build the job/slot network.

    Returns ``(net, (edge_ids, job_pos, slot), source, sink)`` where the
    three parallel arrays describe the job→slot edges: ``edge_ids[k]``
    connects the job at position ``job_pos[k]`` to slot ``slot[k]``.
    """
    slots = np.asarray(sorted(set(active)), dtype=np.int64)
    n_jobs = instance.n
    n_slots = int(slots.size)
    source = n_jobs + n_slots
    sink = source + 1
    net = CSRMaxFlow(sink + 1)
    rels = np.fromiter(
        (j.release for j in instance.jobs), dtype=np.int64, count=n_jobs
    )
    deads = np.fromiter(
        (j.deadline for j in instance.jobs), dtype=np.int64, count=n_jobs
    )
    procs = np.fromiter(
        (j.processing for j in instance.jobs), dtype=np.int64, count=n_jobs
    )
    # Window slots of job k are the contiguous run slots[lo[k]:hi[k]].
    lo = np.searchsorted(slots, rels, side="left")
    hi = np.searchsorted(slots, deads, side="left")
    cnt = hi - lo
    total = int(cnt.sum())
    starts, job_of, within, widx = _job_blocks(cnt)
    size = n_jobs + total
    us = np.empty(size, dtype=np.int64)
    vs = np.empty(size, dtype=np.int64)
    caps = np.empty(size, dtype=np.int64)
    us[starts] = source
    vs[starts] = np.arange(n_jobs)
    caps[starts] = procs
    pos = lo[job_of] + within
    us[widx] = job_of
    vs[widx] = n_jobs + pos
    caps[widx] = 1
    eids = np.asarray(
        net.add_edges(
            np.concatenate([us, n_jobs + np.arange(n_slots)]),
            np.concatenate([vs, np.full(n_slots, sink, dtype=np.int64)]),
            np.concatenate(
                [caps, np.full(n_slots, instance.g, dtype=np.int64)]
            ),
        ),
        dtype=np.int64,
    )
    meta = (eids[widx], job_of, slots[pos] if total else slots[:0])
    return net, meta, source, sink


def slot_feasible(instance: Instance, active: Sequence[int]) -> bool:
    """Can all jobs be scheduled using only the given active slots?"""
    if instance.n == 0:
        return True
    net, _, s, t = _slot_network(instance, active)
    return net.max_flow(s, t) == instance.total_volume


def extract_schedule(
    instance: Instance, active: Sequence[int]
) -> Schedule | None:
    """A concrete schedule over the given slots, or ``None`` if infeasible."""
    if instance.n == 0:
        return Schedule.from_assignment(instance, {})
    net, (eids, job_pos, slot), s, t = _slot_network(instance, active)
    if net.max_flow(s, t) != instance.total_volume:
        return None
    icap = np.asarray(net._initial_cap, dtype=float)
    cap = np.asarray(net.cap, dtype=float)
    carrying = np.flatnonzero(icap[eids] - cap[eids] > 0.5)
    assignment: dict[int, list[int]] = {j.id: [] for j in instance.jobs}
    jobs = instance.jobs
    for k in carrying.tolist():
        assignment[jobs[job_pos[k]].id].append(int(slot[k]))
    return Schedule.from_assignment(instance, assignment)


# ---------------------------------------------------------------------------
# Segment level
# ---------------------------------------------------------------------------


class Segments(NamedTuple):
    """The covered elementary segments as arrays.

    Segment ``k`` is ``[starts[k], ends[k])``, and bucket ``k`` of
    ``buckets`` lists the ascending positions (in ``instance.jobs``) of
    the jobs whose windows contain it.
    """

    starts: np.ndarray
    ends: np.ndarray
    buckets: Buckets


def coverage_segments(instance: Instance) -> Segments:
    """The covered elementary segments, in time order.

    The time axis is cut at every release and deadline.  Each elementary
    segment ``[c_k, c_{k+1})`` that some window covers is listed with
    the jobs whose windows contain it.  All slots of a segment are
    covered by the same windows, so they are interchangeable.  Job ``j``
    covers the contiguous cut range ``[lo_j, hi_j)``, so the (segment,
    job) pairs come from prefix sums and one stable sort by segment
    keeps each segment's jobs ascending.
    """
    jobs = instance.jobs
    n = len(jobs)
    rels = np.fromiter((j.release for j in jobs), dtype=np.int64, count=n)
    deads = np.fromiter((j.deadline for j in jobs), dtype=np.int64, count=n)
    cuts = np.unique(np.concatenate((rels, deads)))
    lo = np.searchsorted(cuts, rels)
    cnt = np.searchsorted(cuts, deads) - lo
    job_of, segment = _ranges(lo, cnt)
    sizes = np.bincount(segment, minlength=max(cuts.size - 1, 0))
    covered = sizes > 0
    ptr = np.concatenate(([0], np.cumsum(sizes[covered])))
    members = job_of[np.argsort(segment, kind="stable")]
    return Segments(
        cuts[:-1][covered], cuts[1:][covered], Buckets(members, ptr)
    )


def all_slots_feasible(instance: Instance) -> bool:
    """Is the instance feasible at all (every slot active)?

    One probe of the segment network: each covered segment is a bucket
    whose count is its length, so the cost grows with the number of
    jobs, not with the horizon length.
    """
    if instance.n == 0:
        return True
    starts, ends, buckets = coverage_segments(instance)
    prober = make_prober(
        [job.processing for job in instance.jobs], buckets, instance.g
    )
    return prober.probe(ends - starts)


# ---------------------------------------------------------------------------
# Node level (Lemma 4.1)
# ---------------------------------------------------------------------------


def node_edges(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
    x: Sequence[int],
) -> tuple[np.ndarray, ...]:
    """Edge arrays of the Lemma 4.1 network ``s → jobs → nodes → t``.

    Node ids: job positions ``0..n-1``, tree node ``i`` at ``n + i``,
    then source and sink.  Per job (in ``instance.jobs`` order) its
    source edge, then one edge to each node of ``Des(k(j))`` with
    ``x(i) > 0`` in preorder; then the node→sink edges by node id.  A
    job's admissible open nodes are a contiguous run of the open nodes
    in preorder — the preorder range ``[tin, tout)`` of ``k(j)`` — so
    every edge is laid out by prefix sums instead of one Python step per
    edge.  :func:`repro.verify.reference.reference_node_edges` is the
    per-job loop it must match.

    Returns ``(us, vs, caps, edge_pos, edge_node, edge_jid)``: the edge
    arrays in insertion order, then the positions of the job→node edges
    in them with each edge's tree node and job id.
    """
    jobs = instance.jobs
    n_jobs = instance.n
    source = n_jobs + forest.m
    sink = source + 1
    xs = np.asarray(x)
    preorder = np.asarray(forest.preorder, dtype=np.int64)
    open_pre = xs[preorder] > 0
    open_nodes = preorder[open_pre]
    before = np.concatenate(([0], np.cumsum(open_pre)))  # open nodes before
    tin = np.asarray(forest.tin, dtype=np.int64)
    tout = np.asarray(forest.tout, dtype=np.int64)
    k_of = np.fromiter(
        (job_node[job.id] for job in jobs), dtype=np.int64, count=n_jobs
    )
    lo = before[tin[k_of]]
    cnt = before[tout[k_of]] - lo
    starts, job_of, within, edge_pos = _job_blocks(cnt)
    edge_node = open_nodes[lo[job_of] + within]
    sinks = np.flatnonzero(xs > 0)
    size = n_jobs + edge_pos.size
    us = np.empty(size + sinks.size, dtype=np.int64)
    vs = np.empty(size + sinks.size, dtype=np.int64)
    caps = np.empty(size + sinks.size, dtype=float)
    us[starts] = source
    vs[starts] = np.arange(n_jobs)
    caps[starts] = np.fromiter(
        (job.processing for job in jobs), dtype=float, count=n_jobs
    )
    us[edge_pos] = job_of
    vs[edge_pos] = n_jobs + edge_node
    caps[edge_pos] = xs[edge_node]
    us[size:] = n_jobs + sinks
    vs[size:] = sink
    caps[size:] = instance.g * xs[sinks]
    ids = np.fromiter((job.id for job in jobs), dtype=np.int64, count=n_jobs)
    return us, vs, caps, edge_pos, edge_node, ids[job_of]


def _node_network(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
    x: Sequence[int],
) -> tuple[MaxFlow, tuple[np.ndarray, np.ndarray, np.ndarray], int, int]:
    """Lemma 4.1 network: ``s → jobs → nodes → t``.

    A job ``j`` may use nodes in ``Des(k(j))`` with per-node cap ``x(i)``;
    node ``i`` forwards at most ``g·x(i)`` to the sink.  Returns
    ``(net, (edge_ids, node, job_id), source, sink)`` with the three
    parallel arrays describing the job→node edges (see
    :func:`node_edges`).
    """
    us, vs, caps, edge_pos, edge_node, edge_jid = node_edges(
        instance, forest, job_node, x
    )
    source = instance.n + forest.m
    net = CSRMaxFlow(source + 2)
    net.add_edges(us, vs, caps)
    # add_edges hands out even ids in insertion order: edge k is 2k.
    return net, (2 * edge_pos, edge_node, edge_jid), source, source + 1


def node_prober(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
):
    """Reusable Lemma 4.1 prober: build the node network once, probe many x̃.

    Returns an object with ``probe(x) -> bool`` (see
    :mod:`repro.flow.incremental`); repeated probes over the same
    instance/forest warm-start from the previous flow instead of
    rebuilding the network.
    """
    jobs = instance.jobs
    n_jobs = len(jobs)
    # Des(k(j)) is the contiguous preorder range [tin, tout) of k(j).
    preorder = np.asarray(forest.preorder, dtype=np.int64)
    k_of = np.fromiter(
        (job_node[job.id] for job in jobs), dtype=np.int64, count=n_jobs
    )
    lo = np.asarray(forest.tin, dtype=np.int64)[k_of]
    cnt = np.asarray(forest.tout, dtype=np.int64)[k_of] - lo
    job_of, rank = _ranges(lo, cnt)
    node = preorder[rank]
    ptr = np.concatenate(([0], np.cumsum(np.bincount(node, minlength=forest.m))))
    return make_prober(
        [job.processing for job in jobs],
        Buckets(job_of[np.argsort(node, kind="stable")], ptr),
        instance.g,
    )


def node_feasible(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
    x: Sequence[int],
) -> bool:
    """Is the per-node open-slot vector ``x`` feasible (Lemma 4.1)?

    One-shot convenience over :func:`node_prober`; callers that test
    many vectors on one forest should hold a prober instead.
    """
    if instance.n == 0:
        return True
    return node_prober(instance, forest, job_node).probe(list(x))


def node_assignment(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
    x: Sequence[int],
) -> dict[tuple[int, int], int] | None:
    """Integral per-(node, job) units ``y(i, j)``, or ``None`` if infeasible."""
    if instance.n == 0:
        return {}
    net, (eids, nodes, jids), s, t = _node_network(
        instance, forest, job_node, x
    )
    if net.max_flow(s, t) != instance.total_volume:
        return None
    icap = np.asarray(net._initial_cap, dtype=float)
    cap = np.asarray(net.cap, dtype=float)
    flows = icap[eids] - cap[eids]
    keep = np.flatnonzero(flows > 0.5)
    return dict(
        zip(
            zip(nodes[keep].tolist(), jids[keep].tolist()),
            np.rint(flows[keep]).astype(np.int64).tolist(),
        )
    )
