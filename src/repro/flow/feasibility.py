"""Flow-based feasibility tests and schedule extraction.

Two levels of granularity, both on the same ``s → jobs → buckets → t``
shape:

* **Segment level** — cut the time axis at every release and deadline.
  Slots of one elementary segment ``[c_k, c_{k+1})`` are covered by the
  same windows and so are interchangeable: a segment is one bucket with
  capacities ``(p_j, c, g·c)`` for its ``c`` open slots.
  :func:`coverage_segments` computes the segments.  Given an arbitrary
  set of active slots, :func:`slot_feasible` counts them per segment
  and probes that network, and :func:`extract_schedule` reads its
  job→segment flows and lays each segment's units onto its active runs
  with the wrap-around rule; :func:`all_slots_feasible` probes it with
  every slot active.  Laminar and crossing windows alike, at O(n)
  buckets whatever the horizon length.  The network with one node per
  slot (``s → jobs → slots → t``, the classic reduction mentioned in
  the paper's introduction) is their test oracle in
  :mod:`repro.verify.reference`.
* **Node level** — given a per-node open-slot count ``x̃`` on the window
  forest, build the paper's Lemma 4.1 network ``s → jobs → nodes → t``
  with capacities ``(p_j, x̃(i), g·x̃(i))``.  Equivalent to the per-slot
  network for laminar instances because slots in a node's exclusive
  region are interchangeable, and much smaller.

The node builder assembles its edge list as flat arrays and adds it in
one :meth:`~repro.flow.dinic.MaxFlow.add_edges` call on the
:class:`~repro.flow.csr.CSRMaxFlow` kernel, so flow extraction
vectorizes over the resulting id arrays.  The segment level and
:func:`node_prober` hand their bucket memberships to a
:class:`~repro.flow.incremental.ClassFlowProber` as CSR
:class:`~repro.flow.incremental.Buckets` arrays.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.schedule import Runs, Schedule
from repro.flow.assignment import spread_runs
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.incremental import Buckets, ClassFlowProber, make_prober
from repro.instances.jobs import Instance
from repro.tree.node import WindowForest


# ---------------------------------------------------------------------------
# Edge layout helpers
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


def _active_counts(
    segments: Segments, active: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(slots, lo, hi)``: ``active`` sorted and deduplicated, and per
    segment ``k`` the range ``slots[lo[k]:hi[k]]`` of its active slots.
    Slots outside every segment are in no range."""
    slots = np.unique(np.asarray(active, dtype=np.int64))
    lo = np.searchsorted(slots, segments.starts)
    return slots, lo, np.searchsorted(slots, segments.ends)


def segment_prober(instance: Instance, segments: Segments):
    """A :func:`~repro.flow.incremental.make_prober` prober over the
    segment network: one bucket per segment, probed with per-segment
    open-slot counts."""
    return make_prober(
        [job.processing for job in instance.jobs], segments.buckets, instance.g
    )


def all_slots_feasible(instance: Instance) -> bool:
    """Is the instance feasible at all (every slot active)?

    One probe of the segment network: each covered segment is a bucket
    whose count is its length, so the cost grows with the number of
    jobs, not with the horizon length.
    """
    if instance.n == 0:
        return True
    segments = coverage_segments(instance)
    return segment_prober(instance, segments).probe(segments.ends - segments.starts)


def slot_feasible(instance: Instance, active: Sequence[int]) -> bool:
    """Can all jobs be scheduled using only the given active slots?

    One probe of the segment network, each segment's count the number of
    given slots inside it.
    """
    if instance.n == 0:
        return True
    segments = coverage_segments(instance)
    _, lo, hi = _active_counts(segments, active)
    return segment_prober(instance, segments).probe(hi - lo)


def extract_schedule(
    instance: Instance, active: Sequence[int]
) -> Schedule | None:
    """A concrete schedule over the given slots, or ``None`` if infeasible.

    Probes the segment network as :func:`slot_feasible` does, reads each
    job's units per segment off the flow and spreads them over the
    segment's given slots with the wrap-around rule
    (:func:`~repro.flow.assignment.spread_runs`).  The cost grows with
    the segments and the runs of consecutive given slots, not the slots.
    """
    if instance.n == 0:
        return Schedule.from_assignment(instance, {})
    segments = coverage_segments(instance)
    slots, lo, hi = _active_counts(segments, active)
    jobs = instance.jobs
    prober = ClassFlowProber(
        [job.processing for job in jobs], segments.buckets, instance.g
    )
    if not prober.probe(hi - lo):
        return None
    # Runs of consecutive given slots, cut again at segment boundaries:
    # run r is slots[cut[r]:cut[r + 1]], segment k's are first[k]:stop[k].
    breaks = np.flatnonzero(np.diff(slots) != 1) + 1
    cut = np.unique(np.concatenate(([0, slots.size], breaks, lo, hi)))
    bounds = list(zip(slots[cut[:-1]].tolist(), (slots[cut[1:] - 1] + 1).tolist()))
    first = np.searchsorted(cut, lo).tolist()
    stop = np.searchsorted(cut, hi).tolist()
    flows = np.rint(prober.member_flows()).astype(np.int64).tolist()
    members = segments.buckets.members.tolist()
    ptr = segments.buckets.ptr.tolist()
    runs: dict[int, Runs] = {job.id: () for job in jobs}
    for k in range(len(first)):
        units = {
            jobs[members[e]].id: flows[e] for e in range(ptr[k], ptr[k + 1]) if flows[e]
        }
        if units:
            spread = spread_runs(units, bounds[first[k] : stop[k]], instance.g)
            for jid, pieces in spread.items():
                runs[jid] += pieces
    return Schedule.from_runs(instance, runs)


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
