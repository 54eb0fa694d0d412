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
The segment level probes through :func:`repro.flow.incremental.make_prober`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.schedule import Schedule
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.incremental import make_prober
from repro.instances.jobs import Instance
from repro.tree.node import WindowForest


# ---------------------------------------------------------------------------
# Slot level
# ---------------------------------------------------------------------------


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
    # Per-job block: source edge first, then its window edges (ascending
    # slot) — the historical per-job insertion order.
    block = cnt + 1
    starts = np.cumsum(block) - block
    size = n_jobs + total
    us = np.empty(size, dtype=np.int64)
    vs = np.empty(size, dtype=np.int64)
    caps = np.empty(size, dtype=np.int64)
    us[starts] = source
    vs[starts] = np.arange(n_jobs)
    caps[starts] = procs
    window_mask = np.ones(size, dtype=bool)
    window_mask[starts] = False
    widx = np.flatnonzero(window_mask)
    job_of = np.repeat(np.arange(n_jobs), cnt)
    within = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
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


def coverage_segments(instance: Instance) -> list[tuple[int, int, list[int]]]:
    """The covered elementary segments: ``(start, end, job positions)``.

    The time axis is cut at every release and deadline.  Each elementary
    segment ``[c_k, c_{k+1})`` that some window covers is listed, in
    time order, with the ascending positions (in ``instance.jobs``) of
    the jobs whose windows contain it.  All slots of a segment are
    covered by the same windows, so they are interchangeable.
    """
    jobs = instance.jobs
    cuts = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    index = {c: k for k, c in enumerate(cuts)}
    covering: list[list[int]] = [[] for _ in cuts[1:]]
    for pos, job in enumerate(jobs):
        for k in range(index[job.release], index[job.deadline]):
            covering[k].append(pos)
    return [
        (cuts[k], cuts[k + 1], members)
        for k, members in enumerate(covering)
        if members
    ]


def all_slots_feasible(instance: Instance) -> bool:
    """Is the instance feasible at all (every slot active)?

    One probe of the segment network: each covered segment is a bucket
    whose count is its length, so the cost grows with the number of
    jobs, not with the horizon length.
    """
    if instance.n == 0:
        return True
    segments = coverage_segments(instance)
    prober = make_prober(
        [job.processing for job in instance.jobs],
        [members for _, _, members in segments],
        instance.g,
    )
    return prober.probe([end - start for start, end, _ in segments])


# ---------------------------------------------------------------------------
# Node level (Lemma 4.1)
# ---------------------------------------------------------------------------


def _node_network(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
    x: Sequence[int],
) -> tuple[MaxFlow, tuple[list[int], list[int], list[int]], int, int]:
    """Lemma 4.1 network: ``s → jobs → nodes → t``.

    A job ``j`` may use nodes in ``Des(k(j))`` with per-node cap ``x(i)``;
    node ``i`` forwards at most ``g·x(i)`` to the sink.  Returns
    ``(net, (edge_ids, node, job_id), source, sink)`` with the three
    parallel lists describing the job→node edges.
    """
    n_jobs = instance.n
    m = forest.m
    source = n_jobs + m
    sink = source + 1
    net = CSRMaxFlow(sink + 1)
    us: list[int] = []
    vs: list[int] = []
    caps: list[float] = []
    edge_pos: list[int] = []  # position of each job→node edge in us/vs
    edge_node: list[int] = []
    edge_jid: list[int] = []
    for k, job in enumerate(instance.jobs):
        us.append(source)
        vs.append(k)
        caps.append(job.processing)
        for i in forest.descendants(job_node[job.id]):
            if x[i] > 0:
                edge_pos.append(len(us))
                edge_node.append(i)
                edge_jid.append(job.id)
                us.append(k)
                vs.append(n_jobs + i)
                caps.append(x[i])
    for i in range(m):
        if x[i] > 0:
            us.append(n_jobs + i)
            vs.append(sink)
            caps.append(instance.g * x[i])
    eids = net.add_edges(us, vs, caps)
    meta = ([eids[p] for p in edge_pos], edge_node, edge_jid)
    return net, meta, source, sink


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
    buckets: list[list[int]] = [[] for _ in range(forest.m)]
    for k, job in enumerate(instance.jobs):
        for i in forest.descendants(job_node[job.id]):
            buckets[i].append(k)
    return make_prober(
        [job.processing for job in instance.jobs],
        buckets,
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
    eid_arr = np.asarray(eids, dtype=np.int64)
    icap = np.asarray(net._initial_cap, dtype=float)
    cap = np.asarray(net.cap, dtype=float)
    flows = icap[eid_arr] - cap[eid_arr] if eid_arr.size else np.zeros(0)
    return {
        (nodes[k], jids[k]): int(round(float(flows[k])))
        for k in np.flatnonzero(flows > 0.5).tolist()
    }
