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
  forest, the paper's Lemma 4.1 network ``s → jobs → nodes → t`` with
  capacities ``(p_j, x̃(i), g·x̃(i))``.  Equivalent to the per-slot
  network for laminar instances because slots in a node's exclusive
  region are interchangeable, and much smaller.  :func:`node_prober`
  keeps a bucket for every node; :func:`node_assignment` keeps only the
  open ones and reads its units off the flow.

Both levels hand their bucket memberships, computed with prefix sums and
one sort, to a :class:`~repro.flow.incremental.ClassFlowProber` as CSR
:class:`~repro.flow.incremental.Buckets` arrays, so every network here
follows the prober's one size rule for its kernel.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

import numpy as np

from repro.core.schedule import Runs, Schedule
from repro.flow.assignment import spread_runs
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


def _group(owner: np.ndarray, key: np.ndarray, n_keys: int, n_owners: int) -> Buckets:
    """The ``(key, owner)`` pairs as buckets: bucket ``k`` lists the
    owners paired with key ``k``, ascending.

    The pairs must be distinct.  One sort of the pairs encoded as
    ``key·n_owners + owner`` groups them; it costs a fraction of a
    stable argsort by key (a timsort on int64) and the gather after it.
    """
    members = np.sort(key * n_owners + owner) % n_owners
    sizes = np.bincount(key, minlength=n_keys)
    return Buckets(members, np.concatenate(([0], np.cumsum(sizes))))


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


#: Key under which :func:`coverage_segments` keeps an instance's segments
#: in the instance's ``__dict__``, where ``functools.cached_property``
#: keeps ``Instance.windows``.
_SEGMENTS_KEY = "_coverage_segments"


def coverage_segments(instance: Instance) -> Segments:
    """The covered elementary segments, in time order.

    The time axis is cut at every release and deadline.  Each elementary
    segment ``[c_k, c_{k+1})`` that some window covers is listed with
    the jobs whose windows contain it.  All slots of a segment are
    covered by the same windows, so they are interchangeable.

    The segments depend only on the instance, so they are computed once
    per instance and every caller (all-slots test, greedy, extraction, exact)
    shares them; their arrays are read-only.
    """
    segments = instance.__dict__.get(_SEGMENTS_KEY)
    if segments is None:
        segments = _coverage_segments(instance)
        buckets = segments.buckets
        for a in (segments.starts, segments.ends, buckets.members, buckets.ptr):
            a.flags.writeable = False
        instance.__dict__[_SEGMENTS_KEY] = segments
    return segments


def _coverage_segments(instance: Instance) -> Segments:
    """:func:`coverage_segments`, computed.  Job ``j`` covers the
    contiguous cut range ``[lo_j, hi_j)``, so the (segment, job) pairs
    come from prefix sums, grouped by segment with each segment's jobs
    ascending."""
    jobs = instance.jobs
    n = len(jobs)
    rels = np.fromiter((j.release for j in jobs), dtype=np.int64, count=n)
    deads = np.fromiter((j.deadline for j in jobs), dtype=np.int64, count=n)
    cuts = np.unique(np.concatenate((rels, deads)))
    lo = np.searchsorted(cuts, rels)
    cnt = np.searchsorted(cuts, deads) - lo
    job_of, segment = _ranges(lo, cnt)
    buckets = _group(job_of, segment, max(cuts.size - 1, 0), n)
    sizes = np.diff(buckets.ptr)
    covered = sizes > 0
    ptr = np.concatenate(([0], np.cumsum(sizes[covered])))
    return Segments(
        cuts[:-1][covered], cuts[1:][covered], Buckets(buckets.members, ptr)
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


def _node_buckets(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
    open_mask: np.ndarray | None = None,
) -> Buckets:
    """Bucket memberships of the Lemma 4.1 network.

    Job ``j`` may use every node of ``Des(k(j))``, the contiguous
    preorder range ``[tin, tout)`` of ``k(j)``, so its (node, job) pairs
    come from prefix sums, grouped by node with each node's jobs
    ascending.  Bucket ``i`` is node ``i``; with ``open_mask``, only the
    nodes it marks get buckets, in node order, and the ranges are
    renumbered over the marked nodes in preorder.
    """
    jobs = instance.jobs
    preorder = np.asarray(forest.preorder, dtype=np.int64)
    tin = np.asarray(forest.tin, dtype=np.int64)
    tout = np.asarray(forest.tout, dtype=np.int64)
    if open_mask is not None:
        kept = open_mask[preorder]
        before = np.concatenate(([0], np.cumsum(kept)))  # kept nodes before
        tin, tout = before[tin], before[tout]
        preorder = (np.cumsum(open_mask) - 1)[preorder[kept]]
    k_of = np.fromiter(
        (job_node[job.id] for job in jobs), dtype=np.int64, count=len(jobs)
    )
    lo = tin[k_of]
    job_of, rank = _ranges(lo, tout[k_of] - lo)
    return _group(job_of, preorder[rank], preorder.size, len(jobs))


def node_prober(
    instance: Instance,
    forest: WindowForest,
    job_node: Mapping[int, int],
):
    """Reusable Lemma 4.1 prober: build the node network once, probe many x̃.

    Returns an object with ``probe(x) -> bool`` (see
    :mod:`repro.flow.incremental`), one bucket per node; repeated probes
    over the same instance/forest warm-start from the previous flow
    instead of rebuilding the network.
    """
    return make_prober(
        [job.processing for job in instance.jobs],
        _node_buckets(instance, forest, job_node),
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
    """Integral per-(node, job) units ``y(i, j)``, or ``None`` if infeasible.

    One probe of the Lemma 4.1 network restricted to the open nodes
    (``x(i) > 0``): a closed node takes no units, and leaving it out
    keeps a one-shot network small.  The units are the flows on its
    job→node arcs (:meth:`~repro.flow.incremental.ClassFlowProber.member_flows`).
    """
    if instance.n == 0:
        return {}
    jobs = instance.jobs
    xs = np.asarray(x, dtype=np.int64)
    open_mask = xs > 0
    nodes = np.flatnonzero(open_mask)
    buckets = _node_buckets(instance, forest, job_node, open_mask)
    prober = ClassFlowProber([job.processing for job in jobs], buckets, instance.g)
    if not prober.probe(xs[nodes]):
        return None
    flows = prober.member_flows()
    keep = np.flatnonzero(flows > 0.5)
    bucket = np.searchsorted(buckets.ptr, keep, side="right") - 1
    ids = np.fromiter((job.id for job in jobs), dtype=np.int64, count=len(jobs))
    return dict(
        zip(
            zip(nodes[bucket].tolist(), ids[buckets.members[keep]].tolist()),
            np.rint(flows[keep]).astype(np.int64).tolist(),
        )
    )
