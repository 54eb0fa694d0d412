"""Incremental max-flow engine for warm-started feasibility probing.

Every feasibility decision in the library — greedy deactivation
(Chang–Khuller–Mukherjee minimal feasible sets), branch-and-bound
probing in the exact solver, and the Lemma 4.1 node-level checks —
reduces to the same question on the same three-layer network::

    source --p_j--> job j --c(i)--> bucket i --g*c(i)--> sink

where a *bucket* is a slot class (interchangeable slots with identical
covering-window sets) or a window-tree node, and ``c(i)`` is the number
of open slots in that bucket.  Historically each probe built a fresh
:class:`~repro.flow.dinic.MaxFlow` and re-pushed the full ``Σ p_j``
volume from scratch; the consumers, however, probe *sequences* of count
vectors that differ in one or two buckets per step, so almost all of
that work repeats.

This module keeps one network per (instance, buckets) pair alive across
probes:

* :class:`IncrementalFlow` layers capacity mutation onto ``MaxFlow``.
  :meth:`IncrementalFlow.set_capacity` rebases an edge's capacity; when
  the new capacity is below the flow currently on the edge it *repairs*
  the flow first — the excess is cancelled along residual flow-carrying
  paths (backwards from the edge's tail to the source, forwards from its
  head to the sink), so the invariant *flow ≤ capacity everywhere, flow
  conservation at every internal node* holds after every mutation.
* :class:`ClassFlowProber` drives it at the bucket level: ``probe(counts)``
  diffs the requested counts against the network's current state,
  mutates only the changed buckets, and re-augments just the deficit.
  For a single slot removal at capacity ``g`` the repair cancels at most
  ``g`` units and the re-augmentation pushes at most ``g`` units back —
  independent of ``Σ p_j``.

Each :class:`ClassFlowProber` picks its kernel once, from its arc
count: networks below :data:`SMALL_NETWORK_ARCS` run on the list-backed
:class:`~repro.flow.dinic.MaxFlow`, larger ones on
:class:`~repro.flow.csr.CSRMaxFlow`, whose scipy call has a fixed cost
that dominates a small network (the measured crossovers are in
docs/PERFORMANCE.md).  A max-flow's value is unique, so every verdict
is the same on either kernel.

The from-scratch path is a test oracle and lives in
:mod:`repro.verify.reference`.  :func:`make_prober` builds the class held
by :data:`PROBER_CLASS` — :class:`ClassFlowProber` unless
:func:`repro.verify.reference.flow_prober` swaps in the reference or the
differential prober for the current context (a fuzz campaign, E15), so
the swap never reaches another thread.

Instrumentation mirrors the solver service: one process-wide
:class:`repro.obs.Counters` group (networks built, probes answered warm,
augmenting paths, units repaired) is exposed through :func:`flow_stats`
and the CLI ``--stats`` flag.
"""

from __future__ import annotations

from contextvars import ContextVar
from itertools import chain
from typing import Sequence

import numpy as np

from repro import obs
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.util.errors import SolverError


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

_STATS = obs.Counters("flow")  # fields declared in repro.obs


def flow_stats() -> dict[str, int]:
    """Snapshot of the process-global flow engine counters."""
    return _STATS.snapshot()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class IncrementalFlow:
    """A :class:`MaxFlow` whose edge capacities may change between solves.

    Wraps a flow-free network on either kernel (:class:`MaxFlow` or
    :class:`~repro.flow.csr.CSRMaxFlow`).  It must be *acyclic* (every
    network in this library is a layered ``s → jobs → buckets → t``
    DAG); flow decomposition on a
    DAG has no cycles, so cancelling excess along flow-carrying residual
    paths always terminates and always reaches the source/sink.

    Invariant maintained by every public method: the wrapped network
    holds a valid (not necessarily maximum) ``s``-``t`` flow of value
    :attr:`value`, with ``flow(e) ≤ capacity(e)`` on every edge.
    """

    def __init__(self, net: MaxFlow, source: int, sink: int) -> None:
        self.net = net
        self.source = source
        self.sink = sink
        self.value = 0.0
        _STATS.add(networks_built=1)

    # -- construction ------------------------------------------------------

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add an edge (before or between solves); returns its even id."""
        return self.net.add_edge(u, v, capacity)

    def add_edges(self, us, vs, caps) -> list[int]:
        """Bulk :meth:`add_edge`; returns the even ids, in order."""
        return self.net.add_edges(us, vs, caps)

    def add_node(self) -> int:
        """Append a fresh isolated node (before or between solves)."""
        return self.net.add_node()

    def drop_edge(self, eid: int) -> None:
        """Detach a flow-free edge (see :meth:`MaxFlow.drop_edge`).

        The flow value is untouched — the network refuses to drop an
        edge that still carries flow, so cancel it first with
        :meth:`set_capacity`.
        """
        if eid & 1:
            raise ValueError(f"edge id {eid} is a reverse edge")
        self.net.drop_edge(eid)

    # -- inspection --------------------------------------------------------

    def edge_flow(self, eid: int) -> float:
        return self.net.edge_flow(eid)

    def capacity(self, eid: int) -> float:
        """Current capacity of edge ``eid`` (reflects mutations)."""
        if eid & 1:
            raise ValueError(f"edge id {eid} is a reverse edge")
        return self.net._initial_cap[eid]

    # -- mutation with flow repair ----------------------------------------

    def set_capacities(self, eids, capacities) -> None:
        """Bulk :meth:`set_capacity` on a network that carries no flow.

        With no flow there is nothing to repair, so every capacity is a
        plain write: one array assignment on the CSR kernel's arrays, a
        loop of list stores on the object kernel's lists.  Raises
        :class:`ValueError` once a flow has been pushed
        (:attr:`value` > 0).
        """
        if self.value:
            raise ValueError(
                "set_capacities() needs a flow-free network; "
                "use set_capacity() to repair flow"
            )
        eids = np.asarray(eids, dtype=np.int64)
        caps = np.asarray(capacities, dtype=float)
        if eids.shape != caps.shape:
            raise ValueError("eids/capacities length mismatch")
        if (eids & 1).any():
            raise ValueError("set_capacities() takes even edge ids")
        if caps.size and float(caps.min()) < 0:
            raise ValueError(f"negative capacity {float(caps.min())}")
        net = self.net
        if isinstance(net.cap, np.ndarray):
            net._initial_cap[eids] = caps
            net.cap[eids] = caps
            return
        icap, cap = net._initial_cap, net.cap
        for eid, c in zip(eids.tolist(), caps.tolist()):
            icap[eid] = c
            cap[eid] = c

    def set_capacity(self, eid: int, capacity: float) -> float:
        """Rebase edge ``eid`` to ``capacity``, repairing flow if needed.

        When the edge currently carries more flow than the new capacity
        allows, the excess is cancelled along residual flow-carrying
        paths through the edge (tail → source backwards, head → sink
        forwards), lowering :attr:`value` by exactly the excess.  Returns
        the number of flow units repaired (0.0 for pure increases).
        """
        repaired = self._rebase(eid, capacity)
        if repaired:
            _STATS.add(units_repaired=int(repaired))
        return repaired

    def _rebase(self, eid: int, capacity: float) -> float:
        """:meth:`set_capacity` uncounted (a probe adds its repairs)."""
        if eid & 1:
            raise ValueError(
                f"edge id {eid} is a reverse edge; set_capacity() takes "
                f"the even id returned by add_edge()"
            )
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        net = self.net
        flow = net._initial_cap[eid] - net.cap[eid]
        repaired = 0.0
        if flow > capacity:
            repaired = flow - capacity
            self._cancel_through(eid, repaired)
            flow = capacity
        # Rebase: keep flow, give the edge its new headroom.  The
        # reverse edge's capacity *is* the flow, so it needs no change.
        net._initial_cap[eid] = capacity
        net.cap[eid] = capacity - flow
        return repaired

    def _cancel_through(self, eid: int, excess: float) -> None:
        """Remove ``excess`` units of s-t flow passing through ``eid``."""
        net = self.net
        tail = net.to[eid ^ 1]
        head = net.to[eid]
        remaining = excess
        while remaining > 0:
            back = self._flow_path(tail, self.source, incoming=True)
            fwd = self._flow_path(head, self.sink, incoming=False)
            path = back + [eid] + fwd
            slack = min(
                remaining,
                min(net._initial_cap[e] - net.cap[e] for e in path),
            )
            assert slack > 0, "flow-carrying path with zero slack"
            for e in path:
                net.cap[e] += slack
                net.cap[e ^ 1] -= slack
            remaining -= slack
        self.value -= excess

    def _flow_path(self, start: int, goal: int, *, incoming: bool) -> list[int]:
        """Original-edge ids of a flow-carrying path ``start`` → ``goal``.

        ``incoming=True`` walks *against* the flow (via edges carrying
        flow into each node, toward the source); ``incoming=False`` walks
        *with* it (toward the sink).  Exists by flow conservation; the
        acyclicity precondition bounds the walk by the node count.
        """
        net = self.net
        path: list[int] = []
        node = start
        for _ in range(net.n + 1):
            if node == goal:
                return path
            for eid in net.head[node]:
                if incoming:
                    # Reverse arcs in head[node] are odd; their pair is
                    # an original arc into `node`, carrying flow equal to
                    # the reverse arc's capacity.
                    if eid & 1 and net.cap[eid] > 0:
                        path.append(eid ^ 1)
                        node = net.to[eid]
                        break
                else:
                    if not eid & 1 and net.cap[eid ^ 1] > 0:
                        path.append(eid)
                        node = net.to[eid]
                        break
            else:
                raise SolverError(
                    f"flow conservation violated at node {node} during "
                    f"repair (is the network acyclic?)"
                )
        raise SolverError(
            "flow repair walk exceeded the node count — cyclic flow?"
        )

    # -- solving -----------------------------------------------------------

    def augment(self) -> float:
        """Re-augment to a maximum flow from the current state.

        Returns the increment; :attr:`value` is updated in place.
        """
        before = self.value
        _STATS.add(**self._push())
        return self.value - before

    def _push(self) -> dict[str, int]:
        """:meth:`augment` uncounted; returns its counts."""
        before_paths = self.net.augment_paths
        pushed = self.net.augment(self.source, self.sink)
        self.value += pushed
        return {
            "augmenting_paths": self.net.augment_paths - before_paths,
            "units_augmented": int(pushed),
        }


# ---------------------------------------------------------------------------
# Bucket-level probers
# ---------------------------------------------------------------------------

#: Arc count at and above which :class:`ClassFlowProber` runs on the CSR
#: kernel; smaller networks run on the object kernel.  Chosen from the
#: measured cold-probe and warm-sequence crossovers in
#: docs/PERFORMANCE.md ("Flow kernel by network size").
SMALL_NETWORK_ARCS = 512


class Buckets:
    """Bucket membership in CSR form.

    Bucket ``i`` holds the job positions ``members[ptr[i]:ptr[i + 1]]``;
    ``ptr`` has one entry more than there are buckets.  Producers that
    compute memberships with array operations
    (:func:`~repro.flow.feasibility.coverage_segments`,
    :func:`~repro.flow.feasibility.node_prober`) hand them over in this
    form, so :class:`ClassFlowProber` lays out its edges without a
    per-bucket list.  Iterating yields each bucket as a list.
    """

    __slots__ = ("members", "ptr")

    def __init__(self, members, ptr) -> None:
        self.members = np.asarray(members, dtype=np.int64)
        self.ptr = np.asarray(ptr, dtype=np.int64)

    @classmethod
    def of(cls, buckets: "Buckets | Sequence[Sequence[int]]") -> "Buckets":
        """``buckets`` as is, or a list of per-bucket lists in CSR form."""
        if isinstance(buckets, cls):
            return buckets
        sizes = np.fromiter(map(len, buckets), dtype=np.int64, count=len(buckets))
        ptr = np.concatenate(([0], np.cumsum(sizes)))
        members = np.fromiter(
            chain.from_iterable(buckets), dtype=np.int64, count=int(ptr[-1])
        )
        return cls(members, ptr)

    def __len__(self) -> int:
        return self.ptr.size - 1

    def __iter__(self):
        members = self.members.tolist()
        ptr = self.ptr.tolist()
        return (members[lo:hi] for lo, hi in zip(ptr, ptr[1:]))


class ClassFlowProber:
    """Warm-started feasibility probes over the three-layer bucket network.

    Drop-in for the from-scratch class-flow test: ``probe(counts)``
    answers "can every job finish inside ``counts[i]`` open slots per
    bucket at machine capacity ``g``?" — but builds the network once and
    repairs/augments between probes instead of rebuilding.  Later probes
    rebase only the buckets whose count changed.

    ``buckets`` is a :class:`Buckets` or one list of job positions per
    bucket.  The kernel is picked once, from the arc count
    ``n_jobs + Σ|bucket| + n_buckets``: below :data:`SMALL_NETWORK_ARCS`
    the list-backed :class:`~repro.flow.dinic.MaxFlow`, whose Python
    Dinic costs less than scipy's fixed per-call set-up on a small
    network; at or above it :class:`~repro.flow.csr.CSRMaxFlow`.  The
    layout follows the kernel: a small network is laid out from the
    bucket lists in Python and its first probe rebases bucket by bucket
    from the all-zero state (a flow-free network needs no repair); a
    large one is assembled with array operations and its first probe
    writes every capacity in one bulk step.  A max-flow's value is
    unique, so the verdicts do not depend on the kernel; the flow itself
    (and the ``augmenting_paths`` and ``units_*`` counters) may.
    """

    def __init__(
        self,
        processings: Sequence[int],
        buckets: Buckets | Sequence[Sequence[int]],
        g: int,
    ) -> None:
        n_jobs = len(processings)
        n_buckets = len(buckets)
        self._p = list(processings)
        self.total = sum(self._p)
        self.g = g
        source = n_jobs + n_buckets
        sink = source + 1
        if isinstance(buckets, Buckets):
            n_members = buckets.members.size
        else:
            n_members = sum(map(len, buckets))
        size = n_jobs + n_members + n_buckets  # the network's arcs
        if size < SMALL_NETWORK_ARCS:
            engine = IncrementalFlow(MaxFlow(sink + 1), source, sink)
            self._lay_out_lists(engine, buckets)
        else:
            engine = IncrementalFlow(CSRMaxFlow(sink + 1), source, sink)
            self._lay_out_arrays(engine, Buckets.of(buckets))
        self._counts = [0] * n_buckets
        # Cut bookkeeping for O(1) infeasibility rejects: total sink
        # capacity, per-job slot room, and how many jobs lack room.
        self._sink_total = 0
        self._room = [0] * n_jobs
        self._deficient = n_jobs - self._p.count(0)  # p_j >= 0 (source caps)
        self.engine = engine
        self._probed = False

    def _lay_out_lists(self, engine: IncrementalFlow, buckets) -> None:
        """Append the edges one list entry at a time, in the historical
        per-edge order: the source edges, then per bucket its job edges
        and its sink edge, all but the source edges at capacity 0."""
        n_jobs = len(self._p)
        us = [engine.source] * n_jobs
        vs = list(range(n_jobs))
        caps = list(self._p)
        members: list[int] = []
        ptr = [0]
        job_eids: list[int] = []
        sink_eids: list[int] = []
        for node, bucket in enumerate(buckets, n_jobs):
            for k in bucket:
                job_eids.append(2 * len(us))  # edge ids are 0, 2, 4, ...
                us.append(k)
                vs.append(node)
            sink_eids.append(2 * len(us))
            us.append(node)
            vs.append(engine.sink)
            members += bucket
            ptr.append(len(members))
        caps += [0] * (len(us) - n_jobs)
        engine.add_edges(us, vs, caps)
        self._lists = (job_eids, sink_eids, members, ptr)

    def _lay_out_arrays(self, engine: IncrementalFlow, buckets: Buckets) -> None:
        """The same edges in one bulk append, laid out with array
        operations."""
        members, ptr = buckets.members, buckets.ptr
        self._p_array = np.asarray(self._p, dtype=np.int64)
        n_jobs = self._p_array.size
        bucket_ids = np.arange(len(buckets), dtype=np.int64)
        self._member_bucket = np.repeat(bucket_ids, np.diff(ptr))
        # Bucket ci's edges follow the ci sink edges and ptr[ci] job
        # edges of the buckets before it.
        job_pos = n_jobs + np.arange(members.size) + self._member_bucket
        sink_pos = n_jobs + ptr[1:] + bucket_ids
        size = n_jobs + members.size + bucket_ids.size
        us = np.empty(size, dtype=np.int64)
        vs = np.empty(size, dtype=np.int64)
        caps = np.zeros(size)
        us[:n_jobs] = engine.source
        vs[:n_jobs] = np.arange(n_jobs)
        caps[:n_jobs] = self._p_array
        us[job_pos] = members
        vs[job_pos] = n_jobs + self._member_bucket
        us[sink_pos] = n_jobs + bucket_ids
        vs[sink_pos] = engine.sink
        engine.net.append_edges(us, vs, caps)
        # A fresh network numbers its edges 0, 2, 4, ... in order.
        self._job_eids = 2 * job_pos
        self._sink_eids = 2 * sink_pos
        self._members = members
        self._ptr = ptr
        # The same as lists, for the per-edge warm path: made by the
        # first warm probe, so a one-shot probe never pays for them.
        self._lists = None

    def probe(self, counts: Sequence[int]) -> bool:
        """Feasibility of the count vector; warm-starts from the last probe."""
        if len(counts) != len(self._counts):
            raise ValueError(
                f"expected {len(self._counts)} bucket counts, "
                f"got {len(counts)}"
            )
        engine = self.engine
        warm = self._probed
        repaired = 0
        if warm or not isinstance(engine.net, CSRMaxFlow):
            repaired = self._write_changed(counts)
        else:
            self._write_all(counts)
        self._probed = True
        # Exact cut-based rejects (the reference answers False in both
        # cases too): the sink cut caps the flow at Σ g·c(i); the cut
        # isolating a single job caps it at Σp − p_j + Σ_{i∋j} c(i).
        cut_ok = self._sink_total >= self.total and not self._deficient
        # Source capacities sum to `total`, so value never exceeds it;
        # when it already matches, the flow is maximum and feasible.
        pushed = engine._push() if cut_ok and engine.value < self.total else {}
        _STATS.add(
            probes=1, rebuilds_avoided=int(warm), units_repaired=repaired, **pushed
        )
        return cut_ok and engine.value == self.total

    def member_flows(self) -> np.ndarray:
        """The flow on each job→bucket arc, in ``buckets.members`` order.

        After a feasible :meth:`probe` these are integral per-(bucket,
        job) units summing to every job's processing time.
        """
        net = self.engine.net
        icap, cap = net._initial_cap, net.cap
        if isinstance(cap, np.ndarray):
            return icap[self._job_eids] - cap[self._job_eids]
        return np.array([icap[e] - cap[e] for e in self._lists[0]], dtype=float)

    def _write_all(self, counts: Sequence[int]) -> None:
        """Write every bucket's counts in one bulk step.

        Only for the first probe of a network laid out as arrays: it
        carries no flow yet, so each capacity is a plain write and the
        room/deficit/sink-total bookkeeping is recomputed whole.
        """
        c = np.maximum(np.asarray(counts, dtype=np.int64), 0)
        member_c = c[self._member_bucket]
        self.engine.set_capacities(
            np.concatenate((self._job_eids, self._sink_eids)),
            np.concatenate((member_c, self.g * c)),
        )
        room = np.bincount(
            self._members, weights=member_c, minlength=len(self._room)
        ).astype(np.int64)
        self._room = room.tolist()
        self._deficient = int(np.count_nonzero(room < self._p_array))
        self._sink_total = self.g * int(c.sum())
        self._counts = c.tolist()

    def _write_changed(self, counts: Sequence[int]) -> int:
        """Rebase the buckets whose count changed, one edge at a time
        (a drop goes through :meth:`IncrementalFlow.set_capacity`, which
        repairs flow); returns the flow units repaired."""
        if isinstance(counts, np.ndarray):
            counts = counts.tolist()
        if self._lists is None:
            self._lists = (
                self._job_eids.tolist(),
                self._sink_eids.tolist(),
                self._members.tolist(),
                self._ptr.tolist(),
            )
        job_eids, sink_eids, members, ptr = self._lists
        engine = self.engine
        icap, cap = engine.net._initial_cap, engine.net.cap
        room, p, g = self._room, self._p, self.g
        repaired = 0
        for ci, c in enumerate(counts):
            c = max(0, c)
            dc = c - self._counts[ci]
            if dc == 0:
                continue
            lo, hi = ptr[ci], ptr[ci + 1]
            if dc > 0:
                # A raise strands no flow: the bucket's arcs (at the old
                # count, and g times it) keep their flow and gain dc
                # (g·dc) of headroom, as set_capacity would give them.
                for eid in job_eids[lo:hi]:
                    icap[eid] = c
                    cap[eid] += dc
                eid = sink_eids[ci]
                icap[eid] = g * c
                cap[eid] += g * dc
            else:
                for eid in job_eids[lo:hi]:
                    repaired += int(engine._rebase(eid, c))
                repaired += int(engine._rebase(sink_eids[ci], g * c))
            self._sink_total += g * dc
            for k in members[lo:hi]:
                before = room[k]
                room[k] = before + dc
                if before < p[k] <= room[k]:
                    self._deficient -= 1
                elif room[k] < p[k] <= before:
                    self._deficient += 1
            self._counts[ci] = c
        return repaired


class DynamicFlowProber:
    """Warm-started job↔slot feasibility network with a *mutable job side*.

    :class:`ClassFlowProber` answers ``probe(counts)`` for a fixed job
    set over fixed buckets; the rescheduling twin
    (:mod:`repro.twin.session`) needs the dual: the open-slot set changes
    one slot at a time *and* the job set itself mutates — jobs arrive,
    cancel, slip their windows, and shrink as executed work is committed.
    This network keeps one bucket per concrete slot::

        source --rem_j--> job j --1--> slot t --g·[open(t)]--> sink

    so every session mutation is a handful of
    :meth:`IncrementalFlow.set_capacity` calls on one long-lived engine:

    * opening/closing a slot touches exactly one slot→sink edge
      (repair cancels ≤ ``g`` units, re-augmentation pushes ≤ ``g``);
    * a job arrival appends one node plus its window edges
      (:meth:`IncrementalFlow.add_node` — no rebuild);
    * a cancellation zeroes the job's source edge (repair cancels its
      remaining volume) and its window edges;
    * committing an executed slot removes its flow and the matching
      source capacity in lock-step, leaving the invariant
      ``value == total`` untouched.

    Feasibility is ``value == total`` after re-augmentation, exactly the
    semantics of :func:`repro.flow.feasibility.slot_feasible` on the open
    slots; :func:`repro.verify.reference.cross_check_twin` checks the
    twin's verdicts and plans against that from-scratch path.
    """

    def __init__(self, g: int, start: int, end: int) -> None:
        if g < 1:
            raise ValueError(f"capacity g must be >= 1, got {g}")
        if end < start:
            raise ValueError(f"empty slot range [{start},{end})")
        self.g = g
        self.start = start
        self.end = start  # grown below (and on demand) via _ensure_slot
        self.total = 0
        # The twin's workload is add_node/drop_edge-heavy with tiny
        # per-event repairs; the object kernel's eager adjacency lists
        # win there, and using it keeps replay flows deterministic.
        engine = IncrementalFlow(MaxFlow(2), 0, 1)
        self.engine = engine
        self._slot_node: dict[int, int] = {}
        self._slot_sink: dict[int, int] = {}  # slot -> slot→sink edge id
        self._slot_edges: dict[int, list[tuple[int, int]]] = {}
        self._open: set[int] = set()
        self._committed: set[int] = set()
        self._jobs: dict[int, dict] = {}
        self._probed = False
        for t in range(start, end):
            self._ensure_slot(t)

    # -- slot side ---------------------------------------------------------

    def _ensure_slot(self, t: int) -> int:
        """Node id for slot ``t``, materializing the slot on demand."""
        node = self._slot_node.get(t)
        if node is None:
            if t < self.start:
                raise ValueError(
                    f"slot {t} precedes the network start {self.start}"
                )
            node = self.engine.add_node()
            self._slot_node[t] = node
            self._slot_sink[t] = self.engine.add_edge(node, 1, 0)
            self._slot_edges[t] = []
            self.end = max(self.end, t + 1)
        return node

    def open_slots(self) -> set[int]:
        """The currently open (sink-capacitated) slots."""
        return set(self._open)

    def set_open(self, t: int, is_open: bool) -> None:
        """Open or close slot ``t`` — a single sink-edge mutation."""
        if is_open and t in self._committed:
            raise ValueError(f"slot {t} is committed history; cannot reopen")
        self._ensure_slot(t)
        if is_open == (t in self._open):
            return
        self.engine.set_capacity(self._slot_sink[t], self.g if is_open else 0)
        (self._open.add if is_open else self._open.discard)(t)

    # -- job side ----------------------------------------------------------

    def add_job(
        self, handle: int, remaining: int, release: int, deadline: int
    ) -> None:
        """Admit a job node with ``remaining`` units and window ``[r, d)``."""
        if handle in self._jobs:
            raise ValueError(f"job handle {handle} already present")
        if remaining < 0:
            raise ValueError(f"negative remaining work {remaining}")
        node = self.engine.add_node()
        source_eid = self.engine.add_edge(0, node, remaining)
        record = {
            "node": node,
            "source": source_eid,
            "remaining": remaining,
            "window": (release, deadline),
            "edges": {},
        }
        self._jobs[handle] = record
        self.total += remaining
        self._set_window_edges(handle, release, deadline)

    def _set_window_edges(self, handle: int, release: int, deadline: int) -> None:
        record = self._jobs[handle]
        edges: dict[int, int] = record["edges"]
        for t, eid in edges.items():
            inside = release <= t < deadline
            if self.engine.capacity(eid) != (1 if inside else 0):
                self.engine.set_capacity(eid, 1 if inside else 0)
        for t in range(release, deadline):
            if t not in edges and t not in self._committed:
                node = self._ensure_slot(t)
                eid = self.engine.add_edge(record["node"], node, 1)
                edges[t] = eid
                self._slot_edges[t].append((handle, eid))
        record["window"] = (release, deadline)

    def set_window(self, handle: int, release: int, deadline: int) -> None:
        """Move/resize a job's window (slips repair any stranded flow)."""
        self._set_window_edges(handle, release, deadline)

    def set_remaining(self, handle: int, remaining: int) -> None:
        """Rebase a job's outstanding volume (source-edge capacity)."""
        if remaining < 0:
            raise ValueError(f"negative remaining work {remaining}")
        record = self._jobs[handle]
        self.engine.set_capacity(record["source"], remaining)
        self.total += remaining - record["remaining"]
        record["remaining"] = remaining

    def remove_job(self, handle: int) -> None:
        """Cancel a job: repair away its flow and detach it entirely.

        Zeroing the source edge cancels the job's volume; each window
        edge is then flow-free and physically dropped from the adjacency
        lists, so the node is isolated and later probes never scan it —
        the live network tracks the live job set.
        """
        record = self._jobs[handle]
        self.set_remaining(handle, 0)
        for t, eid in record["edges"].items():
            if self.engine.capacity(eid) != 0:
                self.engine.set_capacity(eid, 0)
            self.engine.drop_edge(eid)
            self._slot_edges[t].remove((handle, eid))
        self.engine.drop_edge(record["source"])
        del self._jobs[handle]

    def jobs(self) -> list[int]:
        """Handles of the jobs currently in the network."""
        return sorted(self._jobs)

    def remaining(self, handle: int) -> int:
        return self._jobs[handle]["remaining"]

    def window(self, handle: int) -> tuple[int, int]:
        return self._jobs[handle]["window"]

    # -- committing executed work -----------------------------------------

    def commit_slot(self, t: int) -> list[int]:
        """Execute the current plan at slot ``t`` and freeze the slot.

        Returns the handles that ran (one unit each, per the current
        flow), closes the slot permanently, and decrements the runners'
        remaining volume so ``value == total`` is preserved — committing
        never needs a re-augmentation.
        """
        if t in self._committed:
            raise ValueError(f"slot {t} already committed")
        ran = self.slot_jobs(t)
        self.set_open(t, False)  # cancels exactly the flow through t
        self._committed.add(t)
        for handle in ran:
            self.set_remaining(handle, self._jobs[handle]["remaining"] - 1)
        # Frozen slots never carry flow again: detach the slot's edges so
        # probes over the rest of the session stop scanning them.
        for handle, eid in self._slot_edges[t]:
            if self.engine.capacity(eid) != 0:
                self.engine.set_capacity(eid, 0)
            self.engine.drop_edge(eid)
            del self._jobs[handle]["edges"][t]
        self._slot_edges[t] = []
        self.engine.drop_edge(self._slot_sink[t])
        return ran

    # -- probing and extraction -------------------------------------------

    def probe(self) -> bool:
        """Feasibility of the current (jobs, windows, open slots) state."""
        engine = self.engine
        pushed = engine._push() if engine.value < self.total else {}
        _STATS.add(probes=1, rebuilds_avoided=int(self._probed), **pushed)
        self._probed = True
        return engine.value == self.total

    def job_slots(self, handle: int) -> list[int]:
        """Slots the current flow assigns to ``handle``, sorted."""
        record = self._jobs[handle]
        # Hot path (read once per job per event by the twin): read the
        # flow straight off the arrays instead of through two wrappers.
        net = self.engine.net
        icap, cap = net._initial_cap, net.cap
        return sorted(
            t for t, eid in record["edges"].items()
            if icap[eid] - cap[eid] > 0.5
        )

    def slot_jobs(self, t: int) -> list[int]:
        """Handles the current flow runs at slot ``t``, sorted."""
        net = self.engine.net
        icap, cap = net._initial_cap, net.cap
        return sorted(
            handle
            for handle, eid in self._slot_edges.get(t, ())
            if icap[eid] - cap[eid] > 0.5
        )

    def assignment(self) -> dict[int, list[int]]:
        """Per-job slot lists of the current flow (valid after a True probe)."""
        return {handle: self.job_slots(handle) for handle in self._jobs}


#: The prober class :func:`make_prober` builds.  Production code never
#: sets it; :func:`repro.verify.reference.flow_prober` rebinds it for one
#: context so the verify layer can run the reference or differential
#: prober without touching other threads.
PROBER_CLASS: ContextVar[type] = ContextVar(
    "repro_flow_prober_class", default=ClassFlowProber
)


def make_prober(
    processings: Sequence[int],
    buckets: Sequence[Sequence[int]],
    g: int,
):
    """Build a feasibility prober for the given bucket network.

    Returns an object with ``probe(counts) -> bool``: a
    :class:`ClassFlowProber` unless the current context rebinds
    :data:`PROBER_CLASS`.
    """
    return PROBER_CLASS.get()(processings, buckets, g)
