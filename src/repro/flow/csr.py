"""Vectorized max-flow kernel on CSR adjacency arrays.

:class:`CSRMaxFlow` keeps the exact :class:`~repro.flow.dinic.MaxFlow`
contract — same edge ids, same misuse guards, same repair-friendly
``cap``/``_initial_cap`` arrays — but answers :meth:`augment` by handing
the *residual graph* to :func:`scipy.sparse.csgraph.maximum_flow` (a C
implementation of Dinic's with vectorized level/BFS sweeps) instead of
walking Python adjacency lists.  The net pair flows scipy returns are
redistributed onto the individual parallel arcs with a grouped
prefix-sum, so the per-edge residual state stays exactly as expressive
as the object kernel's and :class:`~repro.flow.incremental.IncrementalFlow`
repair works unchanged on top of it.

The flat ``to``/``cap``/``_initial_cap`` arrays are *numpy arrays*
(amortized-growth buffers exposed as length-``m`` views), so bulk edge
appends, the residual snapshot handed to scipy and the post-solve
capacity update are all array operations — no per-augment list↔array
round trips.  The adjacency lists become *lazy*: :meth:`add_edges`
appends to the flat arrays in bulk and only materializes ``head``
(needed by the Python BFS/DFS fallback, min-cut extraction and the
incremental repair walk) on first access.

scipy's ``maximum_flow`` has a fixed cost per call (it validates the
graph and builds its own sparse matrices; ~200–300 µs on a 2-vCPU host)
that the Python kernel does not pay, so the CSR kernel wins only on
networks of some size.  The
:class:`~repro.flow.incremental.ClassFlowProber` networks of at least
:data:`~repro.flow.incremental.SMALL_NETWORK_ARCS` arcs run here; every
network of :mod:`repro.flow.feasibility`, the Lemma 4.1 network of
:func:`~repro.flow.feasibility.node_assignment` included, is such a
prober.  The list-backed :class:`~repro.flow.dinic.MaxFlow` is the
kernel of the smaller prober networks and of the twin, this kernel's
fallback for capacities scipy cannot take, and the reference the tests
compare it against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_flow

from repro.flow.dinic import MaxFlow

#: scipy's maximum_flow takes int32 capacities; anything at or above
#: this (or fractional) falls back to the Python kernel transparently.
_CAP_LIMIT = 2**31 - 1

_INTEGRALITY_TOL = 1e-6


class CSRMaxFlow(MaxFlow):
    """:class:`MaxFlow` with a vectorized scipy-Dinic ``augment``.

    Storage, edge ids and every guard are inherited — ``add_edge`` still
    hands out even ids with odd reverses, a second :meth:`max_flow`
    still raises, odd-id :meth:`edge_flow` is still rejected — so the
    two kernels are drop-in interchangeable and the differential
    machinery can compare them probe by probe.
    """

    def _init_storage(self) -> None:
        # Growable numpy buffers; ``to``/``cap``/``_initial_cap`` are
        # length-m views into them.  ``head`` starts dirty, so its
        # per-node lists are built only when something reads them.
        self._head_store: list[list[int]] = []
        self._head_dirty = True
        self._dropped: set[int] = set()
        self._m = 0
        self._to_buf = np.empty(16, dtype=np.int64)
        self._cap_buf = np.empty(16, dtype=float)
        self._icap_buf = np.empty(16, dtype=float)
        self._refresh_views()

    # -- flat-array storage ------------------------------------------------

    def _refresh_views(self) -> None:
        m = self._m
        self.to = self._to_buf[:m]
        self.cap = self._cap_buf[:m]
        self._initial_cap = self._icap_buf[:m]

    def _ensure(self, extra: int) -> None:
        need = self._m + extra
        if need <= self._to_buf.size:
            return
        size = max(need, 2 * self._to_buf.size)
        for name in ("_to_buf", "_cap_buf", "_icap_buf"):
            buf = getattr(self, name)
            grown = np.empty(size, dtype=buf.dtype)
            grown[: self._m] = buf[: self._m]
            setattr(self, name, grown)

    def reset(self) -> None:
        """Restore all capacities (undo any previously computed flow)."""
        self._cap_buf[: self._m] = self._icap_buf[: self._m]
        self._solved = False

    # -- lazy adjacency ----------------------------------------------------

    @property
    def head(self) -> list[list[int]]:
        if self._head_dirty:
            self._rebuild_head()
        return self._head_store

    @head.setter
    def head(self, value: list[list[int]]) -> None:
        self._head_store = value
        self._head_dirty = False

    def _rebuild_head(self) -> None:
        """Rebuild per-node edge lists from the flat arrays.

        Edges are appended in increasing id order, which is exactly the
        order the eager object kernel builds them in, so the rebuilt
        lists (and therefore BFS/DFS tie-breaking) are identical.
        """
        head: list[list[int]] = [[] for _ in range(self.n)]
        to = self.to.tolist()
        dropped = self._dropped
        for eid in range(len(to)):
            if eid in dropped:
                continue
            head[to[eid ^ 1]].append(eid)
        self._head_store = head
        self._head_dirty = False

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge; returns its id (even; reverse id is id+1)."""
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        if self._head_dirty:
            # head[] is appended to mid-edge; rebuild first so the lists
            # are consistent with the flat arrays.
            self._rebuild_head()
        eid = self._m
        self._ensure(2)
        self._to_buf[eid] = v
        self._to_buf[eid + 1] = u
        self._cap_buf[eid] = capacity
        self._cap_buf[eid + 1] = 0.0
        self._icap_buf[eid] = capacity
        self._icap_buf[eid + 1] = 0.0
        self._m += 2
        self._refresh_views()
        self._head_store[u].append(eid)
        self._head_store[v].append(eid + 1)
        return eid

    def add_edges(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        caps: Sequence[float],
    ) -> list[int]:
        """Bulk :meth:`add_edge`: append all arcs without touching
        ``head``; returns the even ids, in order."""
        base = self._m
        self.append_edges(us, vs, caps)
        return list(range(base, self._m, 2))

    def append_edges(
        self,
        us: Sequence[int],
        vs: Sequence[int],
        caps: Sequence[float],
    ) -> None:
        """:meth:`add_edges` without the id list: the arcs get the even
        ids from the current edge count on, in order."""
        caps_arr = np.asarray(caps, dtype=float)
        if caps_arr.size and float(caps_arr.min()) < 0:
            bad = float(caps_arr[caps_arr < 0][0])
            raise ValueError(f"negative capacity {bad}")
        k = len(caps_arr)
        if len(us) != k or len(vs) != k:
            raise ValueError("us/vs/caps length mismatch")
        if k == 0:
            return
        base = self._m
        stop = base + 2 * k
        self._ensure(2 * k)
        self._to_buf[base:stop:2] = vs
        self._to_buf[base + 1 : stop : 2] = us
        self._cap_buf[base:stop:2] = caps_arr
        self._cap_buf[base + 1 : stop : 2] = 0.0
        self._icap_buf[base:stop:2] = caps_arr
        self._icap_buf[base + 1 : stop : 2] = 0.0
        self._m = stop
        self._refresh_views()
        self._head_dirty = True

    def drop_edge(self, eid: int) -> None:
        super().drop_edge(eid)
        self._dropped.add(eid)
        self._dropped.add(eid ^ 1)

    # -- vectorized augmentation -------------------------------------------

    def augment(self, s: int, t: int) -> float:
        """Max-flow on the current residual network via scipy's C Dinic.

        Semantically identical to :meth:`MaxFlow.augment` (returns the
        increment, counts augmenting paths, leaves a valid residual
        state); falls back to the Python kernel for fractional or
        oversized capacities, which scipy's int32 solver cannot take.
        """
        if s == t:
            raise ValueError("source equals sink")
        cap = self.cap  # float64 view into the growth buffer
        if cap.size == 0:
            self._solved = True
            return 0.0
        cap_int = np.rint(cap)
        if (
            float(np.abs(cap - cap_int).max()) > _INTEGRALITY_TOL
            or float(cap_int.max()) >= _CAP_LIMIT
        ):
            return MaxFlow.augment(self, s, t)
        self._solved = True
        live = cap_int > 0
        if self._dropped:
            live[np.fromiter(self._dropped, dtype=np.int64)] = False
        arcs = np.flatnonzero(live)
        if arcs.size == 0:
            return 0.0
        to = self.to
        heads = to[arcs]
        tails = to[arcs ^ 1]
        arc_caps = cap_int[arcs].astype(np.int64)
        # Parallel residual arcs between the same node pair are summed by
        # the CSR constructor; the per-arc split is recovered below.
        graph = csr_matrix(
            (arc_caps.astype(np.int32), (tails, heads)),
            shape=(self.n, self.n),
        )
        result = maximum_flow(graph, s, t)
        pushed = int(result.flow_value)
        if pushed == 0:
            return 0.0
        # The flow is CSR: positions of its positive net pair flows are
        # ascending, so their rows (found in indptr) and the (row·n +
        # col) pair keys are row-major sorted, unless a row's columns
        # are not.
        flow = result.flow
        positive = np.flatnonzero(flow.data > 0)
        rows = np.searchsorted(flow.indptr, positive, side="right") - 1
        pair_keys = rows * self.n + flow.indices[positive]
        pair_vals = flow.data[positive].astype(np.int64)
        if pair_keys.size > 1 and np.any(pair_keys[1:] < pair_keys[:-1]):
            key_order = np.argsort(pair_keys)
            pair_keys = pair_keys[key_order]
            pair_vals = pair_vals[key_order]
        # One "augmenting path" per distinct flow-carrying arc out of the
        # source: the minimum number of paths any decomposition of this
        # increment needs, and what the object kernel reports for the
        # layered networks this library builds.
        self.augment_paths += int(np.count_nonzero(rows == s))

        # Find the arcs whose pair carries flow.
        arc_pairs = tails * self.n + heads
        lookup = np.searchsorted(pair_keys, arc_pairs)
        clipped = np.minimum(lookup, pair_keys.size - 1)
        sel = np.flatnonzero(pair_keys[clipped] == arc_pairs)
        if graph.nnz == arcs.size:
            # No two live arcs share a pair (the CSR constructor summed
            # none), as in every layered network this library builds:
            # each such arc takes its pair's whole flow.
            arcs_taking = arcs[sel]
            units = pair_vals[clipped[sel]].astype(float)
        else:
            # Redistribute each pair's net flow onto its arcs: sort them
            # by (pair, id), then take from each arc up to its capacity
            # until the pair's flow is exhausted (grouped exclusive
            # prefix sum).
            order = np.lexsort((arcs[sel], arc_pairs[sel]))
            s_arcs = arcs[sel][order]
            s_pairs = arc_pairs[sel][order]
            s_caps = arc_caps[sel][order]
            group_flow = pair_vals[clipped[sel][order]]
            first = np.empty(s_pairs.size, dtype=bool)
            first[0] = True
            first[1:] = s_pairs[1:] != s_pairs[:-1]
            exclusive = np.cumsum(s_caps) - s_caps
            group_base = exclusive[np.flatnonzero(first)]
            prior = exclusive - group_base[np.cumsum(first) - 1]
            take = np.clip(group_flow - prior, 0, s_caps)
            taking = np.flatnonzero(take)
            arcs_taking = s_arcs[taking]
            units = take[taking].astype(float)
        cap[arcs_taking] -= units
        cap[arcs_taking ^ 1] += units
        return float(pushed)

