"""Dinic's maximum-flow algorithm, implemented from scratch.

The feasibility theory of the paper (Section 1 and Lemma 4.1) reduces
schedulability to max-flow computations on small layered networks, so this
is the workhorse substrate of the library.  Capacities are integers;
Dinic's returns integral flows, which is what schedule extraction needs.

The implementation uses flat arrays (struct-of-arrays) rather than edge
objects: BFS level graph + DFS blocking flow with the standard ``it[]``
current-arc optimization.  Complexity ``O(V^2 E)`` in general, ``O(E sqrt(V))``
on the unit-ish bipartite networks we build.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable


class MaxFlow:
    """A max-flow network over nodes ``0..n-1``.

    Edges are added with :meth:`add_edge`; reverse edges are created
    automatically with zero capacity.  After :meth:`max_flow`, per-edge
    flow is available through :meth:`edge_flow` / :meth:`flows`.

    :meth:`max_flow` is a one-shot, from-scratch solve: calling it a
    second time without :meth:`reset` is an error (it would return only
    the residual increment, a classic silent-misuse bug).  Callers that
    *want* warm-started re-augmentation — the incremental engine in
    :mod:`repro.flow.incremental` — use :meth:`augment`, which is
    explicitly documented to return the increment.
    """

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("network needs at least source and sink")
        self.n = n
        self._solved = False
        self.augment_paths = 0  # lifetime count of augmenting paths pushed
        self._init_storage()

    def _init_storage(self) -> None:
        """Empty edge storage: per-node edge lists and flat edge lists."""
        self.head: list[list[int]] = [[] for _ in range(self.n)]
        self.to: list[int] = []
        self.cap: list[float] = []
        self._initial_cap: list[float] = []

    def add_node(self) -> int:
        """Append a fresh isolated node; returns its id.

        Growing the node set never invalidates existing edges, levels are
        rebuilt per BFS, and an isolated node carries no flow — so this is
        safe between solves.  The dynamic networks in
        :mod:`repro.flow.incremental` use it to admit jobs after
        construction.
        """
        self.head.append([])
        self.n += 1
        return self.n - 1

    def drop_edge(self, eid: int) -> None:
        """Detach a flow-free edge from the adjacency lists.

        The edge (and its reverse) stops participating in BFS/DFS scans;
        its id stays allocated, so other edge ids remain valid.  Only a
        flow-free edge may be dropped — detaching an edge that still
        carries flow would break conservation at both endpoints.  Long-
        lived incremental networks use this to shed dead structure
        (cancelled jobs, frozen slots) so search cost tracks the *live*
        network, not everything ever added.
        """
        if eid & 1:
            raise ValueError(
                f"edge id {eid} is a reverse edge; drop_edge() takes the "
                f"even id returned by add_edge()"
            )
        if self.cap[eid] != self._initial_cap[eid] or self.cap[eid ^ 1] != 0:
            raise ValueError(f"edge {eid} still carries flow; cancel it first")
        u = self.to[eid ^ 1]
        v = self.to[eid]
        self.head[u].remove(eid)
        self.head[v].remove(eid ^ 1)

    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add a directed edge; returns its id (even; reverse id is id+1)."""
        if capacity < 0:
            raise ValueError(f"negative capacity {capacity}")
        eid = len(self.to)
        self.to.append(v)
        self.cap.append(capacity)
        self._initial_cap.append(capacity)
        self.head[u].append(eid)
        self.to.append(u)
        self.cap.append(0.0)
        self._initial_cap.append(0.0)
        self.head[v].append(eid + 1)
        return eid

    def add_edges(
        self,
        us: Iterable[int],
        vs: Iterable[int],
        caps: Iterable[float],
    ) -> list[int]:
        """Bulk :meth:`add_edge`; returns the even ids, in order.

        Every argument is checked before anything is appended, so a bad
        capacity or node id leaves the network as it was.  The flat
        lists grow by slice assignment; the adjacency lists get their
        ids in increasing order, as the per-edge loop would give them.
        """
        us, vs, caps = _as_list(us), _as_list(vs), _as_list(caps)
        k = len(caps)
        if len(us) != k or len(vs) != k:
            raise ValueError("us/vs/caps length mismatch")
        if k == 0:
            return []
        low = min(caps)
        if low < 0:
            raise ValueError(f"negative capacity {low}")
        if min(min(us), min(vs)) < 0 or max(max(us), max(vs)) >= self.n:
            raise ValueError(f"edge endpoint outside nodes 0..{self.n - 1}")
        base = len(self.to)
        to = [0] * (2 * k)
        to[0::2] = vs
        to[1::2] = us
        cap = [0.0] * (2 * k)
        cap[0::2] = caps
        self.to.extend(to)
        self.cap.extend(cap)
        self._initial_cap.extend(cap)
        head = self.head
        eid = base
        for u, v in zip(us, vs):
            head[u].append(eid)
            head[v].append(eid + 1)
            eid += 2
        return list(range(base, eid, 2))

    def reset(self) -> None:
        """Restore all capacities (undo any previously computed flow)."""
        self.cap = list(self._initial_cap)
        self._solved = False

    def _bfs(self, s: int, t: int, level: list[int]) -> bool:
        level[:] = [-1] * self.n
        level[s] = 0
        q = deque([s])
        to, cap = self.to, self.cap
        while q:
            u = q.popleft()
            for eid in self.head[u]:
                v = to[eid]
                if cap[eid] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    q.append(v)
        return level[t] >= 0

    def _dfs(self, s: int, t: int, level: list[int], it: list[int]) -> float:
        """Iterative blocking-flow DFS pushing one augmenting path."""
        to, cap, head = self.to, self.cap, self.head
        path: list[int] = []  # edge ids along current path
        u = s
        while True:
            if u == t:
                bottleneck = min(cap[eid] for eid in path)
                for eid in path:
                    cap[eid] -= bottleneck
                    cap[eid ^ 1] += bottleneck
                return bottleneck
            advanced = False
            while it[u] < len(head[u]):
                eid = head[u][it[u]]
                v = to[eid]
                if cap[eid] > 0 and level[v] == level[u] + 1:
                    path.append(eid)
                    u = v
                    advanced = True
                    break
                it[u] += 1
            if advanced:
                continue
            level[u] = -1  # dead end; prune
            if not path:
                return 0.0
            eid = path.pop()
            u = to[eid ^ 1]
            it[u] += 1

    def max_flow(self, s: int, t: int) -> float:
        """Compute the maximum ``s``-``t`` flow value (from-scratch, once).

        Raises
        ------
        RuntimeError
            If called again without an intervening :meth:`reset` — the
            second call would silently return only the residual
            increment, not the flow value.  Use :meth:`augment` when
            warm-started re-augmentation is actually intended.
        """
        if self._solved:
            raise RuntimeError(
                "max_flow() already ran on this network; call reset() for "
                "a fresh solve, or augment() if you want the warm-started "
                "residual increment"
            )
        return self.augment(s, t)

    def augment(self, s: int, t: int) -> float:
        """Push flow on the *current* residual network to a maximum.

        Returns the increment added by this call (0.0 when the flow is
        already maximum).  This is the warm-start entry point used by
        :class:`repro.flow.incremental.IncrementalFlow` after capacity
        mutations; fresh one-shot solves should call :meth:`max_flow`.
        """
        if s == t:
            raise ValueError("source equals sink")
        self._solved = True
        total = 0.0
        level = [-1] * self.n
        while self._bfs(s, t, level):
            it = [0] * self.n
            while True:
                pushed = self._dfs(s, t, level, it)
                if pushed == 0:
                    break
                total += pushed
                self.augment_paths += 1
        return total

    # -- flow inspection ---------------------------------------------------

    def edge_flow(self, eid: int) -> float:
        """Flow currently on edge ``eid`` (as returned by :meth:`add_edge`).

        Only the even ids handed out by :meth:`add_edge` are valid: the
        odd reverse ids would return negative garbage (their initial
        capacity is 0), so they are rejected loudly.
        """
        if eid & 1:
            raise ValueError(
                f"edge id {eid} is a reverse edge; edge_flow() takes the "
                f"even id returned by add_edge() (did you mean {eid ^ 1}?)"
            )
        return self._initial_cap[eid] - self.cap[eid]

    def flows(self, edge_ids: Iterable[int]) -> list[float]:
        return [self.edge_flow(e) for e in edge_ids]


def _as_list(values: Iterable) -> list:
    """``values`` as a list of Python scalars (arrays via ``tolist``)."""
    tolist = getattr(values, "tolist", None)
    return tolist() if tolist is not None else list(values)
