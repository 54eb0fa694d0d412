"""Tree node and forest structures for laminar window families.

Nodes follow Section 2 of the paper: each node ``i`` carries an interval
``K(i)`` equal to some job window (or a virtual interval introduced by
canonicalization), and its *length* ``L(i)`` is the number of slots in
``K(i)`` that belong to no child interval.  The windows of a laminar
instance in general form a *forest*; the paper assumes a single tree
w.l.o.g., while we handle forests directly (all definitions are per-tree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.util.errors import InvalidInstanceError
from repro.util.intervals import Interval


@dataclass
class TreeNode:
    """One node of a window forest.

    Attributes
    ----------
    index:
        Position in :attr:`WindowForest.nodes` (the paper's node id).
    interval:
        The node interval ``K(i)``.
    parent:
        Index of the parent node, or ``None`` for roots.
    children:
        Indices of child nodes, ordered by interval start.
    job_ids:
        Ids of jobs ``j`` with ``k(j) = i`` (window equal to ``K(i)``).
    virtual:
        True for nodes introduced by canonicalization (no job has this
        exact window originally).
    """

    index: int
    interval: Interval
    parent: int | None = None
    children: list[int] = field(default_factory=list)
    job_ids: list[int] = field(default_factory=list)
    virtual: bool = False

    @property
    def start(self) -> int:
        return self.interval.start

    @property
    def end(self) -> int:
        return self.interval.end

    @property
    def is_leaf(self) -> bool:
        return not self.children


class WindowForest:
    """A laminar forest of window nodes with fast ancestor/descendant queries.

    The structure is immutable after construction; canonicalization builds a
    new forest.  Descendant sets use Euler-tour intervals (``tin``/``tout``)
    so membership tests are O(1) and subtree iteration is contiguous.
    """

    def __init__(self, nodes: Sequence[TreeNode]) -> None:
        self.nodes: list[TreeNode] = list(nodes)
        self.roots: list[int] = [n.index for n in self.nodes if n.parent is None]
        self._validate()
        self._build_orders()

    # -- construction-time checks and indexes ---------------------------

    def _validate(self) -> None:
        for k, node in enumerate(self.nodes):
            if node.index != k:
                raise InvalidInstanceError(
                    f"node index {node.index} does not match position {k}"
                )
            for c in node.children:
                child = self.nodes[c]
                if child.parent != node.index:
                    raise InvalidInstanceError(
                        f"child {c} of node {k} has parent {child.parent}"
                    )
                if not node.interval.strictly_contains(child.interval):
                    raise InvalidInstanceError(
                        f"child interval {child.interval} not strictly inside "
                        f"{node.interval} (nodes {c} <- {k})"
                    )

    def _build_orders(self) -> None:
        m = len(self.nodes)
        self.preorder: list[int] = []
        self.postorder: list[int] = []
        self.tin = [0] * m
        self.tout = [0] * m
        self.depth = [0] * m
        clock = 0
        for root in self.roots:
            # Iterative DFS; (node, expanded?) entries.
            stack: list[tuple[int, bool]] = [(root, False)]
            while stack:
                idx, expanded = stack.pop()
                if expanded:
                    self.postorder.append(idx)
                    self.tout[idx] = clock
                    continue
                node = self.nodes[idx]
                self.depth[idx] = (
                    0 if node.parent is None else self.depth[node.parent] + 1
                )
                self.tin[idx] = clock
                clock += 1
                self.preorder.append(idx)
                stack.append((idx, True))
                for c in reversed(node.children):
                    stack.append((c, False))

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        """Number of nodes."""
        return len(self.nodes)

    def __iter__(self) -> Iterator[TreeNode]:
        return iter(self.nodes)

    # -- queries (Section 2 notation) -------------------------------------

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when ``a`` is an ancestor of ``b`` (inclusive: Anc includes self)."""
        return self.tin[a] <= self.tin[b] and self.tout[b] <= self.tout[a]

    def ancestors(self, i: int) -> list[int]:
        """``Anc(i)``: ancestors of ``i`` including ``i``, bottom-up."""
        out = [i]
        p = self.nodes[i].parent
        while p is not None:
            out.append(p)
            p = self.nodes[p].parent
        return out

    def strict_ancestors(self, i: int) -> list[int]:
        """``Anc+(i)``: ancestors excluding ``i``, bottom-up."""
        return self.ancestors(i)[1:]

    def descendants(self, i: int) -> list[int]:
        """``Des(i)``: descendants of ``i`` including ``i``, preorder.

        The clock only ticks at pre-visits, so a subtree occupies the
        contiguous preorder range ``[tin[i], tout[i])``.
        """
        return self.preorder[self.tin[i] : self.tout[i]]

    def strict_descendants(self, i: int) -> list[int]:
        """``Des+(i)``: descendants excluding ``i``."""
        return self.descendants(i)[1:]

    def parent(self, i: int) -> int | None:
        return self.nodes[i].parent

    def leaves(self, i: int | None = None) -> list[int]:
        """Leaf nodes under ``i`` (or of the whole forest)."""
        pool = self.descendants(i) if i is not None else range(self.m)
        return [k for k in pool if self.nodes[k].is_leaf]

    # -- lengths and exclusive slots --------------------------------------

    def length(self, i: int) -> int:
        """``L(i)``: slots in ``K(i)`` outside every child interval.

        Computed from intervals (for virtual hull nodes this counts the gap
        slots between children, generalizing the paper's ``L = 0``
        convention for contiguous virtual nodes).
        """
        node = self.nodes[i]
        return node.interval.length - sum(
            self.nodes[c].interval.length for c in node.children
        )

    def exclusive_runs(
        self, i: int, limit: int | None = None
    ) -> list[tuple[int, int]]:
        """The slots counted by ``L(i)`` as sorted disjoint ``(start, stop)``
        ranges, one per gap between children.

        With ``limit``, only the first ``limit`` slots.  The cost is
        O(children), whatever ``L(i)`` or ``limit`` is.
        """
        node = self.nodes[i]
        children = sorted(
            (self.nodes[c].interval.start, self.nodes[c].interval.end)
            for c in node.children
        )
        # An empty sentinel child at the end closes the last gap.
        children.append((node.interval.end, node.interval.end))
        room = node.interval.length if limit is None else limit
        out: list[tuple[int, int]] = []
        t = node.interval.start
        for child_start, child_end in children:
            take = min(child_start - t, room)
            if take > 0:
                out.append((t, t + take))
                room -= take
            t = child_end
        return out

    def exclusive_slots(self, i: int, *, limit: int | None = None) -> list[int]:
        """The concrete slots counted by ``L(i)``, in increasing order: the
        expansion of :meth:`exclusive_runs`."""
        return [
            t for start, stop in self.exclusive_runs(i, limit) for t in range(start, stop)
        ]

    def node_at_slot(self, t: int) -> int | None:
        """Deepest node whose interval contains slot ``t`` (or ``None``)."""
        found: int | None = None
        candidates = self.roots
        while True:
            nxt = None
            for idx in candidates:
                if t in self.nodes[idx].interval:
                    nxt = idx
                    break
            if nxt is None:
                return found
            found = nxt
            candidates = self.nodes[nxt].children

    def bottom_up(self) -> list[int]:
        """Nodes in bottom-to-top order (reverse preorder is not enough;
        postorder guarantees children before parents)."""
        return list(self.postorder)

    def validate_laminar_partition(self) -> None:
        """Assert siblings are pairwise disjoint (defensive check)."""
        for node in self.nodes:
            kids = sorted(node.children, key=lambda c: self.nodes[c].start)
            for a, b in zip(kids, kids[1:]):
                if self.nodes[a].end > self.nodes[b].start:
                    raise InvalidInstanceError(
                        f"sibling intervals overlap under node {node.index}"
                    )
