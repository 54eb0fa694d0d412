"""The window forest of a laminar instance, as flat int lists.

Nodes follow Section 2 of the paper: each node ``i`` carries an interval
``K(i)`` equal to some job window (or a virtual interval introduced by
canonicalization), and its *length* ``L(i)`` is the number of slots in
``K(i)`` that belong to no child interval.  The windows of a laminar
instance in general form a *forest*; the paper assumes a single tree
w.l.o.g., while we handle forests directly (all definitions are per-tree).

Node ``i`` is position ``i`` of every list:

* ``start[i]``, ``end[i]``: ``K(i) = [start, end)``;
* ``parent[i]`` (``-1`` at a root), ``children[i]`` (sorted by start),
  ``roots``;
* ``length[i]``: ``L(i)``, computed once;
* ``depth[i]``: edges to the root;
* ``jobs[i]``: ids of the jobs ``j`` with ``k(j) = i``;
* ``preorder``, ``postorder``, and ``tin[i]``/``tout[i]``: subtree ``i``
  is ``preorder[tin[i]:tout[i]]``, so ``Des(i)`` is one slice, ``i`` first;
  ``Anc(i)`` is the walk up ``parent``;
* ``virtual``: the range of node indices canonicalization added as hulls.
"""

from __future__ import annotations

from repro.util.errors import InvalidInstanceError


class WindowForest:
    """A laminar forest of window nodes over flat lists (see the module).

    The forest takes ownership of the lists it is given and checks them
    once: every child index in range and listed once, every child strictly
    inside its parent, siblings (and roots) sorted by start and disjoint.
    The structure is not modified afterwards.
    """

    def __init__(
        self,
        start: list[int],
        end: list[int],
        children: list[list[int]],
        jobs: list[list[int]] | None = None,
        *,
        virtual: range = range(0),
    ) -> None:
        m = len(start)
        if len(end) != m or len(children) != m:
            raise InvalidInstanceError("start, end and children differ in length")
        self.start = start
        self.end = end
        self.children = children
        self.jobs = jobs if jobs is not None else [[] for _ in range(m)]
        self.virtual = virtual
        parent = [-1] * m
        for i, kids in enumerate(children):
            for c in kids:
                if not 0 <= c < m or c == i or parent[c] >= 0:
                    raise InvalidInstanceError(
                        f"node {c} is out of place as a child of node {i}"
                    )
                parent[c] = i
        self.parent = parent
        self.roots = [i for i, p in enumerate(parent) if p < 0]
        self._build_orders()

    def _build_orders(self) -> None:
        """One preorder walk (depth, ``L``, the nesting checks), then one
        pass back over it for subtree sizes and the postorder."""
        start, end, children = self.start, self.end, self.children
        m = len(start)
        lo = -float("inf")
        for r in self.roots:
            if not lo <= start[r] < end[r]:
                raise InvalidInstanceError(f"root {r} is empty or overlaps the root before it")
            lo = end[r]
        depth = [0] * m
        length = [0] * m
        preorder: list[int] = []
        stack = self.roots[::-1]
        while stack:
            i = stack.pop()
            preorder.append(i)
            kids = children[i]
            lo, hi = start[i], end[i]
            free = hi - lo
            if kids:
                d = depth[i] + 1
                for c in kids:
                    if not lo <= start[c] < end[c] <= hi:
                        raise InvalidInstanceError(
                            f"node {c} is empty, not inside node {i} or overlaps "
                            "the sibling before it"
                        )
                    lo = end[c]
                    free -= end[c] - start[c]
                    depth[c] = d
                if free == 0 and len(kids) == 1:
                    raise InvalidInstanceError(f"node {kids[0]} equals its parent {i}")
                stack.extend(reversed(kids))
            length[i] = free
        if len(preorder) != m:
            raise InvalidInstanceError("the parent links of the forest form a cycle")
        tin = [0] * m
        for t, i in enumerate(preorder):
            tin[i] = t
        # Subtree sizes children first; node i ends the postorder of its
        # subtree, after the nodes before it that are not its ancestors.
        tout = [t + 1 for t in tin]
        postorder = [0] * m
        parent = self.parent
        for i in reversed(preorder):
            p = parent[i]
            if p >= 0 and tout[p] < tout[i]:
                tout[p] = tout[i]
            postorder[tout[i] - depth[i] - 1] = i
        self.depth = depth
        self.length = length
        self.preorder = preorder
        self.postorder = postorder
        self.tin = tin
        self.tout = tout

    # -- shape -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.start)

    @property
    def m(self) -> int:
        """Number of nodes."""
        return len(self.start)

    # -- queries (Section 2 notation) -------------------------------------

    def is_ancestor(self, a: int, b: int) -> bool:
        """True when ``a`` is an ancestor of ``b`` (inclusive: Anc includes self)."""
        return self.tin[a] <= self.tin[b] and self.tout[b] <= self.tout[a]

    def ancestors(self, i: int) -> list[int]:
        """``Anc(i)``: ancestors of ``i`` including ``i``, bottom-up."""
        out = [i]
        p = self.parent[i]
        while p >= 0:
            out.append(p)
            p = self.parent[p]
        return out

    def strict_ancestors(self, i: int) -> list[int]:
        """``Anc+(i)``: ancestors excluding ``i``, bottom-up."""
        return self.ancestors(i)[1:]

    def descendants(self, i: int) -> list[int]:
        """``Des(i)``: descendants of ``i`` including ``i``, preorder."""
        return self.preorder[self.tin[i] : self.tout[i]]

    def strict_descendants(self, i: int) -> list[int]:
        """``Des+(i)``: descendants excluding ``i``."""
        return self.preorder[self.tin[i] + 1 : self.tout[i]]

    def leaves(self, i: int | None = None) -> list[int]:
        """Leaf nodes under ``i`` in preorder (or of the whole forest, by index)."""
        pool = self.descendants(i) if i is not None else range(self.m)
        return [k for k in pool if not self.children[k]]

    # -- exclusive slots ----------------------------------------------------

    def exclusive_runs(
        self, i: int, limit: int | None = None
    ) -> list[tuple[int, int]]:
        """The slots counted by ``L(i)`` as sorted disjoint ``(start, stop)``
        ranges, one per gap between children.

        With ``limit``, only the first ``limit`` slots.  The cost is
        O(children), whatever ``L(i)`` or ``limit`` is.
        """
        start, end, kids = self.start, self.end, self.children[i]
        room = end[i] - start[i] if limit is None else limit
        out: list[tuple[int, int]] = []
        # Gap k runs from the end of child k - 1 (or the node's start) to
        # the start of child k (or the node's end).
        for a, b in zip(
            [start[i]] + [end[c] for c in kids], [start[c] for c in kids] + [end[i]]
        ):
            take = min(b - a, room)
            if take > 0:
                out.append((a, a + take))
                room -= take
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
            nxt = next(
                (i for i in candidates if self.start[i] <= t < self.end[i]), None
            )
            if nxt is None:
                return found
            found = nxt
            candidates = self.children[nxt]
