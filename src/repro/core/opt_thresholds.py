"""Deciding ``OPT_i >= 2`` and ``OPT_i >= 3`` for every tree node.

The strengthened LP's ceiling constraints (7)–(8) need, for each node
``i``, whether the jobs of ``Des(i)`` can be scheduled in one or two slots.
The paper notes this "can be done easily"; we implement it exactly:

* ``OPT_i <= 1``  ⇔  all subtree jobs are unit, there are at most ``g`` of
  them, and their nodes lie on one root-to-leaf chain (then any slot inside
  the deepest window serves every job).
* ``OPT_i <= 2``  is decided by cheap lower bounds (volume, max processing
  time, additivity over disjoint children) followed by enumeration of slot
  *positions*.  A slot placed at node ``w`` serves exactly the jobs with
  ``k(j) ∈ Anc(w)``, and ``Anc`` grows along root-to-leaf paths, so deeper
  placements dominate: it suffices to try pairs of leaves, a leaf doubled
  (when its interval has two slots), and — for single-leaf chains — a leaf
  plus its deepest strict ancestor with free length.

Everything is computed bottom-up in one pass over the forest's
``postorder`` and ``children`` lists; the result is ``min(OPT_i, 3)``
per node.
"""

from __future__ import annotations

from repro.instances.jobs import Job
from repro.tree.node import WindowForest


def _pair_feasible(
    forest: WindowForest,
    job_node: dict[int, int],
    jobs: list[Job],
    g: int,
    a: int,
    b: int,
) -> bool:
    """Can ``jobs`` be scheduled on one slot at node ``a`` plus one at ``b``?

    Eligibility of a slot at node ``w`` for job ``j`` is ``k(j) ∈ Anc(w)``,
    i.e. ``is_ancestor(k(j), w)``.  With two slots the matching condition
    collapses to three counting inequalities.
    """
    n_a_only = n_b_only = n_both_p1 = n_both_p2 = 0
    for job in jobs:
        if job.processing > 2:
            return False
        kj = job_node[job.id]
        ea = forest.is_ancestor(kj, a)
        eb = forest.is_ancestor(kj, b)
        if job.processing == 2:
            if not (ea and eb):
                return False
            n_both_p2 += 1
        elif ea and eb:
            n_both_p1 += 1
        elif ea:
            n_a_only += 1
        elif eb:
            n_b_only += 1
        else:
            return False
    return (
        n_a_only + n_both_p2 <= g
        and n_b_only + n_both_p2 <= g
        and n_a_only + n_b_only + n_both_p1 + 2 * n_both_p2 <= 2 * g
    )


def _two_slot_candidates(
    forest: WindowForest, root: int
) -> list[tuple[int, int]]:
    """Dominant placements for two slots inside the subtree of ``root``."""
    start, end, parent, length = forest.start, forest.end, forest.parent, forest.length
    leaves = forest.leaves(root)
    cands = [(a, b) for k, a in enumerate(leaves) for b in leaves[k + 1 :]]
    for leaf in leaves:
        if end[leaf] - start[leaf] >= 2:
            cands.append((leaf, leaf))
        else:
            # Deepest strict ancestor (within the subtree) with free length.
            w = parent[leaf]
            while w >= 0 and forest.is_ancestor(root, w):
                if length[w] >= 1:
                    cands.append((leaf, w))
                    break
                if w == root:
                    break
                w = parent[w]
    return cands


class OptThresholds:
    """Computes ``min(OPT_i, 3)`` for every node of a window forest."""

    def __init__(
        self,
        forest: WindowForest,
        job_node: dict[int, int],
        jobs_by_id: dict[int, Job],
        g: int,
    ) -> None:
        self.forest = forest
        self.job_node = job_node
        self.jobs_by_id = jobs_by_id
        self.g = g
        self.omega: list[int] = [0] * forest.m  # min(OPT_i, 3)
        self._compute()

    # -- public view --------------------------------------------------------

    def at_least(self, i: int, k: int) -> bool:
        """Is ``OPT_i >= k`` (k in {2, 3})?"""
        if k not in (2, 3):
            raise ValueError("threshold must be 2 or 3")
        return self.omega[i] >= k

    def value(self, i: int) -> int:
        """``min(OPT_i, 3)``."""
        return self.omega[i]

    # -- computation ---------------------------------------------------------

    def _compute(self) -> None:
        """One pass children-first over aggregates of ``J(Des(i))``: volume,
        job count, largest ``p`` and, when the job-bearing nodes form one
        ancestor chain, its deepest node (``-1`` otherwise)."""
        forest, jobs_by_id, g, omega = self.forest, self.jobs_by_id, self.g, self.omega
        m = forest.m
        volume = [0] * m
        count = [0] * m
        max_p = [0] * m
        chain = [-1] * m
        for i in forest.postorder:
            kids = forest.children[i]
            ids = forest.jobs[i]
            if ids:
                ps = [jobs_by_id[j].processing for j in ids]
                vol, cnt, mx, bottom = sum(ps), len(ps), max(ps), i
            else:
                vol = cnt = mx = 0
                bottom = -1
            bearing = child_omega = 0
            for c in kids:
                if count[c]:
                    vol += volume[c]
                    cnt += count[c]
                    mx = max(mx, max_p[c])
                    bottom = chain[c] if not bearing else -1
                    bearing += 1
                    child_omega += omega[c]
            volume[i], count[i], max_p[i], chain[i] = vol, cnt, mx, bottom
            if not cnt:
                continue
            if mx == 1 and cnt <= g and bottom >= 0:
                omega[i] = 1
            # Cheap certificates that OPT_i >= 3; children occupy disjoint
            # regions, so their optima add up.
            elif mx >= 3 or vol > 2 * g or child_omega >= 3:
                omega[i] = 3
            else:
                omega[i] = 2 if self._fits_two_slots(i) else 3

    def _fits_two_slots(self, i: int) -> bool:
        """Exact 2-slot test by dominant-placement enumeration."""
        forest = self.forest
        jobs = [
            self.jobs_by_id[j]
            for k in forest.preorder[forest.tin[i] : forest.tout[i]]
            for j in forest.jobs[k]
        ]
        return any(
            _pair_feasible(forest, self.job_node, jobs, self.g, a, b)
            for a, b in _two_slot_candidates(forest, i)
        )


def compute_thresholds(
    forest: WindowForest,
    job_node: dict[int, int],
    jobs_by_id: dict[int, Job],
    g: int,
) -> OptThresholds:
    """Convenience constructor for :class:`OptThresholds`."""
    return OptThresholds(forest, job_node, jobs_by_id, g)
