"""Algorithm 1: rounding the transformed LP solution.

Start from ``x̃(i) = ⌊x(i)⌋`` on the topmost-positive set ``I`` (all other
nodes are already integral after the transformation: fully open below
``I``, zero above).  Then walk ``Anc(I)`` bottom-to-top and, while the
subtree budget ``(9/5)·x(Des(i))`` affords it, round floored nodes in the
subtree up to ``⌈x⌉``.  Lemma 3.3 gives ``x̃([m]) ≤ (9/5)·x([m])``;
Section 4 proves the result is feasible on canonical trees.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import ceil, floor

import numpy as np

from repro.tree.node import WindowForest
from repro.util.errors import IntegralityError
from repro.util.numeric import EPS, SUM_EPS

#: The approximation factor of the paper.
APPROX_FACTOR = 9.0 / 5.0


def _floor_on_I(value: float) -> float:
    """Initial value on the topmost set ``I``: ``⌊x(i)⌋`` (EPS-guarded)."""
    return float(floor(value + EPS))


def _integral_off_I(value: float, node: int) -> float:
    """Initial value off ``I``: the value itself, asserted integral.

    Nodes outside ``I`` are exactly integral under the Lemma 3.1
    invariant (fully open below ``I``, zero above), so the only
    legitimate deviation is float noise within ``EPS``.  An explicit
    nearest-int (``⌊v + 1/2⌋``, *not* Python's half-to-even ``round``)
    plus a loud integrality check replaces the historic ``round(v)``:
    drift beyond ``EPS`` raises instead of silently changing ``x̃`` off
    ``I``.
    """
    nearest = floor(value + 0.5)
    if abs(value - nearest) > EPS:
        raise IntegralityError(
            f"node {node} off the topmost set carries non-integral "
            f"x = {value!r} (|x - {nearest}| > EPS): the Lemma 3.1 "
            "invariant is broken upstream of rounding",
            node=node,
            value=float(value),
        )
    return float(nearest)


@dataclass
class RoundingResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    x_tilde:
        Integral open-slot counts per node.
    topmost:
        The set ``I`` the rounding operated on.
    rounded_up:
        Nodes of ``I`` whose value was raised to the ceiling.
    budget_ok:
        Whether ``Σ x̃ ≤ (9/5)·Σ x`` (Lemma 3.3; always true by
        construction, re-checked defensively).
    """

    x_tilde: np.ndarray
    topmost: list[int]
    rounded_up: list[int]
    budget_ok: bool

    @property
    def total(self) -> int:
        return int(self.x_tilde.sum())


def round_solution(
    forest: WindowForest, x: np.ndarray, topmost: list[int]
) -> RoundingResult:
    """Run Algorithm 1 on a transformed solution.

    ``x`` must satisfy the Lemma 3.1 invariant; ``topmost`` is its set
    ``I``.  Fractional values occur only on ``I`` (integral elsewhere).
    """
    pre, tin, tout = forest.preorder, forest.tin, forest.tout
    tops = set(topmost)
    xv = x.tolist()
    x_init = [
        _floor_on_I(v) if i in tops else _integral_off_I(v, i) for i, v in enumerate(xv)
    ]
    # Subtree i is the range tin[i]:tout[i] of the preorder-ordered copies.
    # x's range holds the same elements in the same order as x[Des(i)], so
    # its sum is bit-identical to one over Des(i); x̃ is integral, so any
    # order sums it exactly.
    xp = x[pre]
    xtp = [x_init[i] for i in pre]
    # The I-nodes not yet rounded up, by preorder position: those whose
    # floor is below x.  A round-up at i takes the first one in i's range.
    open_tops = sorted(tin[i] for i in tops if x_init[i] < xv[i] - EPS)

    rounded_up: list[int] = []
    # Bottom-to-top = postorder, over the nodes of Anc(I) that still have
    # an I-node to round up below them (the others cannot round up).
    for i in forest.postorder:
        lo, hi = tin[i], tout[i]
        k = bisect_left(open_tops, lo)
        if k == len(open_tops) or open_tops[k] >= hi:
            continue
        x_sum = float(xp[lo:hi].sum())
        while APPROX_FACTOR * x_sum >= sum(xtp[lo:hi]) + 1.0 - SUM_EPS:
            t = open_tops.pop(k)
            xtp[t] = float(ceil(xv[pre[t]] - EPS))
            rounded_up.append(pre[t])
            if k == len(open_tops) or open_tops[k] >= hi:
                break
    x_tilde = np.empty(forest.m)
    x_tilde[pre] = xtp

    budget_ok = float(x_tilde.sum()) <= APPROX_FACTOR * float(x.sum()) + SUM_EPS
    return RoundingResult(
        x_tilde=x_tilde,
        topmost=list(topmost),
        rounded_up=rounded_up,
        budget_ok=budget_ok,
    )


def classify_topmost(
    forest: WindowForest, x: np.ndarray, x_tilde: np.ndarray, topmost: list[int]
) -> dict[int, str]:
    """Type each ``I``-node per Section 4.2: ``B``, ``C1`` or ``C2``.

    * type-B:   ``x(Des(i)) ∈ {1} ∪ [4/3, ∞)``
    * type-C:   ``x(Des(i)) ∈ (1, 4/3)``; split by the rounded subtree sum
      ``x̃(Des(i))``: C1 has ``x̃(Des(i)) = 1``, C2 has ``x̃(Des(i)) = 2``
      (Section 4.2 — these are the only two values Algorithm 1 can
      produce on a type-C subtree).  Any other value means the rounding
      ran on corrupted data, so it raises :class:`IntegralityError`
      instead of guessing a side.
    """
    types: dict[int, str] = {}
    for i in topmost:
        des = forest.descendants(i)
        xs = float(x[des].sum())
        if abs(xs - 1.0) <= SUM_EPS or xs >= 4.0 / 3.0 - SUM_EPS:
            types[i] = "B"
        else:
            xt = float(x_tilde[des].sum())
            if abs(xt - 1.0) <= SUM_EPS:
                types[i] = "C1"
            elif abs(xt - 2.0) <= SUM_EPS:
                types[i] = "C2"
            else:
                raise IntegralityError(
                    f"type-C node {i}: x̃(Des(i)) = {xt!r} but Section 4.2 "
                    f"allows only 1 (C1) or 2 (C2) when x(Des(i)) = {xs!r} "
                    "∈ (1, 4/3) — the rounded solution is off-spec",
                    node=i,
                    value=xt,
                )
    return types
