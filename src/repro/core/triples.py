"""Algorithm 2: construction of (C1, C2, C2) triples — analysis artifact.

The triples are *not* part of the solver; the paper uses them only to prove
Theorem 4.5 (feasibility of the rounded solution).  We implement them so
tests and benchmark E8 can check the structural lemmas on real LP runs:

* Lemma 4.9 — when a C1 node is to be covered, two unused C2 nodes exist
  in the same subtree (equivalently ``n2 ≥ 2·n1`` there);
* every triple is (C1, C2, C2), triples are disjoint, and every C1 node is
  covered;
* Lemma 4.11 — each triple satisfies case (a) (both C2 under the C1's
  parent) or case (b) (a C1C2 brother pair plus a C2 under the
  grandparent).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rounding import classify_topmost
from repro.tree.node import WindowForest


@dataclass(frozen=True)
class Triple:
    """One (C1, C2, C2) triple: ``c1`` covered by ``c2a`` and ``c2b``."""

    c1: int
    c2a: int
    c2b: int


@dataclass
class TripleConstruction:
    """Result of Algorithm 2 plus the node typing it was built from."""

    triples: list[Triple]
    types: dict[int, str]
    uncovered_c1: list[int]

    @property
    def complete(self) -> bool:
        """Every C1 node covered (expected whenever ≥3 C nodes exist)."""
        return not self.uncovered_c1


def _brother(forest: WindowForest, i: int) -> int | None:
    p = forest.parent[i]
    if p < 0:
        return None
    siblings = [c for c in forest.children[p] if c != i]
    return siblings[0] if len(siblings) == 1 else None


def build_triples(
    forest: WindowForest,
    x: np.ndarray,
    x_tilde: np.ndarray,
    topmost: list[int],
) -> TripleConstruction:
    """Run Algorithm 2 bottom-to-top over ``Anc(I)``.

    C1C2 brother pairs are kept together: when the uncovered C1 node has a
    C2 brother, that brother is chosen as its first C2 companion.
    """
    types = classify_topmost(forest, x, x_tilde, topmost)
    c1_nodes = {i for i, t in types.items() if t == "C1"}
    c2_nodes = {i for i, t in types.items() if t == "C2"}

    anc_of_i: set[int] = set()
    for i in topmost:
        anc_of_i.update(forest.ancestors(i))

    uncovered = set(c1_nodes)
    unused = set(c2_nodes)
    triples: list[Triple] = []
    # Pre-pair C1C2 brothers so we never break such a pair.
    brother_of: dict[int, int] = {}
    for c1 in c1_nodes:
        b = _brother(forest, c1)
        if b is not None and b in c2_nodes:
            brother_of[c1] = b

    for i in forest.postorder:
        if i not in anc_of_i:
            continue
        des = set(forest.descendants(i))
        if len(des & set(topmost)) < 3:
            continue
        for c1 in sorted(uncovered & des, key=lambda k: -forest.depth[k]):
            picks: list[int] = []
            paired = brother_of.get(c1)
            if paired is not None and paired in unused and paired in des:
                picks.append(paired)
            # Prefer C2 nodes that are nobody's brother-pair partner.
            spoken_for = {
                b for a, b in brother_of.items() if a in uncovered and a != c1
            }
            pool = sorted(
                (unused & des) - set(picks),
                key=lambda k: (k in spoken_for, forest.depth[k]),
            )
            picks.extend(pool[: 2 - len(picks)])
            if len(picks) < 2:
                break  # Lemma 4.9 says this cannot happen; tests assert it
            triples.append(Triple(c1=c1, c2a=picks[0], c2b=picks[1]))
            uncovered.discard(c1)
            unused.difference_update(picks)

    return TripleConstruction(
        triples=triples,
        types=types,
        uncovered_c1=sorted(uncovered),
    )


def lemma_4_11_case(forest: WindowForest, triple: Triple) -> str | None:
    """Classify a triple per Lemma 4.11; ``None`` when neither case holds."""
    p = forest.parent[triple.c1]
    if p >= 0 and all(
        forest.is_ancestor(p, c) and c != p for c in (triple.c2a, triple.c2b)
    ):
        return "a"
    for first, second in ((triple.c2a, triple.c2b), (triple.c2b, triple.c2a)):
        if _brother(forest, triple.c1) == first:
            gp = forest.parent[p] if p >= 0 else -1
            if gp >= 0 and forest.is_ancestor(gp, second) and second != gp:
                return "b"
    return None
