"""ASCII rendering of window forests (for the CLI and debugging).

    [0,10) L=2 jobs=1
    ├── [0,4) L=2 jobs=2 *rigid
    │   └── [0,2) L=2 jobs=1
    └── [5,9) L=4 jobs=1
"""

from __future__ import annotations

from typing import Callable

from repro.tree.node import WindowForest


def render_forest(
    forest: WindowForest,
    *,
    annotate: Callable[[int], str] | None = None,
) -> str:
    """Render the forest as an indented ASCII tree.

    ``annotate(i)`` may add extra per-node text (e.g. LP values).
    """
    lines: list[str] = []

    def describe(i: int) -> str:
        bits = [
            f"[{forest.start[i]},{forest.end[i]})",
            f"L={forest.length[i]}",
            f"jobs={len(forest.jobs[i])}",
        ]
        if i in forest.virtual:
            bits.append("virtual")
        if annotate is not None:
            extra = annotate(i)
            if extra:
                bits.append(extra)
        return " ".join(bits)

    def walk(i: int, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(describe(i))
            child_prefix = ""
        else:
            connector = "└── " if is_last else "├── "
            lines.append(prefix + connector + describe(i))
            child_prefix = prefix + ("    " if is_last else "│   ")
        kids = forest.children[i]
        for k, c in enumerate(kids):
            walk(c, child_prefix, k == len(kids) - 1, False)

    for r, root in enumerate(forest.roots):
        if r > 0:
            lines.append("")
        walk(root, "", True, True)
    return "\n".join(lines)


def forest_stats(forest: WindowForest) -> dict[str, float]:
    """Shape statistics: size, depth, branching, virtual share."""
    m = forest.m
    if m == 0:
        return {"nodes": 0, "leaves": 0, "max_depth": 0, "virtual": 0}
    internal = [len(kids) for kids in forest.children if kids]
    return {
        "nodes": m,
        "leaves": m - len(internal),
        "max_depth": max(forest.depth),
        "virtual": len(forest.virtual),
        "mean_branching": sum(internal) / len(internal) if internal else 0.0,
        "total_length": sum(forest.length),
    }
