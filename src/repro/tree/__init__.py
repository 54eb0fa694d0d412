"""Laminar window forests: construction, queries, canonicalization."""

from repro.tree.canonical import CanonicalInstance, canonicalize, is_canonical
from repro.tree.laminar import build_forest
from repro.tree.node import WindowForest
from repro.tree.render import forest_stats, render_forest

__all__ = [
    "WindowForest",
    "build_forest",
    "canonicalize",
    "is_canonical",
    "CanonicalInstance",
    "render_forest",
    "forest_stats",
]
