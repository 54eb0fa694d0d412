"""Unit tests for the forest pretty-printer and stats."""

from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance
from repro.tree.canonical import canonicalize
from repro.tree.laminar import build_forest
from repro.tree.render import forest_stats, render_forest


class TestRenderForest:
    def test_three_level_structure(self):
        inst = Instance.from_triples(
            [(0, 10, 2), (0, 4, 1), (5, 9, 2), (1, 3, 1)], g=2
        )
        forest, _ = build_forest(inst)
        text = render_forest(forest)
        lines = text.splitlines()
        assert lines[0].startswith("[0,10)")
        assert any("├──" in l for l in lines)
        assert any("└──" in l for l in lines)
        assert text.count("jobs=") == forest.m

    def test_multiple_roots_separated_by_blank_line(self):
        inst = Instance.from_triples([(0, 2, 1), (5, 7, 1)], g=1)
        forest, _ = build_forest(inst)
        assert "\n\n" in render_forest(forest)

    def test_virtual_nodes_labeled(self):
        inst = Instance.from_triples(
            [(0, 9, 1), (0, 3, 1), (3, 6, 1), (6, 9, 1)], g=2
        )
        canon = canonicalize(inst)
        assert "virtual" in render_forest(canon.forest)

    def test_annotation_hook(self):
        inst = Instance.from_triples([(0, 3, 1)], g=1)
        forest, _ = build_forest(inst)
        text = render_forest(forest, annotate=lambda i: f"tag{i}")
        assert "tag0" in text

    def test_lengths_shown(self):
        inst = Instance.from_triples([(0, 5, 2)], g=1)
        forest, _ = build_forest(inst)
        assert "L=5" in render_forest(forest)


class TestForestStats:
    def test_counts(self):
        inst = random_laminar(12, 3, horizon=26, seed=5)
        canon = canonicalize(inst)
        stats = forest_stats(canon.forest)
        assert stats["nodes"] == canon.forest.m
        assert stats["leaves"] == len(canon.forest.leaves())
        assert stats["max_depth"] >= 0
        assert stats["total_length"] == sum(
            canon.forest.length[i] for i in range(canon.forest.m)
        )

    def test_virtual_count(self):
        inst = Instance.from_triples(
            [(0, 9, 1), (0, 3, 1), (3, 6, 1), (6, 9, 1)], g=2
        )
        canon = canonicalize(inst)
        stats = forest_stats(canon.forest)
        assert stats["virtual"] >= 1
