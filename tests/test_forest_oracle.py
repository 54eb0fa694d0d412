"""The array forest against brute-force containment (``tests/oracles.py``).

For every laminar smoke-corpus instance and 200 ``random_laminar`` draws,
the window forest and the canonical forest must have the parent, length,
depth and ``k(j)`` that pairwise containment gives, and the canonical one
must satisfy Definition 2.1.  For crossing families the laminarity
witness must be the pair the interval sweep reported before.  The
push-down and the rounding, which read preorder slices, must match
their first forms (subtree lists, sorts and scans) bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import containment_forest, crossing_pair, reference_push_down, reference_round
from repro.core.rounding import round_solution
from repro.core.transform import push_down
from repro.corpus import iter_corpus
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance
from repro.tree.canonical import canonicalize, is_canonical
from repro.tree.laminar import build_forest
from repro.util.errors import NotLaminarError
from repro.util.intervals import Interval

CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"


def _corpus(laminar: bool) -> list[Instance]:
    return [
        inst
        for inst in (entry.instance() for entry in iter_corpus(CORPUS))
        if inst.is_laminar == laminar
    ]


def _random_draws() -> list[Instance]:
    return [
        random_laminar(
            5 + seed % 36,
            1 + seed % 4,
            horizon=20 + 7 * (seed % 11),
            max_children=2 + seed % 4,
            seed=seed,
        )
        for seed in range(200)
    ]


def _assert_matches_oracle(forest, job_node, instance: Instance) -> None:
    """The forest's lists against containment over its own intervals, and
    ``k(j)`` against the node whose interval is ``j``'s window."""
    intervals = list(zip(forest.start, forest.end))
    assert len(set(intervals)) == len(intervals)
    parent, length, depth = containment_forest(intervals)
    assert forest.parent == parent
    assert forest.length == length
    assert forest.depth == depth
    node_of = {iv: i for i, iv in enumerate(intervals)}
    assert job_node == {j.id: node_of[j.release, j.deadline] for j in instance.jobs}
    for i in range(forest.m):
        assert set(forest.descendants(i)) == {
            k for k in range(forest.m) if forest.is_ancestor(i, k)
        }
        assert forest.jobs[i] == [j.id for j in instance.jobs if job_node[j.id] == i]


def _check(instance: Instance) -> None:
    forest, job_node = build_forest(instance)
    # The window forest's nodes are the distinct windows, outermost first.
    windows = sorted({(j.release, j.deadline) for j in instance.jobs}, key=lambda w: (w[0], -w[1]))
    assert list(zip(forest.start, forest.end)) == windows
    _assert_matches_oracle(forest, job_node, instance)

    canon = canonicalize(instance)
    _assert_matches_oracle(canon.forest, canon.job_node, canon.instance)
    assert is_canonical(canon.forest, {j.id: j for j in canon.instance.jobs})
    # Canonicalization keeps the window nodes and appends the rest.
    assert list(zip(canon.forest.start, canon.forest.end))[: len(windows)] == windows


def test_laminar_corpus_matches_oracle():
    instances = _corpus(laminar=True)
    assert len(instances) == 347
    for inst in instances:
        _check(inst)


@pytest.mark.parametrize("chunk", range(4))
def test_random_laminar_matches_oracle(chunk):
    for inst in _random_draws()[chunk::4]:
        _check(inst)


def _witness(instance: Instance):
    with pytest.raises(NotLaminarError) as err:
        instance.require_laminar()
    return err.value.witness


def _expected_witness(instance: Instance):
    a, b = crossing_pair(Interval(j.release, j.deadline) for j in instance.jobs)
    return (a.start, a.end), (b.start, b.end)


def test_crossing_corpus_witness_matches_oracle():
    instances = _corpus(laminar=False)
    assert instances
    for inst in instances:
        assert not inst.is_laminar
        assert _witness(inst) == _expected_witness(inst)
        with pytest.raises(NotLaminarError):
            canonicalize(inst)


@pytest.mark.parametrize(
    "family",
    [
        [(0, 3), (2, 5)],
        [(0, 10), (1, 5), (4, 9)],
        [(0, 10), (0, 3), (2, 6), (8, 10)],
        [(5, 9), (0, 6), (0, 2)],
    ],
)
def test_crossing_families_witness_matches_oracle(family):
    inst = Instance.from_triples([(r, d, 1) for r, d in family], g=1)
    assert _witness(inst) == _expected_witness(inst)


windows = st.tuples(st.integers(0, 30), st.integers(1, 15)).map(
    lambda t: (t[0], t[0] + t[1], 1)
)


@given(st.lists(windows, min_size=1, max_size=8))
def test_witness_matches_oracle_on_random_families(family):
    inst = Instance.from_triples(family, g=1)
    if crossing_pair(Interval(r, d) for r, d, _ in family) is None:
        assert inst.is_laminar
        inst.require_laminar()
    else:
        assert _witness(inst) == _expected_witness(inst)


# ---------------------------------------------------------------------------
# The push-down and the rounding against their first, object-walking forms
# ---------------------------------------------------------------------------


def _fractional_x(forest, rng, cap: float) -> np.ndarray:
    """Random open-slot counts in ``[0, min(L(i), cap)]``, some zero.  A
    small cap leaves subtree sums near 1, where Algorithm 1's budget
    rounds up some floored I-nodes and not others, so the choice of which
    one is tested."""
    x = rng.random(forest.m) * np.minimum(np.array(forest.length, dtype=float), cap)
    x[rng.random(forest.m) < 0.3] = 0.0
    return x


@pytest.mark.parametrize("seed", range(40))
def test_push_down_and_rounding_match_reference(seed):
    rng = np.random.default_rng(seed)
    inst = random_laminar(
        8 + seed % 30, 1 + seed % 3, horizon=30 + 5 * (seed % 9), max_children=2 + seed % 4, seed=seed
    )
    forest = canonicalize(inst).forest
    x = _fractional_x(forest, rng, cap=(0.4, 1.0, 3.0, np.inf)[seed % 4])

    moved = push_down(forest, x, np.zeros((forest.m, 0)))
    ref_x, ref_top, (src, dst, frac) = reference_push_down(forest, x)
    assert moved.x.tobytes() == ref_x.tobytes()
    assert moved.topmost == ref_top
    assert moved.steps[0].tolist() == src and moved.steps[1].tolist() == dst
    assert moved.steps[2].tolist() == frac

    rounded = round_solution(forest, moved.x, moved.topmost)
    ref_tilde, ref_up = reference_round(forest, moved.x, moved.topmost)
    assert rounded.x_tilde.tobytes() == ref_tilde.tobytes()
    assert rounded.rounded_up == ref_up
