"""Unit tests for flow-based feasibility (slot, segment and Lemma 4.1 level)."""

import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.corpus.store import iter_corpus
from repro.flow import feasibility, incremental
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.feasibility import (
    _node_buckets,
    all_slots_feasible,
    coverage_segments,
    extract_schedule,
    node_assignment,
    node_feasible,
    node_prober,
    slot_feasible,
)
from repro.flow.incremental import Buckets, ClassFlowProber
from repro.instances.generators import random_laminar
from repro.instances.jobs import Instance, Job
from repro.tree.canonical import canonicalize
from repro.tree.laminar import build_forest
from repro.verify.reference import (
    ReferenceFlowProber,
    flow_prober,
    reference_slot_feasible,
)


class TestSlotFeasibility:
    def test_trivially_feasible(self, tiny_instance):
        assert slot_feasible(tiny_instance, [0, 1, 2, 3])

    def test_too_few_slots(self, tiny_instance):
        # Volume 4, g=2 → one slot holds at most 2 units.
        assert not slot_feasible(tiny_instance, [0])

    def test_respects_windows(self):
        inst = Instance.from_triples([(0, 2, 1)], g=1)
        assert not slot_feasible(inst, [5])
        assert slot_feasible(inst, [1])

    def test_capacity_binds(self):
        inst = Instance.from_triples([(0, 2, 1)] * 3, g=2)
        assert not slot_feasible(inst, [0])
        assert slot_feasible(inst, [0, 1])

    def test_empty_instance(self):
        # No jobs: any slot set works, including none.
        inst = Instance.from_triples([(0, 2, 1)], g=1).with_jobs([])
        assert slot_feasible(inst, [])

    def test_all_slots_feasible_detects_overload(self):
        inst = Instance.from_triples([(0, 1, 1)] * 3, g=2)
        assert not all_slots_feasible(inst)

    def test_slots_outside_windows_ignored(self, tiny_instance):
        assert slot_feasible(tiny_instance, [0, 2, 50, 60])


def _laminar_windows(rng, start, end, depth):
    """A random laminar window family inside ``[start, end)``."""
    out = [(start, end)]
    t = start
    while depth and t < end and rng.random() < 0.7:
        lo = rng.randint(t, end - 1)
        hi = rng.randint(lo + 1, end)
        if (lo, hi) != (start, end):
            out += _laminar_windows(rng, lo, hi, depth - 1)
        t = hi + rng.randint(0, 2)
    return out


def _raw_instance(rng, laminar):
    """Unfiltered random instance: often infeasible, sometimes gapped."""
    horizon = rng.randint(1, 24)
    windows = _laminar_windows(rng, 0, horizon, depth=3)
    jobs = []
    for k in range(rng.randint(1, 8)):
        if laminar:
            lo, hi = rng.choice(windows)
        else:
            lo = rng.randrange(horizon)
            hi = rng.randint(lo + 1, horizon)
        jobs.append(Job(k, lo, hi, rng.randint(1, hi - lo)))
    return Instance(jobs=tuple(jobs), g=rng.randint(1, 3))


def _segment_list(segments):
    """``coverage_segments``' arrays as ``(start, end, members)`` tuples."""
    starts, ends, buckets = segments
    assert buckets.ptr.tolist()[0] == 0 and len(buckets) == len(starts)
    return list(zip(starts.tolist(), ends.tolist(), buckets))


def _per_job_segments(instance):
    """The per-(job, segment) loop the array build must match."""
    jobs = instance.jobs
    cuts = sorted({j.release for j in jobs} | {j.deadline for j in jobs})
    index = {c: k for k, c in enumerate(cuts)}
    covering = [[] for _ in cuts[1:]]
    for pos, job in enumerate(jobs):
        for k in range(index[job.release], index[job.deadline]):
            covering[k].append(pos)
    return [
        (cuts[k], cuts[k + 1], members)
        for k, members in enumerate(covering)
        if members
    ]


def _oracle(instance):
    """The per-slot network with every slot of the horizon active."""
    return reference_slot_feasible(instance, list(instance.slots()))


class TestAllSlotsFeasible:
    """The segment-level precheck against the slot-level oracle."""

    def test_matches_slot_oracle_on_random_instances(self):
        rng = random.Random(2022)
        verdicts = {True: 0, False: 0}
        crossing = 0
        for k in range(400):
            inst = _raw_instance(rng, laminar=k % 2 == 0)
            crossing += not inst.is_laminar
            expected = _oracle(inst)
            assert all_slots_feasible(inst) == expected, inst.jobs
            verdicts[expected] += 1
        assert crossing >= 100
        assert verdicts[False] >= 100 and verdicts[True] >= 100

    @pytest.mark.parametrize(
        "triples, g",
        [
            ([(3, 4, 1)], 1),  # one window of length 1
            ([(3, 4, 1), (3, 4, 1)], 1),  # duplicate unit windows overload
            ([(3, 4, 1), (3, 4, 1)], 2),
            ([(0, 2, 2), (5, 7, 2), (9, 10, 1)], 1),  # uncovered gaps
            ([(0, 2, 2), (5, 7, 2), (1, 6, 1)], 1),  # gap-bridging window
            ([(0, 4, 2)] * 3, 1),  # duplicate windows, g = 1
            ([(0, 4, 2)] * 2, 1),
            ([(0, 3, 2), (2, 5, 2), (1, 4, 2)], 1),  # crossing, g = 1
        ],
    )
    def test_edge_cases_match_slot_oracle(self, triples, g):
        inst = Instance.from_triples(triples, g=g)
        assert all_slots_feasible(inst) == _oracle(inst)

    def test_zero_jobs(self):
        inst = Instance(jobs=(), g=1)
        assert _segment_list(coverage_segments(inst)) == []
        assert all_slots_feasible(inst) is True
        assert _oracle(inst) is True

    def test_segments_skip_gaps_and_list_covering_jobs(self):
        inst = Instance.from_triples([(0, 4, 1), (2, 6, 1), (9, 10, 1)], g=1)
        assert _segment_list(coverage_segments(inst)) == [
            (0, 2, [0]),
            (2, 4, [0, 1]),
            (4, 6, [1]),
            (9, 10, [2]),
        ]

    def test_segments_match_the_per_job_loop(self):
        rng = random.Random(7)
        for k in range(300):
            inst = _raw_instance(rng, laminar=k % 2 == 0)
            assert _segment_list(coverage_segments(inst)) == _per_job_segments(
                inst
            ), inst.jobs
        for seed in range(20):
            inst = random_laminar(30, 2, horizon=200, seed=seed)
            assert _segment_list(coverage_segments(inst)) == _per_job_segments(
                inst
            )

    def test_huge_horizon_in_bounded_memory(self):
        inst = Instance(
            jobs=(Job(0, 0, 10**9, 3), Job(1, 10, 20, 10)), g=1
        )
        all_slots_feasible(Instance.from_triples([(0, 2, 1)], g=1))  # warm
        tracemalloc.start()
        try:
            assert all_slots_feasible(inst) is True
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestExtractSchedule:
    def test_valid_schedule_extracted(self, tiny_instance):
        sched = extract_schedule(tiny_instance, [0, 2])
        assert sched is not None
        assert sched.is_valid
        assert sched.active_time <= 2

    def test_none_on_infeasible(self, tiny_instance):
        assert extract_schedule(tiny_instance, [0]) is None

    def test_schedule_uses_only_given_slots(self, medium_laminar):
        slots = sorted(
            {t for j in medium_laminar.jobs for t in range(j.release, j.deadline)}
        )
        sched = extract_schedule(medium_laminar, slots)
        assert sched is not None
        used = {t for ts in sched.assignment.values() for t in ts}
        assert used <= set(slots)

    def test_matches_per_slot_network_on_random_slot_sets(self):
        """``None`` exactly where the per-slot network finds no full
        flow; otherwise a valid schedule on the given slots only."""
        rng = random.Random(24)
        extracted = 0
        for k in range(400):
            inst = _raw_instance(rng, laminar=k % 2 == 0)
            keep = rng.choice((0.4, 0.7, 1.0))
            slots = [t for t in range(-2, 26) if rng.random() < keep]
            sched = extract_schedule(inst, slots)
            expected = reference_slot_feasible(inst, slots)
            assert (sched is not None) == expected, inst.jobs
            assert slot_feasible(inst, slots) == expected
            if sched is not None:
                assert sched.is_valid, inst.jobs
                assert set(sched.active_slots) <= set(slots)
                extracted += 1
        assert extracted > 50


class TestNodeFeasibility:
    def _setup(self, seed=0):
        inst = random_laminar(8, 2, horizon=20, seed=seed)
        canon = canonicalize(inst)
        return canon

    def test_full_lengths_always_feasible(self):
        canon = self._setup()
        x = [canon.forest.length[i] for i in range(canon.forest.m)]
        assert node_feasible(canon.instance, canon.forest, canon.job_node, x)

    def test_zero_vector_infeasible(self):
        canon = self._setup()
        x = [0] * canon.forest.m
        assert not node_feasible(canon.instance, canon.forest, canon.job_node, x)

    def test_node_assignment_totals(self):
        canon = self._setup(seed=4)
        x = [canon.forest.length[i] for i in range(canon.forest.m)]
        y = node_assignment(canon.instance, canon.forest, canon.job_node, x)
        assert y is not None
        per_job: dict[int, int] = {}
        for (i, jid), units in y.items():
            per_job[jid] = per_job.get(jid, 0) + units
            assert units <= x[i]
        for job in canon.instance.jobs:
            assert per_job.get(job.id, 0) == job.processing

    def test_node_capacity_respected(self):
        canon = self._setup(seed=7)
        x = [canon.forest.length[i] for i in range(canon.forest.m)]
        y = node_assignment(canon.instance, canon.forest, canon.job_node, x)
        load: dict[int, int] = {}
        for (i, _), units in y.items():
            load[i] = load.get(i, 0) + units
        for i, total in load.items():
            assert total <= canon.instance.g * x[i]

    @pytest.mark.parametrize("seed", range(6))
    def test_node_level_agrees_with_slot_level(self, seed):
        """Interchangeability: per-node counts ⇔ concrete slot choice."""
        canon = self._setup(seed=seed)
        forest = canon.forest
        import random

        rng = random.Random(seed)
        x = [
            rng.randint(0, forest.length[i]) for i in range(forest.m)
        ]
        node_ok = node_feasible(canon.instance, forest, canon.job_node, x)
        slots: list[int] = []
        for i in range(forest.m):
            slots.extend(forest.exclusive_slots(i)[: x[i]])
        slot_ok = reference_slot_feasible(canon.instance, slots)
        assert node_ok == slot_ok


def _forest_cases(count):
    """Random laminar forests (canonical and raw) with random ``x̃``
    vectors, zero entries included."""
    for seed in range(count):
        rng = random.Random(seed)
        inst = random_laminar(
            rng.randint(1, 25),
            rng.randint(1, 4),
            horizon=rng.randint(20, 80),
            unit_fraction=rng.choice((0.0, 0.5)),
            seed=seed,
        )
        canon = canonicalize(inst)
        raw_forest, raw_job_node = build_forest(inst)
        for instance, forest, job_node in (
            (canon.instance, canon.forest, canon.job_node),
            (inst, raw_forest, raw_job_node),
        ):
            m = forest.m
            for x in (
                [0] * m,
                [forest.length[i] for i in range(m)],
                [rng.choice((0, 0, 1, forest.length[i])) for i in range(m)],
            ):
                yield instance, forest, job_node, x


def _per_job_node_buckets(instance, forest, job_node):
    """The per-(job, node) loop the array-built node buckets must match."""
    buckets = [[] for _ in range(forest.m)]
    for k, job in enumerate(instance.jobs):
        for i in forest.descendants(job_node[job.id]):
            buckets[i].append(k)
    return buckets


class TestNodeProberBuckets:
    def test_buckets_match_the_per_job_loop(self):
        seen = []
        cases = 0
        for instance, forest, job_node, x in _forest_cases(40):
            with flow_prober(_Recorder):
                prober = node_prober(instance, forest, job_node)
            assert isinstance(prober.handed, Buckets)  # no per-node lists
            assert prober.buckets == _per_job_node_buckets(
                instance, forest, job_node
            )
            assert prober.processings == [j.processing for j in instance.jobs]
            assert prober.probe(x) == node_feasible(
                instance, forest, job_node, x
            )
            cases += 1
        assert cases == 240

    def test_open_node_buckets_match_the_per_job_loop(self):
        for instance, forest, job_node, x in _forest_cases(40):
            open_mask = np.asarray(x) > 0
            buckets = _node_buckets(instance, forest, job_node, open_mask)
            every = _per_job_node_buckets(instance, forest, job_node)
            assert list(buckets) == [every[i] for i in np.flatnonzero(open_mask)]


class _Recorder(ReferenceFlowProber):
    """Keeps the buckets object it was handed."""

    def __init__(self, processings, buckets, g):
        super().__init__(processings, buckets, g)
        self.handed = buckets


CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"


def _corpus_node_cases():
    """The smoke corpus's laminar instances, canonical, each with every
    node at full length and with a random ``x̃`` (zero entries
    included)."""
    rng = random.Random(26)
    for entry in iter_corpus(CORPUS):
        inst = entry.instance()
        if not inst.is_laminar:
            continue
        canon = canonicalize(inst)
        forest = canon.forest
        m = forest.m
        for x in (
            [forest.length[i] for i in range(m)],
            [rng.choice((0, 1, forest.length[i])) for i in range(m)],
        ):
            yield canon.instance, forest, canon.job_node, x


def _check_node_assignment(instance, forest, job_node, x):
    """``node_assignment``'s verdict and units against Lemma 4.1;
    returns the verdict."""
    y = node_assignment(instance, forest, job_node, x)
    verdict = y is not None
    assert verdict == node_feasible(instance, forest, job_node, x)
    slots = [t for i in range(forest.m) for t in forest.exclusive_slots(i)[: x[i]]]
    assert verdict == reference_slot_feasible(instance, slots)
    if y is None:
        return False
    load = [0] * forest.m
    per_job = {job.id: 0 for job in instance.jobs}
    for (i, jid), units in y.items():
        assert i in forest.descendants(job_node[jid]) and x[i] > 0
        assert type(units) is int and 0 < units <= x[i]
        load[i] += units
        per_job[jid] += units
    assert all(load[i] <= instance.g * x[i] for i in range(forest.m))
    assert per_job == {job.id: job.processing for job in instance.jobs}
    return True


@pytest.mark.usefixtures("each_kernel")
class TestNodeAssignment:
    """``node_assignment`` probes the open-node Lemma 4.1 network on
    either kernel: its verdict is the node and slot networks', and its
    units are a valid integral assignment."""

    def test_random_forests(self):
        verdicts = {True: 0, False: 0}
        for case in _forest_cases(40):
            verdicts[_check_node_assignment(*case)] += 1
        assert verdicts[True] >= 60 and verdicts[False] >= 60

    def test_laminar_corpus(self):
        verdicts = {True: 0, False: 0}
        for case in _corpus_node_cases():
            verdicts[_check_node_assignment(*case)] += 1
        assert sum(verdicts.values()) == 2 * 347
        assert verdicts[True] >= 347 and verdicts[False] >= 50


class _Spy(ClassFlowProber):
    """Keeps every prober ``node_assignment`` builds."""

    built: list = []

    def __init__(self, processings, buckets, g):
        super().__init__(processings, buckets, g)
        self.buckets = buckets
        self.built.append(self)


class TestNodeAssignmentNetwork:
    def _built(self, monkeypatch, instance, x=None):
        canon = canonicalize(instance)
        forest = canon.forest
        if x is None:
            x = [forest.length[i] if i % 2 else 0 for i in range(forest.m)]
        monkeypatch.setattr(feasibility, "ClassFlowProber", _Spy)
        monkeypatch.setattr(_Spy, "built", [])
        node_assignment(canon.instance, forest, canon.job_node, x)
        (prober,) = _Spy.built
        arcs = canon.instance.n + prober.buckets.members.size + len(prober.buckets)
        return prober, arcs, sum(1 for c in x if c > 0)

    def test_small_network_runs_on_the_object_kernel(self, monkeypatch):
        prober, arcs, n_open = self._built(
            monkeypatch, random_laminar(8, 2, horizon=20, seed=3)
        )
        assert arcs < incremental.SMALL_NETWORK_ARCS
        assert type(prober.engine.net) is MaxFlow
        assert len(prober.buckets) == n_open  # open nodes only

    def test_large_network_runs_on_the_csr_kernel(self, monkeypatch):
        windows = [(0, 40), (0, 20), (20, 40), (0, 10), (20, 30)]
        instance = Instance.from_triples(
            [(r, d, 1) for r, d in windows for _ in range(60)], g=8
        )
        prober, arcs, n_open = self._built(monkeypatch, instance)
        assert arcs >= incremental.SMALL_NETWORK_ARCS
        assert type(prober.engine.net) is CSRMaxFlow
        assert len(prober.buckets) == n_open


class TestSharedSegments:
    """``coverage_segments`` is computed once per instance and shared."""

    def test_one_computation_per_instance(self):
        inst = random_laminar(10, 2, horizon=40, seed=3)
        first = coverage_segments(inst)
        assert coverage_segments(inst) is first
        other = Instance(jobs=inst.jobs, g=inst.g, name=inst.name)
        assert coverage_segments(other) is not first

    def test_no_caller_mutates_the_shared_segments(self):
        from repro.verify.fuzz import FuzzConfig, sample_instance
        from repro.verify.oracle import verify_instance

        config = FuzzConfig(n_instances=40, seed=11, family="mixed", max_jobs=10)
        statuses = set()
        for index in range(config.n_instances):
            inst = sample_instance(config, index)
            shared = coverage_segments(inst)
            arrays = (
                shared.starts, shared.ends,
                shared.buckets.members, shared.buckets.ptr,
            )
            assert not any(a.flags.writeable for a in arrays)
            # Precheck, nested or baseline pipeline, greedy, extraction
            # and exact all read the one shared object.
            report = verify_instance(inst, exact_max_jobs=8)
            statuses.add(report.status)
            assert report.violations == []
            assert coverage_segments(inst) is shared
            fresh = feasibility._coverage_segments(inst)
            for a, b in zip(
                arrays,
                (fresh.starts, fresh.ends, fresh.buckets.members, fresh.buckets.ptr),
            ):
                assert np.array_equal(a, b)
        assert "ok" in statuses
