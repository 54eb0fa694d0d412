"""Unit and differential tests for the incremental flow engine.

Covers the three layers of :mod:`repro.flow.incremental`:

* :class:`IncrementalFlow` — capacity rebasing with flow repair on the
  raw network (the invariant: a valid flow of value ``value`` with
  ``flow ≤ capacity`` survives every mutation);
* :class:`ClassFlowProber` and friends — bucket-level probing, the
  prober seam, and the differential cross-check;
* a seeded fuzz sweep that builds the differential prober under the
  real consumers (greedy deactivation + exact search), so every probe
  the algorithms make is checked against the from-scratch reference.
"""

import random
import threading
from pathlib import Path

import pytest

from repro import obs
from repro.baselines.exact import (
    BudgetExceeded,
    class_prober,
    slot_classes,
    solve_exact,
)
from repro.baselines.minimal_feasible import minimal_feasible_slots
from repro.corpus.store import iter_corpus
from repro.flow import incremental
from repro.flow.csr import CSRMaxFlow
from repro.flow.dinic import MaxFlow
from repro.flow.feasibility import all_slots_feasible
from repro.flow.incremental import (
    Buckets,
    ClassFlowProber,
    DynamicFlowProber,
    IncrementalFlow,
    make_prober,
)
from repro.instances.generators import random_laminar
from repro.util.errors import InfeasibleInstanceError
from repro.verify.fuzz import FuzzConfig, run_fuzz, sample_instance
from repro.verify.oracle import verify_instance
from repro.verify.reference import (
    DifferentialFlowProber,
    FlowMismatchError,
    ReferenceFlowProber,
    flow_prober,
    reference_probe,
)


CORPUS = Path(__file__).resolve().parents[1] / "data" / "corpus_smoke"


def _diamond():
    """s=0 → {1,2} → t=3 with unit-ish capacities; returns (engine, ids)."""
    engine = IncrementalFlow(CSRMaxFlow(4), 0, 3)
    ids = {
        "s1": engine.add_edge(0, 1, 2),
        "s2": engine.add_edge(0, 2, 2),
        "1t": engine.add_edge(1, 3, 2),
        "2t": engine.add_edge(2, 3, 2),
    }
    return engine, ids


class TestIncrementalFlow:
    def test_augment_then_value(self):
        engine, _ = _diamond()
        assert engine.augment() == 4
        assert engine.value == 4

    def test_capacity_reflects_mutation(self):
        engine, ids = _diamond()
        assert engine.capacity(ids["1t"]) == 2
        engine.set_capacity(ids["1t"], 5)
        assert engine.capacity(ids["1t"]) == 5

    def test_increase_needs_no_repair(self):
        engine, ids = _diamond()
        engine.augment()
        assert engine.set_capacity(ids["1t"], 7) == 0.0
        assert engine.value == 4  # untouched flow stays valid

    def test_decrease_above_flow_needs_no_repair(self):
        engine, ids = _diamond()
        engine.set_capacity(ids["1t"], 1)  # no flow yet
        assert engine.augment() == 3
        assert engine.set_capacity(ids["s2"], 2) == 0.0

    def test_decrease_below_flow_repairs_exact_excess(self):
        engine, ids = _diamond()
        engine.augment()
        repaired = engine.set_capacity(ids["1t"], 1)
        assert repaired == 1
        assert engine.value == 3
        assert engine.edge_flow(ids["1t"]) == 1

    def test_repair_then_reaugment_finds_new_maximum(self):
        engine, ids = _diamond()
        engine.augment()
        engine.set_capacity(ids["1t"], 0)
        assert engine.value == 2
        assert engine.augment() == 0  # other branch already saturated
        engine.set_capacity(ids["1t"], 2)
        assert engine.augment() == 2
        assert engine.value == 4

    def test_repair_to_zero_drains_everything(self):
        engine = IncrementalFlow(CSRMaxFlow(3), 0, 2)
        e1 = engine.add_edge(0, 1, 5)
        e2 = engine.add_edge(1, 2, 5)
        engine.augment()
        assert engine.value == 5
        assert engine.set_capacity(e2, 0) == 5
        assert engine.value == 0
        assert engine.edge_flow(e1) == 0  # repair rippled back to source

    def test_repair_reroutes_through_other_branch(self):
        # After draining one branch the other must still accept flow.
        engine, ids = _diamond()
        engine.augment()
        engine.set_capacity(ids["s1"], 0)
        engine.set_capacity(ids["2t"], 4)
        engine.set_capacity(ids["s2"], 4)
        engine.augment()
        assert engine.value == 4
        assert engine.edge_flow(ids["s1"]) == 0

    def test_rejects_reverse_edge_id(self):
        engine, ids = _diamond()
        with pytest.raises(ValueError, match="reverse edge"):
            engine.set_capacity(ids["s1"] + 1, 3)
        with pytest.raises(ValueError, match="reverse edge"):
            engine.capacity(ids["s1"] + 1)

    def test_rejects_negative_capacity(self):
        engine, ids = _diamond()
        with pytest.raises(ValueError, match="negative"):
            engine.set_capacity(ids["s1"], -1)

    def test_stats_count_repairs_and_augmentation(self):
        with obs.scope() as counted:
            engine, ids = _diamond()
            engine.augment()
            engine.set_capacity(ids["1t"], 0)
            engine.augment()
        delta = counted["flow"]
        assert delta["networks_built"] == 1
        assert delta["units_repaired"] == 2
        assert delta["units_augmented"] == 4
        assert delta["augmenting_paths"] >= 2


class TestDynamicFlowProber:
    def test_arrival_open_probe_cycle(self):
        prober = DynamicFlowProber(2, 0, 4)
        prober.add_job(0, 2, 0, 4)
        assert not prober.probe()  # no slots open yet
        prober.set_open(1, True)
        prober.set_open(2, True)
        assert prober.probe()
        assert prober.job_slots(0) == [1, 2]
        assert prober.slot_jobs(1) == [0]

    def test_remove_job_detaches_and_refeasibilizes(self):
        prober = DynamicFlowProber(1, 0, 4)
        prober.add_job(0, 2, 0, 2)
        prober.add_job(1, 2, 0, 2)
        prober.set_open(0, True)
        prober.set_open(1, True)
        assert not prober.probe()  # 4 units into 2 unit-capacity slots
        prober.remove_job(1)
        assert prober.probe()
        assert prober.jobs() == [0]
        assert prober.total == 2

    def test_commit_slot_preserves_value_equals_total(self):
        prober = DynamicFlowProber(1, 0, 4)
        prober.add_job(0, 2, 0, 4)
        prober.set_open(0, True)
        prober.set_open(1, True)
        assert prober.probe()
        assert prober.commit_slot(0) == [0]
        # No re-augmentation should be needed: the runner's volume came
        # off the source side in lock-step with the slot closing.
        assert prober.engine.value == prober.total == 1
        assert prober.remaining(0) == 1
        assert prober.probe()

    def test_committed_slot_is_frozen(self):
        prober = DynamicFlowProber(1, 0, 3)
        prober.add_job(0, 1, 0, 3)
        prober.set_open(0, True)
        assert prober.probe()
        prober.commit_slot(0)
        with pytest.raises(ValueError, match="committed"):
            prober.set_open(0, True)
        with pytest.raises(ValueError, match="already committed"):
            prober.commit_slot(0)
        # A later arrival overlapping the frozen slot only gets edges to
        # the live future slots.
        prober.add_job(1, 1, 0, 3)
        prober.set_open(1, True)
        assert prober.probe()
        assert prober.job_slots(1) == [1]

    def test_window_slip_repairs_stranded_flow(self):
        prober = DynamicFlowProber(1, 0, 8)
        prober.add_job(0, 2, 0, 4)
        prober.set_open(0, True)
        prober.set_open(1, True)
        assert prober.probe()
        prober.set_window(0, 4, 8)  # both planned slots now outside
        assert not prober.probe()
        prober.set_open(4, True)
        prober.set_open(5, True)
        assert prober.probe()
        assert prober.job_slots(0) == [4, 5]
        assert prober.window(0) == (4, 8)

    def test_guards(self):
        with pytest.raises(ValueError, match="capacity g"):
            DynamicFlowProber(0, 0, 4)
        prober = DynamicFlowProber(1, 2, 4)
        with pytest.raises(ValueError, match="precedes"):
            prober.set_open(1, True)
        prober.add_job(0, 1, 2, 4)
        with pytest.raises(ValueError, match="already present"):
            prober.add_job(0, 1, 2, 4)
        with pytest.raises(ValueError, match="negative remaining"):
            prober.set_remaining(0, -1)


class TestBackendSelection:
    def test_default_backend(self):
        assert type(make_prober([1], [[0]], 1)) is ClassFlowProber

    def test_flow_prober_scope_restores_default(self):
        with flow_prober(ReferenceFlowProber):
            assert type(make_prober([1], [[0]], 1)) is ReferenceFlowProber
            with flow_prober(DifferentialFlowProber):
                assert isinstance(
                    make_prober([1], [[0]], 1), DifferentialFlowProber
                )
            assert type(make_prober([1], [[0]], 1)) is ReferenceFlowProber
        assert type(make_prober([1], [[0]], 1)) is ClassFlowProber

    def test_cross_checked_fuzz_does_not_leak_into_other_threads(self):
        """A campaign's cross-check scope stays in the campaign's thread.

        Thread A runs a cross-checked ``run_fuzz`` whose oracle blocks
        mid-campaign; meanwhile this thread builds a prober and must get
        the production :class:`ClassFlowProber`.
        """
        entered = threading.Event()
        release = threading.Event()
        seen: list[type] = []

        def blocking_verify(instance, **kwargs):
            seen.append(type(class_prober(instance, slot_classes(instance))))
            entered.set()
            assert release.wait(timeout=30)
            return verify_instance(instance, **kwargs)

        config = FuzzConfig(
            n_instances=1, seed=3, family="laminar", max_jobs=5,
            cross_check_flow=True,
        )
        campaign = threading.Thread(
            target=run_fuzz, args=(config,), kwargs={"verify": blocking_verify}
        )
        campaign.start()
        try:
            assert entered.wait(timeout=30)
            instance = random_laminar(6, 2, seed=1)
            prober = class_prober(instance, slot_classes(instance))
        finally:
            release.set()
            campaign.join(timeout=60)
        assert not campaign.is_alive()
        assert seen == [DifferentialFlowProber]
        assert type(prober) is ClassFlowProber

    def test_render_flow_stats_mentions_counters(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "inst.json")
        assert main(["--stats", "generate", path, "--jobs", "4"]) == 0
        text = capsys.readouterr().out.split("flow engine stats", 1)[1]
        assert "probes" in text and "repaired" in text


class TestClassFlowProber:
    # Two jobs (p=2, p=3) over buckets {0}, {0,1}, g=2.
    P = [2, 3]
    BUCKETS = [[0], [0, 1]]
    G = 2

    def _probers(self):
        inc = ClassFlowProber(self.P, self.BUCKETS, self.G)
        ref = ReferenceFlowProber(self.P, self.BUCKETS, self.G)
        return inc, ref

    @pytest.mark.parametrize(
        "counts",
        [(0, 0), (1, 1), (2, 1), (0, 3), (2, 3), (5, 5), (1, 0), (-1, 3)],
    )
    def test_matches_reference_per_vector(self, counts):
        inc, ref = self._probers()
        assert inc.probe(counts) == ref.probe(counts)

    def test_matches_reference_across_sequences(self):
        # The interesting case: warm-started probes after ups and downs.
        inc, ref = self._probers()
        sequence = [(2, 3), (2, 2), (1, 2), (2, 2), (0, 2), (3, 3), (0, 0)]
        for counts in sequence:
            assert inc.probe(counts) == ref.probe(counts), counts

    def test_counts_length_validated(self):
        inc, _ = self._probers()
        with pytest.raises(ValueError, match="bucket counts"):
            inc.probe((1, 2, 3))

    def test_warm_probes_counted_as_rebuilds_avoided(self):
        inc, _ = self._probers()
        with obs.scope() as counted:
            inc.probe((2, 3))
            inc.probe((1, 3))
            inc.probe((1, 2))
        delta = counted["flow"]
        assert delta["probes"] == 3
        assert delta["rebuilds_avoided"] == 2  # first probe builds

    def test_differential_prober_agrees_silently(self):
        diff = DifferentialFlowProber(self.P, self.BUCKETS, self.G)
        for counts in [(2, 3), (1, 1), (0, 3)]:
            diff.probe(counts)
        assert diff.probes == 3

    def test_differential_prober_raises_on_disagreement(self, monkeypatch):
        diff = DifferentialFlowProber(self.P, self.BUCKETS, self.G)
        monkeypatch.setattr(
            type(diff.reference), "probe", lambda self, counts: False
        )
        with pytest.raises(FlowMismatchError) as exc:
            diff.probe((2, 3))  # genuinely feasible → incremental says True
        assert exc.value.counts == (2, 3)
        assert exc.value.incremental is True
        assert exc.value.reference is False

    def test_reference_probe_ignores_empty_buckets(self):
        # counts <= 0 contribute no edges at all in the reference
        # semantics; the incremental path must agree on that boundary.
        assert reference_probe([1], [[0], [0]], 1, [0, 1])
        assert not reference_probe([1], [[0], [0]], 1, [0, 0])


def _sweep_instances(per_family: int):
    for family in ("laminar", "general", "tight"):
        config = FuzzConfig(
            n_instances=per_family, seed=2022, family=family, max_jobs=9
        )
        for index in range(per_family):
            yield sample_instance(config, index)


class TestDifferentialSweep:
    def test_consumers_agree_with_reference_on_every_probe(self):
        """Greedy + exact under the differential prober: any verdict
        disagreement between the engines raises FlowMismatchError."""
        cross_checked = 0

        class CountingProber(DifferentialFlowProber):
            def probe(self, counts):
                nonlocal cross_checked
                cross_checked += 1
                return super().probe(counts)

        checked = 0
        with obs.scope() as counted, flow_prober(CountingProber):
            for instance in _sweep_instances(40):
                try:
                    minimal_feasible_slots(instance, order="densest_first")
                    if instance.n <= 7:
                        solve_exact(instance, node_budget=500)
                except (InfeasibleInstanceError, BudgetExceeded):
                    pass
                checked += 1
        delta = counted["flow"]
        assert checked == 120
        assert delta["probes"] > 500
        assert cross_checked == delta["probes"]  # every one cross-checked

    def test_greedy_slots_identical_across_backends(self):
        for instance in _sweep_instances(10):
            results = {}
            for backend in (ClassFlowProber, ReferenceFlowProber):
                with flow_prober(backend):
                    try:
                        results[backend] = minimal_feasible_slots(
                            instance, order="right_to_left"
                        )
                    except InfeasibleInstanceError:
                        results[backend] = "infeasible"
            assert results[ClassFlowProber] == results[ReferenceFlowProber]

    def test_exact_outcome_identical_across_backends(self):
        for instance in _sweep_instances(6):
            if instance.n > 8:
                continue
            outcomes = {}
            for backend in (ClassFlowProber, ReferenceFlowProber):
                with flow_prober(backend):
                    try:
                        result = solve_exact(instance, node_budget=5000)
                        outcomes[backend] = (
                            result.optimum, result.nodes_explored
                        )
                    except BudgetExceeded:
                        outcomes[backend] = "budget"
                    except InfeasibleInstanceError:
                        outcomes[backend] = "infeasible"
            assert outcomes[ClassFlowProber] == outcomes[ReferenceFlowProber]


def _bucket_network(rng):
    """Random jobs over random (possibly empty) buckets."""
    n_jobs = rng.randint(1, 8)
    processings = [rng.randint(0, 5) for _ in range(n_jobs)]
    buckets = [
        sorted(rng.sample(range(n_jobs), rng.randint(0, n_jobs)))
        for _ in range(rng.randint(1, 6))
    ]
    return processings, buckets, rng.randint(1, 3)


def _counts(rng, buckets):
    return [rng.choice((-1, 0, 0, 1, 2, 3, 6)) for _ in buckets]


def _state(prober):
    net = prober.engine.net
    return (
        list(net._initial_cap),
        list(net.cap),
        prober.engine.value,
        prober._room,
        prober._deficient,
        prober._sink_total,
        prober._counts,
    )


class TestBulkColdProbe:
    """The first probe writes every capacity in one bulk step; it must
    leave exactly the state the per-edge ``set_capacity`` path leaves."""

    def test_bulk_write_matches_per_edge_path(self):
        for seed in range(300):
            rng = random.Random(seed)
            processings, buckets, g = _bucket_network(rng)
            counts = _counts(rng, buckets)
            bulk = ClassFlowProber(processings, buckets, g)
            per_edge = ClassFlowProber(processings, buckets, g)
            # A flow-free all-zero first probe, so the second one takes
            # the per-edge path.
            per_edge.probe([0] * len(buckets))
            assert per_edge.engine.value == 0
            verdict = bulk.probe(counts)
            assert per_edge.probe(counts) == verdict
            assert verdict == reference_probe(processings, buckets, g, counts)
            assert _state(bulk) == _state(per_edge), seed

    def test_warm_probes_after_a_bulk_cold_probe(self):
        for seed in range(200):
            rng = random.Random(seed)
            processings, buckets, g = _bucket_network(rng)
            bulk = ClassFlowProber(processings, buckets, g)
            per_edge = ClassFlowProber(processings, buckets, g)
            per_edge.probe([0] * len(buckets))
            for _ in range(8):
                counts = _counts(rng, buckets)
                verdict = bulk.probe(counts)
                assert verdict == reference_probe(
                    processings, buckets, g, counts
                )
                assert per_edge.probe(counts) == verdict
                assert _state(bulk) == _state(per_edge), (seed, counts)

    def test_every_probe_leaves_a_valid_flow_at_the_counts(self):
        """Raised buckets are rebased without ``set_capacity``: each
        probe must still leave every arc at its count's capacity and a
        valid flow of value ``engine.value``."""
        for seed in range(150):
            rng = random.Random(seed)
            processings, buckets, g = _bucket_network(rng)
            prober = ClassFlowProber(processings, buckets, g)
            engine = prober.engine
            for _ in range(8):
                counts = _counts(rng, buckets)
                prober.probe(counts)
                want = list(processings)
                for bucket, c in zip(buckets, counts):
                    want += [max(0, c)] * len(bucket) + [g * max(0, c)]
                net = engine.net
                icap, cap, to = (list(a) for a in (net._initial_cap, net.cap, net.to))
                assert icap[0::2] == want, (seed, counts)
                balance = [0.0] * net.n
                for eid in range(0, len(to), 2):
                    flow = icap[eid] - cap[eid]
                    assert 0 <= flow <= icap[eid] and cap[eid + 1] == flow
                    balance[to[eid]] += flow
                    balance[to[eid + 1]] -= flow
                assert balance[engine.sink] == engine.value == -balance[engine.source]
                inner = set(range(net.n)) - {engine.source, engine.sink}
                assert all(balance[v] == 0 for v in inner), (seed, counts)

    def test_warm_probes_under_the_differential_prober(self):
        with flow_prober(DifferentialFlowProber):
            for seed in range(200):
                rng = random.Random(seed)
                processings, buckets, g = _bucket_network(rng)
                prober = make_prober(processings, buckets, g)
                assert isinstance(prober, DifferentialFlowProber)
                for _ in range(8):
                    prober.probe(_counts(rng, buckets))  # raises on mismatch
                assert prober.probes == 8

    def test_edges_laid_out_like_the_per_bucket_loop(self):
        for seed in range(100):
            processings, buckets, g = _bucket_network(random.Random(seed))
            n_jobs, sink = len(processings), len(processings) + len(buckets) + 1
            ref = CSRMaxFlow(sink + 1)
            for k, p in enumerate(processings):
                ref.add_edge(sink - 1, k, p)
            for ci, bucket in enumerate(buckets):
                for k in bucket:
                    ref.add_edge(k, n_jobs + ci, 0)
                ref.add_edge(n_jobs + ci, sink, 0)
            net = ClassFlowProber(processings, buckets, g).engine.net
            arcs = n_jobs + sum(map(len, buckets)) + len(buckets)
            small = arcs < incremental.SMALL_NETWORK_ARCS
            assert type(net) is (MaxFlow if small else CSRMaxFlow)
            assert list(net.to) == ref.to.tolist()
            assert list(net._initial_cap) == ref._initial_cap.tolist()

    def test_bulk_write_refuses_a_network_with_flow(self):
        engine, ids = _diamond()
        engine.set_capacities([ids["s1"], ids["1t"]], [1, 1])
        assert engine.capacity(ids["s1"]) == 1
        assert engine.augment() == 3  # 1 via node 1, 2 via node 2
        with pytest.raises(ValueError, match="flow-free"):
            engine.set_capacities([ids["s2"]], [1])


class TestListLayout:
    """A prober below the size rule lays out its arcs from the bucket
    lists and takes its first probe bucket by bucket; it must leave the
    arcs, capacities and cut bookkeeping of the array layout's bulk
    write."""

    def test_first_probe_matches_the_array_layout(self, monkeypatch):
        for seed in range(200):
            rng = random.Random(seed)
            processings, buckets, g = _bucket_network(rng)
            counts = _counts(rng, buckets)
            monkeypatch.setattr(incremental, "SMALL_NETWORK_ARCS", 10**9)
            small = ClassFlowProber(processings, buckets, g)
            monkeypatch.setattr(incremental, "SMALL_NETWORK_ARCS", 0)
            bulk = ClassFlowProber(processings, Buckets.of(buckets), g)
            assert type(small.engine.net) is MaxFlow
            assert type(bulk.engine.net) is CSRMaxFlow
            assert small.probe(counts) == bulk.probe(counts)
            assert list(small.engine.net.to) == bulk.engine.net.to.tolist()
            assert (
                list(small.engine.net._initial_cap)
                == bulk.engine.net._initial_cap.tolist()
            ), seed
            assert _state(small)[2:] == _state(bulk)[2:], seed

    def test_buckets_object_and_lists_lay_out_alike(self):
        for seed in range(100):
            processings, buckets, g = _bucket_network(random.Random(seed))
            nets = [
                ClassFlowProber(processings, form, g).engine.net
                for form in (buckets, Buckets.of(buckets))
            ]
            assert all(type(net) is MaxFlow for net in nets)
            assert nets[0].to == nets[1].to
            assert nets[0].head == nets[1].head
            assert nets[0]._initial_cap == nets[1]._initial_cap


# The randomized prober-vs-reference tests once more on each kernel: the
# size rule puts every network of the classes above on the object
# kernel, and forcing CSR keeps its repair path covered on small networks.


@pytest.mark.usefixtures("each_kernel")
class TestClassFlowProberOnEachKernel(TestClassFlowProber):
    def test_kernel_is_forced(self, each_kernel):
        inc, _ = self._probers()
        assert type(inc.engine.net) is each_kernel


@pytest.mark.usefixtures("each_kernel")
class TestDifferentialSweepOnEachKernel(TestDifferentialSweep):
    pass


@pytest.mark.usefixtures("each_kernel")
class TestBulkColdProbeOnEachKernel(TestBulkColdProbe):
    pass


ORDERS = ("given", "left_to_right", "right_to_left", "densest_first", "sparsest_first")


def _consumer_outputs(instance, order):
    """Every prober consumer's output on one instance."""
    out = [all_slots_feasible(instance)]
    try:
        out.append(minimal_feasible_slots(instance, order=order))
    except InfeasibleInstanceError:
        out.append("infeasible")
    if instance.n <= 8:
        try:
            result = solve_exact(instance, node_budget=20_000)
            out.append((result.optimum, result.slots, result.nodes_explored))
        except (BudgetExceeded, InfeasibleInstanceError) as exc:
            out.append(type(exc).__name__)
    return out


class TestKernelIdentityOnCorpus:
    """The kernel changes flows, never verdicts: every consumer returns
    the same on the smoke corpus whichever kernel its probers run on.
    Greedy takes the five orders in turn, 90 instances each."""

    def test_consumers_identical_across_kernels(self, monkeypatch):
        outputs = {}
        for limit in (0, 10**9):
            monkeypatch.setattr(incremental, "SMALL_NETWORK_ARCS", limit)
            outputs[limit] = [
                _consumer_outputs(entry.instance(), ORDERS[k % len(ORDERS)])
                for k, entry in enumerate(iter_corpus(CORPUS))
            ]
        assert len(outputs[0]) == 450
        assert outputs[0] == outputs[10**9]
