"""Unit tests for the Dinic max-flow substrate (cross-checked vs networkx)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flow.dinic import MaxFlow


class TestBasics:
    def test_single_edge(self):
        net = MaxFlow(2)
        net.add_edge(0, 1, 5)
        assert net.max_flow(0, 1) == 5

    def test_series_bottleneck(self):
        net = MaxFlow(3)
        net.add_edge(0, 1, 5)
        net.add_edge(1, 2, 3)
        assert net.max_flow(0, 2) == 3

    def test_parallel_paths_add(self):
        net = MaxFlow(4)
        net.add_edge(0, 1, 2)
        net.add_edge(1, 3, 2)
        net.add_edge(0, 2, 3)
        net.add_edge(2, 3, 3)
        assert net.max_flow(0, 3) == 5

    def test_disconnected_is_zero(self):
        net = MaxFlow(3)
        net.add_edge(0, 1, 4)
        assert net.max_flow(0, 2) == 0

    def test_needs_augmenting_through_back_edge(self):
        # Classic example where a naive greedy path choice must be undone.
        net = MaxFlow(4)
        net.add_edge(0, 1, 1)
        net.add_edge(0, 2, 1)
        net.add_edge(1, 2, 1)
        net.add_edge(1, 3, 1)
        net.add_edge(2, 3, 1)
        assert net.max_flow(0, 3) == 2

    def test_edge_flow_conservation(self):
        net = MaxFlow(4)
        e1 = net.add_edge(0, 1, 2)
        e2 = net.add_edge(1, 2, 2)
        e3 = net.add_edge(2, 3, 2)
        value = net.max_flow(0, 3)
        assert value == 2
        assert net.edge_flow(e1) == net.edge_flow(e2) == net.edge_flow(e3) == 2

    def test_reset_restores_capacity(self):
        net = MaxFlow(2)
        net.add_edge(0, 1, 3)
        assert net.max_flow(0, 1) == 3
        net.reset()
        assert net.max_flow(0, 1) == 3

    def test_min_cut_after_flow(self):
        net = MaxFlow(3)
        cut = net.add_edge(0, 1, 1)
        rest = net.add_edge(1, 2, 10)
        assert net.max_flow(0, 2) == 1
        # The min cut {0} | {1, 2} is the saturated source edge.
        assert net.edge_flow(cut) == 1 and net.cap[cut] == 0
        assert net.edge_flow(rest) == 1 and net.cap[rest] == 9

    def test_rejects_negative_capacity(self):
        net = MaxFlow(2)
        with pytest.raises(ValueError):
            net.add_edge(0, 1, -1)

    def test_rejects_source_equals_sink(self):
        net = MaxFlow(2)
        with pytest.raises(ValueError):
            net.max_flow(1, 1)

    def test_rejects_tiny_network(self):
        with pytest.raises(ValueError):
            MaxFlow(1)


class TestMisuseGuards:
    def test_second_max_flow_without_reset_raises(self):
        net = MaxFlow(2)
        net.add_edge(0, 1, 3)
        assert net.max_flow(0, 1) == 3
        with pytest.raises(RuntimeError, match="already ran"):
            net.max_flow(0, 1)

    def test_reset_allows_second_solve(self):
        net = MaxFlow(3)
        net.add_edge(0, 1, 2)
        net.add_edge(1, 2, 2)
        assert net.max_flow(0, 2) == 2
        net.reset()
        assert net.max_flow(0, 2) == 2

    def test_augment_warm_starts_after_capacity_raise(self):
        # augment() is the explicit warm-start API: after max_flow() the
        # residual network stays valid, so raising a capacity and
        # re-augmenting finds exactly the new headroom.
        net = MaxFlow(3)
        e1 = net.add_edge(0, 1, 2)
        net.add_edge(1, 2, 5)
        assert net.max_flow(0, 2) == 2
        net.cap[e1] += 3  # raw capacity raise, residual stays consistent
        net._initial_cap[e1] += 3
        assert net.augment(0, 2) == 3
        assert net.edge_flow(e1) == 5

    def test_edge_flow_rejects_reverse_edge_id(self):
        net = MaxFlow(2)
        eid = net.add_edge(0, 1, 4)
        net.max_flow(0, 1)
        with pytest.raises(ValueError, match="reverse edge"):
            net.edge_flow(eid + 1)

    def test_drop_edge_detaches_flow_free_edge(self):
        # Two parallel unit paths; cancel one path's flow, drop it, and
        # the network behaves as if that path never existed.
        net = MaxFlow(4)
        a1 = net.add_edge(0, 1, 1)
        a2 = net.add_edge(1, 3, 1)
        net.add_edge(0, 2, 1)
        net.add_edge(2, 3, 1)
        assert net.max_flow(0, 3) == 2
        for eid in (a1, a2):  # cancel flow on the 0→1→3 path by hand
            net.cap[eid] = net._initial_cap[eid]
            net.cap[eid ^ 1] = 0.0
        net.drop_edge(a1)
        net.drop_edge(a2)
        assert all(eid not in net.head[n] for n in range(4) for eid in (a1, a2))
        assert net.augment(0, 3) == 0  # the dropped path is really gone

    def test_drop_edge_refuses_flow_carrying_edge(self):
        net = MaxFlow(2)
        eid = net.add_edge(0, 1, 3)
        net.max_flow(0, 1)
        with pytest.raises(ValueError, match="still carries flow"):
            net.drop_edge(eid)

    def test_drop_edge_rejects_reverse_edge_id(self):
        net = MaxFlow(2)
        eid = net.add_edge(0, 1, 3)
        with pytest.raises(ValueError, match="reverse edge"):
            net.drop_edge(eid + 1)

    def test_drop_edge_keeps_other_edge_ids_valid(self):
        net = MaxFlow(3)
        dead = net.add_edge(0, 1, 1)
        live = net.add_edge(0, 2, 1)
        net.drop_edge(dead)
        assert net.max_flow(0, 2) == 1
        assert net.edge_flow(live) == 1

    def test_augment_paths_counter(self):
        net = MaxFlow(4)
        net.add_edge(0, 1, 1)
        net.add_edge(1, 3, 1)
        net.add_edge(0, 2, 1)
        net.add_edge(2, 3, 1)
        assert net.augment_paths == 0
        net.max_flow(0, 3)
        assert net.augment_paths == 2


@st.composite
def random_networks(draw):
    n = draw(st.integers(3, 8))
    m = draw(st.integers(1, 20))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            draw(st.integers(1, 10)),
        )
        for _ in range(m)
    ]
    return n, [(u, v, c) for u, v, c in edges if u != v]


class TestAgainstNetworkx:
    @given(random_networks())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_maxflow(self, net_spec):
        n, edges = net_spec
        ours = MaxFlow(n)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(n))
        for u, v, c in edges:
            ours.add_edge(u, v, c)
            if graph.has_edge(u, v):
                graph[u][v]["capacity"] += c
            else:
                graph.add_edge(u, v, capacity=c)
        expected = nx.maximum_flow_value(graph, 0, n - 1)
        assert ours.max_flow(0, n - 1) == expected

    @given(random_networks())
    @settings(max_examples=30, deadline=None)
    def test_integral_flows_on_integral_capacities(self, net_spec):
        n, edges = net_spec
        ours = MaxFlow(n)
        ids = [ours.add_edge(u, v, c) for u, v, c in edges]
        ours.max_flow(0, n - 1)
        for eid in ids:
            flow = ours.edge_flow(eid)
            assert flow == int(flow)
            assert 0 <= flow <= ours._initial_cap[eid]
