"""Tests for the AS topology substrate and the propagation simulator."""

import pytest

from repro.bgp.prefix import Prefix
from repro.simulation import (
    GaoRexfordRouting,
    LinkFailure,
    NodeFailure,
    NoiseConfig,
    PropagationSimulator,
    VantagePoint,
    inject_noise,
)
from repro.simulation.timing import EmpiricalPacing, UniformPacing
from repro.topology.as_graph import ASGraph, Relationship
from repro.topology.generator import TopologyConfig, fig1_topology, generate_topology
from repro.topology.policies import is_valley_free, valley_free_export
from repro.topology.tiers import assign_tiers


class TestASGraph:
    def test_build_and_query(self):
        graph = ASGraph()
        graph.add_customer_provider(customer=1, provider=2)
        graph.add_peering(2, 3)
        assert graph.has_link(2, 1)
        assert graph.link(1, 2).relationship_from(1) == "provider"
        assert graph.link(1, 2).relationship_from(2) == "customer"
        assert graph.link(2, 3).relationship_from(2) == "peer"
        assert graph.providers_of(1) == [2]
        assert graph.customers_of(2) == [1]
        assert graph.peers_of(2) == [3]

    def test_duplicate_link_rejected(self):
        graph = ASGraph()
        graph.add_peering(1, 2)
        with pytest.raises(ValueError):
            graph.add_peering(2, 1)

    def test_remove_and_restore_link(self):
        graph = ASGraph()
        link = graph.add_peering(1, 2)
        graph.remove_link(1, 2)
        assert not graph.has_link(1, 2)
        graph.restore_link(link)
        assert graph.has_link(1, 2)

    def test_connectivity_and_degree(self):
        graph = ASGraph()
        graph.add_peering(1, 2)
        graph.add_peering(2, 3)
        assert graph.is_connected()
        assert graph.degree(2) == 2
        graph.add_as(99)
        assert not graph.is_connected()

    def test_origin_of(self):
        graph = ASGraph()
        prefix = Prefix.from_string("10.0.0.0/24")
        graph.add_as(6, [prefix])
        assert graph.origin_of(prefix) == 6


class TestPolicies:
    def test_valley_free_export_rules(self):
        assert valley_free_export("customer", "provider")
        assert valley_free_export("origin", "peer")
        assert not valley_free_export("peer", "peer")
        assert not valley_free_export("provider", "provider")
        assert valley_free_export("provider", "customer")

    def test_is_valley_free_on_fig1(self):
        graph = fig1_topology({})
        # Path 1 -> 2 -> 5 -> 6 is customer->provider all the way up: valid.
        assert is_valley_free(graph, [2, 5, 6])
        # A path that goes down then up again is a valley.
        graph2 = ASGraph()
        graph2.add_customer_provider(customer=2, provider=1)
        graph2.add_customer_provider(customer=2, provider=3)
        assert not is_valley_free(graph2, [1, 2, 3])


class TestTiers:
    def test_fig1_style_tiering(self):
        adjacency = {1: [2, 3], 2: [1, 3, 4], 3: [1, 2, 5], 4: [2], 5: [3]}
        tiers = assign_tiers(adjacency, tier1_count=2)
        assert tiers[2] == 1 and tiers[3] == 1
        assert tiers[1] == 2 and tiers[4] == 2 and tiers[5] == 2

    def test_empty(self):
        assert assign_tiers({}) == {}


class TestGenerator:
    def test_generated_topology_properties(self):
        config = TopologyConfig(as_count=200, prefixes_per_as=3, seed=1)
        graph = generate_topology(config)
        assert graph.as_count == 200
        assert graph.is_connected()
        assert graph.total_prefix_count() == 600
        assert 3.0 < graph.average_degree < 14.0
        tiers = {node.tier for node in graph.nodes()}
        assert 1 in tiers and len(tiers) >= 2

    def test_determinism(self):
        config = TopologyConfig(as_count=100, prefixes_per_as=2, seed=9)
        first = generate_topology(config)
        second = generate_topology(config)
        assert first.link_keys() == second.link_keys()

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TopologyConfig(as_count=1)


class TestRouting:
    def test_fig1_routing_respects_policies(self):
        graph = fig1_topology({6: 5, 7: 5, 8: 2})
        routing = GaoRexfordRouting(graph).compute(origin=6)
        # AS 1 reaches AS 6 (it buys transit from 2, 3 and 4).
        path_of_1 = routing.path_of(1)
        assert path_of_1 is not None
        assert path_of_1[-1] == 6
        # AS 2's path to 6 goes through its provider 5.
        assert routing.path_of(2) == (5, 6)
        # Exported path from 2 to 1 exists (1 is 2's customer).
        assert routing.exported_path(graph, 2, 1) == (2, 5, 6)
        # 2 does not export its provider route to its peer 3.
        assert routing.exported_path(graph, 2, 3) is None

    def test_paths_are_valley_free(self):
        graph = generate_topology(TopologyConfig(as_count=120, prefixes_per_as=1, seed=4))
        origin = graph.ases()[10]
        routing = GaoRexfordRouting(graph).compute(origin)
        for asn in list(routing.best_path)[:50]:
            path = (asn,) + routing.best_path[asn]
            assert is_valley_free(graph, list(path)), path


class TestEvents:
    def test_link_failure_apply_undo(self):
        graph = fig1_topology({})
        failure = LinkFailure(a=5, b=6)
        removed = failure.apply(graph)
        assert not graph.has_link(5, 6)
        failure.undo(graph, removed)
        assert graph.has_link(5, 6)

    def test_node_failure_removes_all_adjacent_links(self):
        graph = fig1_topology({})
        failure = NodeFailure(asn=6)
        assert set(failure.failed_links(graph)) >= {(5, 6), (6, 7), (6, 8)}

    def test_invalid_events(self):
        with pytest.raises(ValueError):
            LinkFailure(a=1, b=1)
        with pytest.raises(ValueError):
            NodeFailure(asn=0)


class TestPacing:
    def test_uniform_pacing(self):
        import random

        offsets = UniformPacing(rate_per_second=100).offsets(10, random.Random(0))
        assert offsets[1] - offsets[0] == pytest.approx(0.01)

    def test_empirical_pacing_sorted_and_bounded(self):
        import random

        pacing = EmpiricalPacing()
        offsets = pacing.offsets(500, random.Random(1))
        assert offsets == sorted(offsets)
        assert offsets[-1] <= pacing.duration_for(500)

    def test_invalid_pacing_params(self):
        with pytest.raises(ValueError):
            UniformPacing(rate_per_second=0)
        with pytest.raises(ValueError):
            EmpiricalPacing(head_skew=0.5)


class TestPropagationSimulator:
    def test_fig1_failure_burst(self):
        graph = fig1_topology({6: 50, 7: 50, 8: 10, 2: 5, 5: 5, 3: 5})
        simulator = PropagationSimulator(graph, seed=1)
        vantage = VantagePoint(local_as=1, peer_as=2)
        rib = simulator.vantage_rib(vantage)
        assert len(rib) > 100
        burst = simulator.simulate(LinkFailure(a=5, b=6), vantage)
        # Everything AS 2 reached through (5, 6) is withdrawn.
        assert burst.withdrawal_count >= 110
        assert burst.ground_truth.failed_links == ((5, 6),)
        assert burst.ground_truth.withdrawn_prefixes
        # The graph is restored after the simulation.
        assert graph.has_link(5, 6)

    def test_burst_session_preloads_rib(self):
        graph = fig1_topology({6: 20, 7: 10, 8: 5})
        simulator = PropagationSimulator(graph, seed=1)
        vantage = VantagePoint(local_as=1, peer_as=2)
        burst = simulator.simulate(LinkFailure(a=5, b=6), vantage)
        session = burst.build_session()
        assert len(session.rib_in) == len(burst.initial_rib)

    def test_candidate_failures_ranked(self):
        graph = fig1_topology({6: 50, 7: 50, 8: 10})
        simulator = PropagationSimulator(graph, seed=1)
        vantage = VantagePoint(local_as=1, peer_as=2)
        candidates = simulator.candidate_link_failures(vantage, min_withdrawals=20)
        assert candidates
        assert (5, 6) in candidates

    def test_vantage_requires_link(self):
        graph = fig1_topology({})
        simulator = PropagationSimulator(graph)
        with pytest.raises(ValueError):
            simulator.vantage_rib(VantagePoint(local_as=1, peer_as=8))


class TestNoise:
    def test_inject_noise_adds_withdrawals(self):
        graph = fig1_topology({6: 20, 7: 10, 8: 5, 2: 10})
        simulator = PropagationSimulator(graph, seed=1)
        vantage = VantagePoint(local_as=1, peer_as=2)
        burst = simulator.simulate(LinkFailure(a=5, b=6), vantage)
        unaffected = [
            p for p in burst.initial_rib
            if p not in burst.ground_truth.affected_prefixes
        ]
        noisy = inject_noise(
            burst.messages, unaffected, 2, NoiseConfig(burst_noise_withdrawals=5, seed=1)
        )
        extra = len(noisy) - len(burst.messages)
        assert extra == min(5, len(unaffected))
        assert [m.timestamp for m in noisy] == sorted(m.timestamp for m in noisy)

    def test_noise_config_validation(self):
        with pytest.raises(ValueError):
            NoiseConfig(burst_noise_withdrawals=-1)
