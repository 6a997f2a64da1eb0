"""Integration tests: the SWIFTED router, the case study and the metrics."""

import random

import pytest

from oracles.reroute_walk import backup_table

from repro.bgp.attributes import ASPath
from repro.bgp.messages import Update
from repro.bgp.prefix import Prefix, prefix_block
from repro.casestudy.controller import SdnSwitch, SwiftController, SwiftedDeployment
from repro.casestudy.probes import measure_downtime
from repro.casestudy.testbed import build_fig1_scenario
from repro.casestudy.vanilla import VanillaRouterModel
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.metrics.classification import classify_inference, classify_prediction
from repro.metrics.convergence import downtime_series, learning_times
from repro.metrics.distributions import cdf_points, percentile, summarize
from repro.metrics.quadrants import Quadrant, quadrant_of, quadrant_shares
from repro.metrics.tables import format_table


def _small_swift_config():
    """A SWIFT configuration scaled to small test tables."""
    return SwiftConfig(
        inference=InferenceConfig(
            detector=BurstDetectorConfig(start_threshold=100, stop_threshold=1),
            schedule=TriggeringSchedule(steps=((200, 10 ** 6),), unconditional_after=200),
        ),
        encoder=EncoderConfig(prefix_threshold=50),
    )


def _build_router(prefix_count=1200):
    s6 = prefix_block("60.0.0.0/24", prefix_count)
    router = SwiftedRouter(1, _small_swift_config())
    for peer in (2, 3, 4):
        router.add_peer(peer)
    router.load_initial_routes(2, {p: ASPath([2, 5, 6]) for p in s6}, local_pref=200)
    router.load_initial_routes(3, {p: ASPath([3, 6]) for p in s6}, local_pref=100)
    router.load_initial_routes(4, {p: ASPath([4, 5, 6]) for p in s6}, local_pref=150)
    router.provision()
    return router, s6


class TestSwiftedRouter:
    def test_provisioning_builds_tags_and_backups(self):
        router, s6 = _build_router()
        encoded = router.encoded_tags
        assert encoded is not None
        assert len(encoded.tags) == len(s6)
        assert backup_table(router), "backups should be pre-computed"
        # Pre-failure forwarding follows the preferred BGP route (via AS 2).
        assert router.forward(s6[0].network) == 2

    def test_reroute_on_burst_and_fallback(self):
        router, s6 = _build_router()
        rng = random.Random(1)
        order = list(s6)
        rng.shuffle(order)
        messages = [
            Update.withdraw(10.0 + index * 0.001, 2, prefix)
            for index, prefix in enumerate(order)
        ]
        actions = router.receive_batch(messages)
        assert len(actions) == 1
        action = actions[0]
        assert any(link == (5, 6) or link == (2, 5) for link in action.inferred_links)
        assert action.rule_count >= 1
        assert action.dataplane_update_seconds < 1.0
        # Affected traffic now leaves via the surviving neighbor AS 3.
        assert router.forward(s6[0].network) == 3
        # After BGP reconvergence the SWIFT rules are removed.
        router.clear_reroutes()
        assert router.forward(s6[0].network) == 2

    def test_receive_before_provision_raises(self):
        router = SwiftedRouter(1, _small_swift_config())
        router.add_peer(2)
        with pytest.raises(RuntimeError):
            router.receive(Update.withdraw(0.0, 2, Prefix.from_string("10.0.0.0/24")))

    def test_no_reroute_for_small_churn(self):
        router, s6 = _build_router()
        messages = [
            Update.withdraw(10.0 + index, 2, prefix)
            for index, prefix in enumerate(s6[:20])
        ]
        assert router.receive_batch(messages) == []


class TestCaseStudy:
    def test_vanilla_downtime_scales_linearly(self):
        model = VanillaRouterModel()
        small = model.downtime_for_burst_size(10000)
        large = model.downtime_for_burst_size(100000)
        assert large / small == pytest.approx(10.0, rel=0.1)

    def test_fig1_scenario_construction(self):
        scenario = build_fig1_scenario(prefix_count=2000, probe_count=20, seed=1)
        assert scenario.withdrawal_count == 2000
        assert len(scenario.probe_prefixes) == 20
        assert scenario.surviving_next_hops == frozenset({3})
        assert all(p in scenario.prefixes for p in scenario.probe_prefixes)

    def test_vanilla_converge_scenario(self):
        scenario = build_fig1_scenario(prefix_count=3000, seed=2)
        result = VanillaRouterModel().converge_scenario(scenario)
        downtimes = result.probe_downtimes(scenario.probe_prefixes)
        assert len(downtimes) == len(scenario.probe_prefixes)
        assert max(downtimes) <= result.total_convergence_seconds + 1e-9
        assert result.total_convergence_seconds > 0.5

    def test_swifted_deployment_beats_vanilla(self):
        scenario = build_fig1_scenario(prefix_count=30000, seed=3)
        vanilla = VanillaRouterModel().converge_scenario(scenario)
        deployment = SwiftedDeployment.for_scenario(scenario)
        swift_seconds = deployment.run_burst(scenario)
        assert swift_seconds is not None
        assert swift_seconds < vanilla.total_convergence_seconds / 2
        # The deployment's data plane now sends affected traffic to AS 3.
        assert deployment.controller.forward(scenario.probe_prefixes[0].network) == 3

    def test_sdn_switch_programming_latency(self):
        switch = SdnSwitch(flow_mod_seconds=0.001)
        completion = switch.program([], at=1.0)
        assert completion == 1.0
        completion = switch.program(
            [__import__("repro.core.encoding", fromlist=["WildcardRule"]).WildcardRule(0, 0, 3)] * 10,
            at=1.0,
        )
        assert completion == pytest.approx(1.01)
        assert switch.rule_count == 10

    def test_measure_downtime_with_oracle(self):
        probes = prefix_block("10.0.0.0/24", 5)
        # Probes recover at t=3 when forwarding switches to next-hop 3.
        oracle = lambda prefix, t: 3 if t >= 3.0 else 2
        report = measure_downtime(
            probes, oracle, working_next_hops=[3], failure_time=0.0, horizon=10.0, step=0.5
        )
        assert report.max_downtime == pytest.approx(3.0)
        series = report.loss_series(step=1.0)
        assert series[0][1] == 100.0
        assert series[-1][1] == 0.0


class TestMetrics:
    def test_classification_counts(self):
        prefixes = prefix_block("10.0.0.0/24", 100)
        withdrawn = set(prefixes[:40])
        predicted = set(prefixes[:50])
        counts = classify_inference(predicted, withdrawn, prefixes)
        assert counts.true_positives == 40
        assert counts.false_positives == 10
        assert counts.tpr == pytest.approx(1.0)
        assert counts.fpr == pytest.approx(10 / 60)

    def test_prediction_excludes_already_withdrawn(self):
        prefixes = prefix_block("10.0.0.0/24", 100)
        withdrawn_total = set(prefixes[:40])
        withdrawn_before = set(prefixes[:10])
        predicted = set(prefixes[:40])
        counts = classify_prediction(predicted, withdrawn_before, withdrawn_total, prefixes)
        assert counts.true_positives == 30
        assert counts.false_positives == 0

    def test_quadrants(self):
        assert quadrant_of(0.9, 0.1) == Quadrant.TOP_LEFT
        assert quadrant_of(0.9, 0.9) == Quadrant.TOP_RIGHT
        assert quadrant_of(0.1, 0.1) == Quadrant.BOTTOM_LEFT
        assert quadrant_of(0.1, 0.9) == Quadrant.BOTTOM_RIGHT
        shares = quadrant_shares([(0.9, 0.1), (0.1, 0.9)])
        assert shares[Quadrant.TOP_LEFT] == 0.5
        with pytest.raises(ValueError):
            quadrant_of(1.5, 0.0)

    def test_distribution_helpers(self):
        values = list(range(1, 101))
        assert percentile(values, 0.5) == pytest.approx(50.5)
        summary = summarize(values)
        assert summary.median == pytest.approx(50.5)
        assert summary.p95 > summary.p75 > summary.p25
        points = cdf_points(values)
        assert points[-1][1] == 1.0
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_learning_times(self):
        prefixes = prefix_block("10.0.0.0/24", 4)
        times = {prefixes[0]: 5.0, prefixes[1]: 10.0, prefixes[2]: 20.0, prefixes[3]: 30.0}
        result = learning_times(times, burst_start=0.0, prediction_time=8.0,
                                predicted_prefixes=prefixes[1:])
        assert result.bgp_seconds == (5.0, 10.0, 20.0, 30.0)
        # Predicted prefixes are learned at the prediction time (8 s), the
        # unpredicted one at its withdrawal time.
        assert sorted(result.swift_seconds) == [5.0, 8.0, 8.0, 8.0]

    def test_downtime_series_monotonic(self):
        series = downtime_series([1.0, 2.0, 5.0], failure_time=0.0, step=1.0)
        losses = [loss for _, loss in series]
        assert losses[0] == 100.0
        assert losses == sorted(losses, reverse=True)

    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", "y"]], title="T")
        assert "T" in text and "2.5" in text and "x" in text
