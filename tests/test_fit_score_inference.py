"""Tests for the Fit Score metrics, burst detection, history and inference."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.attributes import ASPath
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.core.burst_detection import BurstDetector, BurstDetectorConfig
from repro.core.fit_score import FitScoreCalculator, FitScoreConfig
from repro.core.history import HistoryModel, TriggeringSchedule
from repro.core.inference import InferenceConfig, InferenceEngine

S6 = prefix_block("60.0.0.0/24", 100)   # origin AS 6, path 2 5 6
S7 = prefix_block("70.0.0.0/24", 100)   # origin AS 7, path 2 5 6 7
S8 = prefix_block("80.0.0.0/24", 20)    # origin AS 8, path 2 5 6 8
S2 = prefix_block("92.0.0.0/24", 10)    # origin AS 2, path 2
S5 = prefix_block("95.0.0.0/24", 10)    # origin AS 5, path 2 5


def fig1_session_rib():
    """The Adj-RIB-In of the paper's Fig. 1 router on its session with AS 2."""
    rib = {}
    for prefix in S6:
        rib[prefix] = ASPath([2, 5, 6])
    for prefix in S7:
        rib[prefix] = ASPath([2, 5, 6, 7])
    for prefix in S8:
        rib[prefix] = ASPath([2, 5, 6, 8])
    for prefix in S2:
        rib[prefix] = ASPath([2])
    for prefix in S5:
        rib[prefix] = ASPath([2, 5])
    return rib


class TestFitScore:
    def test_paper_example_end_of_burst(self):
        """Reproduce the Fig. 4 situation: failure of (5, 6).

        S6 and S8 are withdrawn, S7 is re-routed onto a path avoiding (5, 6);
        at the end of the burst link (5, 6) must have WS = PS = 1 and the
        highest fit score, as in the paper's example.
        """
        calc = FitScoreCalculator(fig1_session_rib(), local_as=1, peer_as=2)
        for prefix in S6 + S8:
            calc.record_withdrawal(prefix)
        for prefix in S7:
            calc.record_update(prefix, ASPath([2, 3, 7]))
        assert calc.withdrawal_share((5, 6)) == pytest.approx(1.0)
        assert calc.path_share((5, 6)) == pytest.approx(1.0)
        # (2, 5) still carries S5 -> PS < 1; (6, 8) has WS < 1.
        assert calc.path_share((2, 5)) < 1.0
        assert calc.withdrawal_share((6, 8)) < 1.0
        scores = calc.all_scores()
        assert scores[0].links == ((5, 6),)

    def test_soundness_single_failure(self):
        """Theorem 4.1: at the end of the stream the failed link has max FS."""
        rib = fig1_session_rib()
        calc = FitScoreCalculator(rib)
        # Failure of (6, 7): only S7 withdrawn.
        for prefix in S7:
            calc.record_withdrawal(prefix)
        scores = calc.all_scores()
        assert scores[0].links == ((6, 7),)
        assert scores[0].fit_score == pytest.approx(1.0)

    def test_withdrawal_share_dilution_by_noise(self):
        calc = FitScoreCalculator(fig1_session_rib())
        for prefix in S7:
            calc.record_withdrawal(prefix)
        before = calc.withdrawal_share((6, 7))
        for prefix in S2[:5]:  # unrelated withdrawals
            calc.record_withdrawal(prefix)
        after = calc.withdrawal_share((6, 7))
        assert after < before

    def test_duplicate_withdrawals_counted_once(self):
        calc = FitScoreCalculator(fig1_session_rib())
        calc.record_withdrawal(S6[0])
        calc.record_withdrawal(S6[0])
        assert calc.total_withdrawals == 1

    def test_update_clears_withdrawal(self):
        calc = FitScoreCalculator(fig1_session_rib())
        calc.record_withdrawal(S6[0])
        calc.record_update(S6[0], ASPath([2, 3, 6]))
        assert calc.total_withdrawals == 0
        assert calc.still_routed_count((3, 6)) == 1

    def test_score_set_caps_withdrawal_share(self):
        calc = FitScoreCalculator(fig1_session_rib())
        for prefix in S6:
            calc.record_withdrawal(prefix)
        aggregate = calc.score_set([(2, 5), (5, 6)])
        assert aggregate.withdrawal_share <= 1.0

    def test_prefixes_via_links(self):
        calc = FitScoreCalculator(fig1_session_rib())
        via = calc.prefixes_via_links([(6, 8)])
        assert via == frozenset(S8)

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            FitScoreConfig(ws_weight=0)

    @given(st.integers(1, 50))
    @settings(max_examples=20, deadline=None)
    def test_fit_score_bounded(self, withdrawn):
        calc = FitScoreCalculator(fig1_session_rib())
        for prefix in S6[:withdrawn]:
            calc.record_withdrawal(prefix)
        for score in calc.all_scores():
            assert 0.0 <= score.fit_score <= 1.0
            assert 0.0 <= score.withdrawal_share <= 1.0
            assert 0.0 <= score.path_share <= 1.0


class TestBurstDetector:
    def test_detects_start_and_end(self):
        detector = BurstDetector(BurstDetectorConfig(start_threshold=10, stop_threshold=1))
        event = None
        for index in range(12):
            event = detector.observe_withdrawals(index * 0.1, 1) or event
        assert detector.is_bursting
        assert event is not None and event.kind == "start"
        end = detector.observe_time(100.0)
        assert end is not None and end.kind == "end"
        assert not detector.is_bursting

    def test_no_burst_below_threshold(self):
        detector = BurstDetector(BurstDetectorConfig(start_threshold=100, stop_threshold=1))
        for index in range(50):
            detector.observe_withdrawals(index * 0.01, 1)
        assert not detector.is_bursting

    def test_window_slides(self):
        detector = BurstDetector(BurstDetectorConfig(window_seconds=1.0, start_threshold=5, stop_threshold=0))
        for index in range(4):
            detector.observe_withdrawals(index * 10.0, 4)
        assert not detector.is_bursting  # never 5 within one window

    def test_start_fires_at_exactly_start_threshold(self):
        detector = BurstDetector(BurstDetectorConfig(start_threshold=5, stop_threshold=1))
        for index in range(4):
            assert detector.observe_withdrawals(index * 0.1, 1) is None
        assert not detector.is_bursting
        event = detector.observe_withdrawals(0.4, 1)  # exactly 5 in window
        assert event is not None and event.kind == "start"
        assert event.withdrawals_in_window == 5
        assert detector.is_bursting

    def test_end_fires_at_exactly_stop_threshold(self):
        config = BurstDetectorConfig(
            window_seconds=10.0, start_threshold=5, stop_threshold=2
        )
        detector = BurstDetector(config)
        for index in range(5):
            detector.observe_withdrawals(float(index), 1)  # t = 0..4
        assert detector.is_bursting
        # Window retains t=2,3,4 -> 3 withdrawals: above stop, still bursting.
        assert detector.observe_time(11.5) is None
        assert detector.is_bursting
        # Window retains t=3,4 -> exactly stop_threshold: the burst ends.
        event = detector.observe_time(12.5)
        assert event is not None and event.kind == "end"
        assert event.withdrawals_in_window == 2
        assert not detector.is_bursting

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BurstDetectorConfig(start_threshold=5, stop_threshold=5)


class TestHistory:
    def test_schedule_acceptance_steps(self):
        schedule = TriggeringSchedule()
        assert schedule.first_trigger == 2500
        assert not schedule.accepts(2000, 100)          # below first trigger
        assert schedule.accepts(2500, 9999)
        assert not schedule.accepts(2500, 10000)
        assert schedule.accepts(5000, 19999)
        assert not schedule.accepts(5000, 20000)
        assert schedule.accepts(20000, 10 ** 7)          # unconditional
        assert schedule.next_trigger_after(2500) == 5000
        assert schedule.next_trigger_after(10000) == 20000
        assert schedule.next_trigger_after(20000) is None

    def test_permissive_schedule(self):
        schedule = TriggeringSchedule.permissive()
        assert schedule.accepts(2500, 10 ** 8)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TriggeringSchedule(steps=((5000, 10), (2500, 10)))

    def test_history_probability(self):
        history = HistoryModel([1000, 2000, 3000, 50000])
        assert history.probability_at_least(1) == 1.0
        assert history.probability_at_least(2500) == pytest.approx(0.5)
        assert history.is_plausible(2500)
        assert not history.is_plausible(10 ** 7)
        history.record_burst(10 ** 7)
        assert history.probability_at_least(10 ** 7) > 0

    def test_empty_history_is_permissive(self):
        assert HistoryModel().probability_at_least(10 ** 9) == 1.0

    def test_derive_schedule(self):
        history = HistoryModel([2000] * 50 + [30000] * 5)
        schedule = history.derive_schedule()
        assert schedule.first_trigger == 2500
        assert schedule.steps[0][1] >= 5000


def _burst_messages(prefixes, peer_as=2, start=100.0, rate=1000.0):
    return [
        Update.withdraw(start + index / rate, peer_as, prefix)
        for index, prefix in enumerate(prefixes)
    ]


class TestInferenceEngine:
    def _config(self, start_threshold=50, trigger=100, limit=10 ** 6):
        return InferenceConfig(
            detector=BurstDetectorConfig(start_threshold=start_threshold, stop_threshold=1),
            schedule=TriggeringSchedule(steps=((trigger, limit),), unconditional_after=trigger),
        )

    def test_inference_fires_and_localises(self):
        rib = fig1_session_rib()
        engine = InferenceEngine(rib, config=self._config())
        results = engine.process_batch(_burst_messages(S7))
        assert results, "an inference should have been accepted"
        result = results[0]
        assert (6, 7) in result.inferred_links
        assert result.prediction.predicted_prefixes >= frozenset(S7[:50])

    def test_no_inference_without_burst(self):
        rib = fig1_session_rib()
        engine = InferenceEngine(rib, config=self._config(start_threshold=10 ** 6))
        results = engine.process_batch(_burst_messages(S7))
        assert results == []

    def test_detection_window_withdrawals_are_replayed(self):
        rib = fig1_session_rib()
        engine = InferenceEngine(rib, config=self._config(start_threshold=60, trigger=80))
        engine.process_batch(_burst_messages(S6))
        # The burst starts after 60 withdrawals but the counter includes them.
        assert engine.results
        assert engine.results[0].withdrawals_seen >= 80

    def test_schedule_delays_large_predictions(self):
        rib = fig1_session_rib()
        config = InferenceConfig(
            detector=BurstDetectorConfig(start_threshold=20, stop_threshold=1),
            schedule=TriggeringSchedule(
                steps=((50, 60), (150, 1000)), unconditional_after=200
            ),
        )
        engine = InferenceEngine(rib, config=config)
        engine.process_batch(_burst_messages(S6 + S7 + S8))
        accepted = engine.accepted_inference
        assert accepted is not None
        # The first try at 50 withdrawals predicts >200 prefixes (all of S6,
        # S7, S8 share links) so acceptance must wait for the next trigger.
        assert accepted.withdrawals_seen >= 120

    def test_force_inference_at_any_point(self):
        rib = fig1_session_rib()
        engine = InferenceEngine(rib, config=self._config(start_threshold=10, trigger=10 ** 6))
        messages = _burst_messages(S6 + S8)
        engine.process_batch(messages[:40])
        result = engine.force_inference(timestamp=200.0)
        assert result is not None
        links = set(result.inferred_links)
        assert (5, 6) in links or (2, 5) in links

    def test_updates_reduce_prediction(self):
        """Path updates during the burst steer the inference away from shared links."""
        rib = fig1_session_rib()
        engine = InferenceEngine(rib, config=self._config(start_threshold=50, trigger=100))
        messages = []
        for index, prefix in enumerate(S6 + S8):
            messages.append(Update.withdraw(100 + index * 0.001, 2, prefix))
        # Interleave updates of S7 onto a path avoiding (5, 6).
        from repro.bgp.attributes import PathAttributes

        for index, prefix in enumerate(S7):
            messages.append(
                Update.announce(
                    100 + index * 0.001,
                    2,
                    prefix,
                    PathAttributes(as_path=ASPath([2, 3, 7]), next_hop=2),
                )
            )
        messages.sort(key=lambda m: m.timestamp)
        results = engine.process_batch(messages)
        assert results
        predicted = results[0].prediction.predicted_prefixes
        # S2's prefixes do not cross the inferred region and must not be rerouted.
        assert not (predicted & set(S2))

    def test_multi_link_aggregation_on_node_failure(self):
        """A failure of AS 6 (links (6,7) and (6,8)) is inferred as a set."""
        rib = {}
        for prefix in S7:
            rib[prefix] = ASPath([2, 5, 6, 7])
        for prefix in S8:
            rib[prefix] = ASPath([2, 5, 6, 8])
        # Other prefixes keep (5, 6) alive so it cannot be the failed link.
        for prefix in S6:
            rib[prefix] = ASPath([2, 5, 6])
        engine = InferenceEngine(rib, config=self._config(start_threshold=30, trigger=110))
        engine.process_batch(_burst_messages(S7 + S8))
        result = engine.accepted_inference
        assert result is not None
        links = set(result.inferred_links)
        assert (6, 7) in links and (6, 8) in links
        assert 6 in result.shared_endpoints
