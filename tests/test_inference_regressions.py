"""Burst-boundary regression tests and reference-parity for the hot path.

Covers the two attribution bugs fixed alongside the link->prefix index
rework:

* a withdrawal arriving after a long quiet gap ("end" event from the
  detector) must end the stale burst and be attributed to quiet time, not
  recorded into the old burst's calculator;
* stale quiet-time withdrawals must age out on *every* message timestamp
  (including announcement-only traffic) so a later burst neither replays
  them nor backdates its start time.

Plus the parity guarantee of the index rework — the engine emits identical
``InferenceResult`` sequences whether it scores with the incremental
:class:`~repro.core.fit_score.FitScoreCalculator` overlay or with the
reference full-scan implementation — and of the column-native ingestion
path: ``process_columnar_run`` must leave the engine in *exactly* the state
per-message replay leaves it, including the quiet-time withdrawal buffer
that ``force_inference`` / ``flush_quiet_state`` act on when called between
columnar chunks.
"""

import pytest

from oracles.fit_score_reference import ReferenceFitScoreCalculator, reference_engine

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Notification, OpenMessage, Update
from repro.bgp.prefix import prefix_block
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.fit_score import FitScoreConfig, LinkPrefixIndex
from repro.core.history import HistoryModel, TriggeringSchedule
from repro.core.inference import InferenceConfig, InferenceEngine
from repro.traces.columnar import ColumnarRun, ColumnarTrace

S6 = prefix_block("60.0.0.0/24", 100)   # origin AS 6, path 2 5 6
S7 = prefix_block("70.0.0.0/24", 100)   # origin AS 7, path 2 5 6 7
S8 = prefix_block("80.0.0.0/24", 20)    # origin AS 8, path 2 5 6 8
S5 = prefix_block("95.0.0.0/24", 10)    # origin AS 5, path 2 5


def session_rib():
    rib = {}
    for prefix in S6:
        rib[prefix] = ASPath([2, 5, 6])
    for prefix in S7:
        rib[prefix] = ASPath([2, 5, 6, 7])
    for prefix in S8:
        rib[prefix] = ASPath([2, 5, 6, 8])
    for prefix in S5:
        rib[prefix] = ASPath([2, 5])
    return rib


def index_view(engine):
    """What an engine's index answers: the RIB view, ``P(l)`` per link and
    the prefixes routed over every link."""
    index = engine.index
    return (
        engine.current_rib(),
        index.routed_for_link,
        {link: index.prefixes_via([link]) for link in index.routed_for_link},
    )


def _config(start_threshold=10, stop_threshold=1, trigger=10 ** 6, window=10.0):
    return InferenceConfig(
        detector=BurstDetectorConfig(
            window_seconds=window,
            start_threshold=start_threshold,
            stop_threshold=stop_threshold,
        ),
        schedule=TriggeringSchedule(
            steps=((trigger, 10 ** 7),), unconditional_after=trigger
        ),
    )


def _withdrawals(prefixes, start, rate=1000.0, peer_as=2):
    return [
        Update.withdraw(start + index / rate, peer_as, prefix)
        for index, prefix in enumerate(prefixes)
    ]


class TestWithdrawalAfterQuietGap:
    """Regression: an "end" event from ``observe_withdrawals`` is honoured."""

    def test_late_withdrawal_ends_stale_burst(self):
        history = HistoryModel()
        engine = InferenceEngine(session_rib(), config=_config(), history=history)
        engine.process_batch(_withdrawals(S6[:20], start=100.0))
        assert engine.detector.is_bursting
        assert engine.withdrawals_in_current_burst == 20

        # One withdrawal after a gap far exceeding the detection window: the
        # detector returns an "end" event on this very message.
        engine.process_message(Update.withdraw(200.0, 2, S7[0]))
        assert not engine.detector.is_bursting
        assert engine.withdrawals_in_current_burst == 0
        # The stale burst's size excludes the late withdrawal.
        assert history.sizes == [20]

    def test_late_withdrawal_seeds_the_next_burst(self):
        engine = InferenceEngine(session_rib(), config=_config())
        engine.process_batch(_withdrawals(S6[:20], start=100.0))

        # Gap, then a fresh flood: the quiet-gap withdrawal belongs to the
        # *new* burst (it is replayed from the quiet-time buffer).
        engine.process_message(Update.withdraw(200.0, 2, S7[0]))
        engine.process_batch(_withdrawals(S7[1:10], start=200.05))
        assert engine.detector.is_bursting
        assert engine.withdrawals_in_current_burst == 10
        result = engine.force_inference(timestamp=200.1)
        assert result is not None
        assert result.burst_start == pytest.approx(200.0)
        assert result.withdrawals_seen == 10


class TestStaleBufferedWithdrawals:
    """Regression: quiet-time withdrawals age out on every message."""

    def test_announcement_traffic_expires_the_buffer(self):
        engine = InferenceEngine(session_rib(), config=_config())
        # Five quiet withdrawals, far below the start threshold.
        for message in _withdrawals(S6[:5], start=0.0):
            engine.process_message(message)
        assert all(prefix in engine.current_rib() for prefix in S6[:5])

        # Announcement-only traffic 50 s later must expire the buffer (the
        # seed implementation only aged it on quiet *withdrawal* messages).
        engine.process_message(
            Update.announce(
                50.0, 2, S5[0], PathAttributes(as_path=ASPath([2, 5]), next_hop=2)
            )
        )
        assert all(prefix not in engine.current_rib() for prefix in S6[:5])

    def test_stale_withdrawals_not_replayed_into_new_burst(self):
        engine = InferenceEngine(session_rib(), config=_config())
        for message in _withdrawals(S6[:5], start=0.0):
            engine.process_message(message)
        engine.process_message(
            Update.announce(
                50.0, 2, S5[0], PathAttributes(as_path=ASPath([2, 5]), next_hop=2)
            )
        )

        # A real burst at t=100: its start must not be backdated to t=0 and
        # the stale withdrawals must not inflate its counter.
        engine.process_batch(_withdrawals(S7[:10], start=100.0))
        assert engine.detector.is_bursting
        assert engine.withdrawals_in_current_burst == 10
        result = engine.force_inference(timestamp=100.1)
        assert result is not None
        assert result.burst_start == pytest.approx(100.0)
        assert result.withdrawals_seen == 10
        assert result.inference_delay < 1.0


class TestReferenceParity:
    """The index-based engine matches the reference full-scan engine."""

    _CONFIG = InferenceConfig(
        detector=BurstDetectorConfig(
            window_seconds=10.0, start_threshold=30, stop_threshold=1
        ),
        schedule=TriggeringSchedule(
            steps=((60, 90), (110, 10 ** 6)), unconditional_after=150
        ),
    )

    @staticmethod
    def _parity_stream():
        """A synthetic burst exercising every hot-path code path.

        Quiet churn (buffered withdrawals, some expiring), a first burst with
        interleaved re-announcements (implicit withdrawals, withdrawal
        clearing), a quiet gap ending it, and a second burst that triggers
        and gets accepted — producing both rejected and accepted
        ``InferenceResult`` entries.
        """
        messages = []
        # Quiet churn: a few withdrawals that will expire, and one
        # re-announcement.
        messages += _withdrawals(S5[:3], start=0.0, rate=10.0)
        messages.append(
            Update.announce(
                20.0, 2, S6[0], PathAttributes(as_path=ASPath([2, 3, 6]), next_hop=2)
            )
        )
        # First burst: withdraw S6, re-route S7 away from (5, 6) mid-burst,
        # re-announce one withdrawn prefix (clears its withdrawal).
        messages += _withdrawals(S6, start=100.0)
        messages.append(
            Update.announce(
                100.05, 2, S7[0], PathAttributes(as_path=ASPath([2, 3, 7]), next_hop=2)
            )
        )
        messages.append(
            Update.announce(
                100.08, 2, S6[10], PathAttributes(as_path=ASPath([2, 3, 6]), next_hop=2)
            )
        )
        # Quiet gap ends the burst.
        messages.append(
            Update.announce(
                180.0, 2, S5[5], PathAttributes(as_path=ASPath([2, 5]), next_hop=2)
            )
        )
        # Second burst: withdraw S7 and S8 (failure around AS 6's far side).
        messages += _withdrawals(S7 + S8, start=300.0)
        messages.sort(key=lambda m: m.timestamp)
        return messages

    def test_identical_inference_result_sequences(self):
        config = self._CONFIG
        rib = session_rib()
        messages = self._parity_stream()

        incremental = InferenceEngine(rib, config=config, local_as=1, peer_as=2)
        reference = reference_engine(rib, config=config, local_as=1, peer_as=2)

        accepted_incremental = incremental.process_batch(messages)
        accepted_reference = reference.process_batch(messages)

        # Every emitted result — accepted *and* rejected — must be identical.
        assert incremental.results == reference.results
        assert accepted_incremental == accepted_reference
        assert len(incremental.results) >= 2, "stream must exercise several triggers"
        assert any(r.accepted for r in incremental.results)
        assert any(not r.accepted for r in incremental.results)
        assert incremental.current_rib() == reference.current_rib()

    def test_columnar_run_parity_with_reference_calculator(self):
        """The column-native path matches per-message replay for *both*
        calculator implementations (``record_run`` on each), across run
        splits that land mid-burst."""
        config = self._CONFIG
        rib = session_rib()
        messages = self._parity_stream()
        trace = ColumnarTrace.from_messages(messages)

        baseline = InferenceEngine(rib, config=config, local_as=1, peer_as=2)
        baseline_accepted = baseline.process_batch(messages)

        for max_run in (None, 7):
            columnar = InferenceEngine(rib, config=config, local_as=1, peer_as=2)
            reference = reference_engine(rib, config=config, local_as=1, peer_as=2)
            columnar_accepted = []
            reference_accepted = []
            for run in trace.iter_batches(max_run=max_run):
                columnar_accepted.extend(columnar.process_columnar_run(run))
                reference_accepted.extend(reference.process_columnar_run(run))
            assert columnar.results == baseline.results
            assert reference.results == baseline.results
            assert columnar_accepted == baseline_accepted
            assert reference_accepted == baseline_accepted
            assert columnar.current_rib() == baseline.current_rib()
            assert reference.current_rib() == baseline.current_rib()
            assert columnar.detector.events == baseline.detector.events

    @pytest.mark.parametrize("feed", ["per_message", "columnar_split_mid_burst"])
    def test_oracle_keeps_the_engine_index_current(self, feed):
        """In-burst announcements reach the engine's persistent index through
        the burst calculator alone — the production one shares the index, the
        oracle mirrors into it — so after two bursts both engines hold the
        same index and RIB view, with the re-routed prefixes on their new
        links."""
        config = self._CONFIG
        rib = session_rib()
        messages = self._parity_stream()
        production = InferenceEngine(rib, config=config, local_as=1, peer_as=2)
        oracle = reference_engine(rib, config=config, local_as=1, peer_as=2)
        for engine in (production, oracle):
            if feed == "per_message":
                for message in messages:
                    engine.process_message(message)
            else:
                trace = ColumnarTrace.from_messages(messages)
                for run in trace.iter_batches(max_run=7):
                    engine.process_columnar_run(run)

        assert len(oracle.detector.events) >= 3, "two bursts must have started"
        assert index_view(oracle) == index_view(production)
        # The two prefixes announced mid-burst moved off (5, 6) in the index.
        _, _, prefixes_of_link = index_view(oracle)
        assert {link for link, members in prefixes_of_link.items() if S7[0] in members} == {
            (1, 2),
            (2, 3),
            (3, 7),
        }
        assert S6[10] not in prefixes_of_link[(5, 6)]

    def test_calculator_parity_on_shared_queries(self):
        """Spot-check calculator-level queries against the reference."""
        rib = session_rib()
        index = LinkPrefixIndex(rib, local_as=1, peer_as=2)
        from repro.core.fit_score import FitScoreCalculator

        incremental = FitScoreCalculator.from_index(index, config=FitScoreConfig())
        reference = ReferenceFitScoreCalculator(
            rib, config=FitScoreConfig(), local_as=1, peer_as=2
        )
        incremental.record_withdrawals(S6 + S8[:5])
        reference.record_withdrawals(S6 + S8[:5])
        incremental.record_update(S7[0], ASPath([2, 3, 7]))
        reference.record_update(S7[0], ASPath([2, 3, 7]))
        incremental.record_update(S6[0], ASPath([2, 3, 6]))
        reference.record_update(S6[0], ASPath([2, 3, 6]))

        assert incremental.total_withdrawals == reference.total_withdrawals
        assert incremental.withdrawn_prefixes == reference.withdrawn_prefixes
        assert incremental.all_scores() == reference.all_scores()
        assert incremental.tracked_links() == reference.tracked_links()
        for links in ([(5, 6)], [(2, 5), (5, 6)], [(6, 8), (6, 7)]):
            assert incremental.prefixes_via_links(links) == reference.prefixes_via_links(
                links
            )
            assert incremental.score_set(links) == reference.score_set(links)


def _single_peer_runs(trace, split_indices):
    """Cut a single-peer columnar trace into runs at explicit row indices."""
    peer = trace.msg_peer[0]
    bounds = [0] + sorted(split_indices) + [len(trace)]
    return [
        ColumnarRun(trace, lo, hi, peer)
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]


class TestMidRunControlCalls:
    """``force_inference`` / ``flush_quiet_state`` between columnar chunks.

    Both entry points read engine state the stream side maintains — the
    burst calculator and the quiet-time withdrawal buffer respectively — so
    a columnar-fed engine must expose *exactly* the state a per-message-fed
    engine exposes at the same stream position, or replay drivers that
    re-provision (flush) or probe (force) between chunks diverge.
    """

    def _engines(self):
        return (
            InferenceEngine(session_rib(), config=_config()),
            InferenceEngine(session_rib(), config=_config()),
        )

    def test_flush_quiet_state_matches_per_message_path(self):
        """Announcement-only columnar traffic must age the buffer before a
        mid-stream ``flush_quiet_state`` folds it into the RIB view."""
        messages = _withdrawals(S6[:5], start=0.0)
        # Announcement-only traffic 50 s later: entries must age out on the
        # columnar path too (the seed bug aged them only on quiet
        # withdrawals), plus two fresh withdrawals that must survive.
        messages.append(
            Update.announce(
                50.0, 2, S5[0], PathAttributes(as_path=ASPath([2, 5]), next_hop=2)
            )
        )
        messages += _withdrawals(S7[:2], start=52.0)
        trace = ColumnarTrace.from_messages(messages)

        columnar, per_message = self._engines()
        for run in _single_peer_runs(trace, [3, 6]):
            columnar.process_columnar_run(run)
        for message in messages:
            per_message.process_message(message)

        assert list(columnar._recent_withdrawals) == list(
            per_message._recent_withdrawals
        )
        assert all(prefix not in columnar.current_rib() for prefix in S6[:5])

        columnar.flush_quiet_state()
        per_message.flush_quiet_state()
        assert columnar.current_rib() == per_message.current_rib()
        assert not columnar._recent_withdrawals
        # The flushed prefixes left the index too, exactly as per-message.
        assert index_view(columnar) == index_view(per_message)

    def test_force_inference_mid_columnar_burst_matches_per_message(self):
        """Probing a burst between two columnar chunks must see the same
        calculator state (and burst start) as per-message replay."""
        messages = _withdrawals(S6[:40], start=100.0)
        trace = ColumnarTrace.from_messages(messages)
        split = 25

        columnar, per_message = self._engines()
        first, second = _single_peer_runs(trace, [split])
        columnar.process_columnar_run(first)
        for message in messages[:split]:
            per_message.process_message(message)

        probe_time = messages[split - 1].timestamp + 0.01
        columnar_probe = columnar.force_inference(probe_time)
        per_message_probe = per_message.force_inference(probe_time)
        assert columnar_probe is not None
        assert columnar_probe == per_message_probe
        assert columnar.withdrawals_in_current_burst == split

        # The probe must not disturb the rest of the replay either.
        columnar.process_columnar_run(second)
        for message in messages[split:]:
            per_message.process_message(message)
        assert columnar.results == per_message.results
        assert columnar.withdrawals_in_current_burst == 40

    def test_flush_quiet_state_still_noop_during_columnar_burst(self):
        """Mid-burst flush stays a no-op after columnar ingestion."""
        messages = _withdrawals(S6[:20], start=100.0)
        trace = ColumnarTrace.from_messages(messages)
        engine, _ = self._engines()
        (run,) = _single_peer_runs(trace, [])
        engine.process_columnar_run(run)
        assert engine.detector.is_bursting
        rib_before = engine.current_rib()
        engine.flush_quiet_state()
        assert engine.current_rib() == rib_before
        assert engine.withdrawals_in_current_burst == 20

    def test_buffer_ages_across_chunk_boundaries(self):
        """A withdrawal buffered in chunk 1 must expire during chunk 2's
        quiet traffic — even when chunk 2 is announcement-only — so the
        next burst neither replays it nor backdates its start."""
        messages = _withdrawals(S5[:2], start=0.0, rate=10.0)
        messages.append(
            Update.announce(
                40.0, 2, S5[5], PathAttributes(as_path=ASPath([2, 5]), next_hop=2)
            )
        )
        messages += _withdrawals(S7[:15], start=100.0)
        trace = ColumnarTrace.from_messages(messages)

        columnar, per_message = self._engines()
        for run in _single_peer_runs(trace, [2, 3]):
            columnar.process_columnar_run(run)
        for message in messages:
            per_message.process_message(message)

        assert columnar.results == per_message.results
        result = columnar.force_inference(100.2)
        expected = per_message.force_inference(100.2)
        assert result == expected
        assert result.burst_start == pytest.approx(100.0)
        assert result.withdrawals_seen == 15


class TestTriggerRowWithAnnouncements:
    """Regression: a trigger-crossing UPDATE carrying announcements.

    ``process_message`` runs the trigger check in the withdrawal branch and
    applies the *same message's* announcements afterwards, so an
    announcement clearing an already-withdrawn prefix on the trigger row
    must not be visible to that inference.  The columnar burst span used to
    bulk-record the whole row (withdrawals and announcements) before
    inferring, which shrank the already-withdrawn set.
    """

    def _stream(self):
        messages = _withdrawals(S6[:30], start=100.0)
        # The 30th message crosses the trigger (trigger=30); give it an
        # announcement re-announcing an already-withdrawn prefix too.
        trigger_row = Update(
            timestamp=100.031,
            peer_as=2,
            announcements=(
                Update.announce(
                    100.031, 2, S6[0],
                    PathAttributes(as_path=ASPath([2, 3, 6]), next_hop=2),
                ).announcements[0],
            ),
            withdrawals=(S6[30],),
        )
        messages.append(trigger_row)
        messages += _withdrawals(S6[31:40], start=100.04)
        return messages

    def test_columnar_matches_per_message_on_mixed_trigger_row(self):
        config = _config(start_threshold=10, trigger=31)
        messages = self._stream()
        trace = ColumnarTrace.from_messages(messages)

        per_message = InferenceEngine(session_rib(), config=config)
        per_message.process_batch(messages)

        for max_run in (None, 5):
            columnar = InferenceEngine(session_rib(), config=config)
            for run in trace.iter_batches(max_run=max_run):
                columnar.process_columnar_run(run)
            assert columnar.results == per_message.results
            assert columnar.results, "the stream must cross the trigger"
            assert columnar.current_rib() == per_message.current_rib()


class TestNotificationResetsTheEngine:
    """A NOTIFICATION empties the engine's view of the session, on both paths."""

    def _stream(self):
        # Two quiet withdrawals and a NOTIFICATION; the session returns with
        # S7 only, bursts and closes mid-burst; it returns with S8, which
        # then fails.
        messages = _withdrawals(S6[:2], start=0.0)
        messages.append(Notification(timestamp=1.0, peer_as=2))
        messages.append(OpenMessage(timestamp=2.0, peer_as=2))
        messages += [
            Update.announce(3.0, 2, prefix, PathAttributes(as_path=ASPath([2, 5, 6, 7]), next_hop=2))
            for prefix in S7[:40]
        ]
        messages += _withdrawals(S7[:11], start=10.0)
        messages.append(Notification(timestamp=10.5, peer_as=2))
        messages += [
            Update.announce(11.0, 2, prefix, PathAttributes(as_path=ASPath([2, 5, 6, 8]), next_hop=2))
            for prefix in S8
        ]
        messages += _withdrawals(S8[:12], start=20.0)
        return messages

    def test_columnar_matches_per_message_across_resets(self):
        config = _config(start_threshold=10, trigger=12)
        messages = self._stream()
        trace = ColumnarTrace.from_messages(messages)

        per_message = InferenceEngine(session_rib(), config=config)
        states = []
        for message in messages:
            per_message.process_message(message)
            if isinstance(message, Notification):
                assert index_view(per_message) == ({}, {}, {})
                assert not per_message._recent_withdrawals
                assert not per_message.detector.is_bursting
                assert per_message.withdrawals_in_current_burst == 0
        # The mid-burst reset ran no inference; the last burst scores S8 only.
        assert len(per_message.results) == 1
        assert per_message.results[0].prediction.predicted_prefixes == frozenset(S8)

        for max_run in (None, 7):
            columnar = InferenceEngine(session_rib(), config=config)
            for run in trace.iter_batches(max_run=max_run):
                columnar.process_columnar_run(run)
            assert columnar.results == per_message.results
            assert index_view(columnar) == index_view(per_message)
            assert list(columnar._recent_withdrawals) == list(per_message._recent_withdrawals)
            assert columnar.detector.events == per_message.detector.events
            assert columnar.detector.state == per_message.detector.state


class TestRecordRunWindows:
    """`record_run` row-window edges (it is a public, duck-typed API)."""

    def test_empty_window_records_nothing(self):
        from repro.core.fit_score import FitScoreCalculator

        trace = ColumnarTrace()
        for index, prefix in enumerate(S6[:10]):
            trace.withdraw(float(index), 2, prefix)
        (run,) = trace.iter_batches()
        for calculator_class in (FitScoreCalculator, ReferenceFitScoreCalculator):
            calculator = calculator_class(session_rib())
            assert calculator.record_run(run, 0, 0) == 0
            assert calculator.record_run(run, 5, 5) == 0
            assert calculator.record_run(run, 5, 3) == 0
            assert calculator.total_withdrawals == 0
            assert calculator.record_run(run) == 10
            assert calculator.total_withdrawals == 10


class TestEmptyPathRoutes:
    """A prefix announced with an empty AS path crosses no link, yet it is a
    route of the session: the RIB view keeps it, it scores no link and no
    prediction names it — on both entry families and through
    ``apply_rib_delta``, exactly as under the oracle calculator."""

    EMPTY = prefix_block("99.0.0.0/24", 3)

    def _rib(self):
        rib = session_rib()
        rib[self.EMPTY[0]] = ASPath(())
        return rib

    def _stream(self):
        empty = PathAttributes(as_path=ASPath(()), next_hop=2)
        messages = [Update.announce(1.0, 2, self.EMPTY[1], empty)]
        messages += _withdrawals([self.EMPTY[0]] + S6[:30] + [self.EMPTY[1]], start=100.0)
        # Re-announced mid-burst: clears its withdrawal, still on no link.
        messages.append(Update.announce(100.05, 2, self.EMPTY[1], empty))
        return messages

    def _engines(self):
        config = _config(trigger=20)
        return (
            InferenceEngine(self._rib(), config=config, local_as=1, peer_as=2),
            reference_engine(self._rib(), config=config, local_as=1, peer_as=2),
        )

    def _assert_linkless(self, engine, oracle, held):
        assert index_view(engine) == index_view(oracle)
        rib, _, prefixes_of_link = index_view(engine)
        for prefix in held:
            assert rib[prefix] == ASPath(())
        assert not any(
            prefix in members for members in prefixes_of_link.values() for prefix in self.EMPTY
        )

    @pytest.mark.parametrize("max_run", ["per_message", None, 5])
    def test_in_band(self, max_run):
        messages = self._stream()
        engine, oracle = self._engines()
        for each in (engine, oracle):
            if max_run == "per_message":
                each.process_batch(messages)
            else:
                for run in ColumnarTrace.from_messages(messages).iter_batches(max_run=max_run):
                    each.process_columnar_run(run)
        assert engine.results == oracle.results
        assert engine.results, "the burst must cross the trigger"
        for result in engine.results:
            assert result.withdrawals_seen >= 20
            assert not result.prediction.predicted_prefixes & set(self.EMPTY)
        self._assert_linkless(engine, oracle, self.EMPTY[:2])

    def test_through_apply_rib_delta(self):
        engine, oracle = self._engines()
        for each in (engine, oracle):
            each.apply_rib_delta({self.EMPTY[2]: ASPath(()), self.EMPTY[0]: None})
        assert self.EMPTY[0] not in engine.current_rib()
        self._assert_linkless(engine, oracle, self.EMPTY[2:])
        for each in (engine, oracle):
            each.apply_rib_delta({self.EMPTY[2]: ASPath([2, 5, 6])})
        assert index_view(engine) == index_view(oracle)
        assert self.EMPTY[2] in engine.index.prefixes_via([(5, 6)])
