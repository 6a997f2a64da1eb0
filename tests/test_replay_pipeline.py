"""Parity tests for the batch-first replay pipeline.

Three equivalences underpin the batched/incremental fast paths:

* ``BGPSpeaker.receive_batch`` == per-message ``receive`` (final Loc-RIB and
  the set of loss-of-reachability / recovery events), including batches where
  several messages touch the same prefix;
* incremental ``SwiftedRouter.provision()`` == a from-scratch rebuild (tags,
  backup table, engine RIB views, and the inference results of a subsequent
  burst);
* the incremental running-sum aggregation == the reference ``score_set``
  re-summation.
"""

import random

import pytest

from oracles.reroute_walk import backup_table

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.casestudy.testbed import build_fig1_scenario
from repro.casestudy.vanilla import VanillaRouterModel
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.fit_score import FitScoreCalculator
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig


def _attrs(path, next_hop, local_pref=100):
    return PathAttributes(as_path=ASPath(path), next_hop=next_hop, local_pref=local_pref)


def _speaker(peers=(2, 3, 4)):
    speaker = BGPSpeaker(1)
    for peer in peers:
        speaker.add_peer(peer)
    return speaker


def _heard(speaker):
    """Register a collecting best-route listener; return the list it fills."""
    heard = []
    speaker.add_best_route_listener(heard.extend)
    return heard


def _loc_rib_snapshot(speaker):
    """(best routes, candidate routes) snapshot for state comparison."""
    best = {
        prefix: (entry.peer_as, entry.as_path.asns)
        for prefix, entry in speaker.loc_rib.best_entries()
    }
    candidates = {
        prefix: sorted(
            (entry.peer_as, entry.as_path.asns)
            for entry in speaker.loc_rib.candidates(prefix)
        )
        for prefix in set(best).union(
            *(session.rib_in.prefixes() for session in speaker.sessions())
        )
    }
    return best, candidates


def _event_sets(changes):
    losses = sorted(c.prefix for c in changes if c.is_loss_of_reachability)
    recoveries = sorted(c.prefix for c in changes if c.is_recovery)
    return losses, recoveries


def _random_messages(prefixes, rng, count=400, peers=(2, 3, 4)):
    """A randomised mixed announce/withdraw stream over a small prefix set.

    Prefixes repeat freely across messages, which is exactly the case where
    batching must still report transient blackholes.
    """
    messages = []
    for step in range(count):
        peer = peers[rng.randrange(len(peers))]
        prefix = prefixes[rng.randrange(len(prefixes))]
        timestamp = step * 0.01
        if rng.random() < 0.45:
            messages.append(Update.withdraw(timestamp, peer, prefix))
        else:
            path = [peer, 5 + rng.randrange(3), 9]
            messages.append(
                Update.announce(
                    timestamp, peer, prefix, _attrs(path, peer, 100 + 10 * peer)
                )
            )
    return messages


class TestSpeakerBatchParity:
    def test_final_state_and_events_match_per_message(self):
        prefixes = prefix_block("10.0.0.0/24", 40)
        rng = random.Random(3)
        messages = _random_messages(prefixes, rng)

        sequential = _speaker()
        per_message_changes = _heard(sequential)
        for message in messages:
            sequential.receive(message)

        batched = _speaker()
        batched_changes = _heard(batched)
        batched.receive_batch(messages)

        assert _loc_rib_snapshot(batched) == _loc_rib_snapshot(sequential)
        assert _event_sets(batched_changes) == _event_sets(per_message_changes)

    def test_transient_blackhole_is_reported(self):
        """Withdraw-then-reannounce of the same prefix in one batch."""
        prefix = Prefix.from_string("10.1.0.0/24")
        speaker = _speaker(peers=(2,))
        speaker.receive(Update.announce(0.0, 2, prefix, _attrs([2, 6], 2)))

        batch = [
            Update.withdraw(1.0, 2, prefix),
            Update.announce(2.0, 2, prefix, _attrs([2, 7, 6], 2)),
        ]
        changes = _heard(speaker)
        speaker.receive_batch(batch)
        losses, recoveries = _event_sets(changes)
        assert losses == [prefix]
        assert recoveries == [prefix]
        assert speaker.best_route(prefix).as_path.asns == (2, 7, 6)

    def test_same_message_withdraw_and_announce_coalesces(self):
        """One UPDATE withdrawing and re-announcing a prefix stays atomic."""
        prefix = Prefix.from_string("10.1.0.0/24")
        for batched in (False, True):
            speaker = _speaker(peers=(2,))
            speaker.receive(Update.announce(0.0, 2, prefix, _attrs([2, 6], 2)))
            update = Update(
                timestamp=1.0,
                peer_as=2,
                withdrawals=(prefix,),
                announcements=(
                    Update.announce(1.0, 2, prefix, _attrs([2, 7, 6], 2)).announcements[0]
                ,),
            )
            changes = _heard(speaker)
            if batched:
                speaker.receive_batch([update])
            else:
                speaker.receive(update)
            losses, recoveries = _event_sets(changes)
            assert losses == [] and recoveries == []

    def test_looped_candidates_do_not_mask_or_fake_events(self):
        """A looped-path announcement is unusable: no phantom recovery, and
        a withdrawal leaving only looped candidates is still a loss."""
        prefix = Prefix.from_string("10.1.0.0/24")

        # Phantom recovery: withdraw the only route, announce a looped path.
        for batched in (False, True):
            speaker = _speaker(peers=(2, 3))
            speaker.receive(Update.announce(0.0, 2, prefix, _attrs([2, 6], 2)))
            batch = [
                Update.withdraw(1.0, 2, prefix),
                Update.announce(2.0, 3, prefix, _attrs([3, 7, 3], 3)),
            ]
            changes = _heard(speaker)
            if batched:
                speaker.receive_batch(batch)
            else:
                for message in batch:
                    speaker.receive(message)
            losses, recoveries = _event_sets(changes)
            assert losses == [prefix], (batched, losses)
            assert recoveries == [], (batched, recoveries)
            assert speaker.best_route(prefix) is None

        # Masked loss: the surviving candidate has a loop.
        for batched in (False, True):
            speaker = _speaker(peers=(2, 3))
            speaker.receive(Update.announce(0.0, 2, prefix, _attrs([2, 6], 2)))
            speaker.receive(Update.announce(0.5, 3, prefix, _attrs([3, 7, 3], 3)))
            withdraw = Update.withdraw(1.0, 2, prefix)
            changes = _heard(speaker)
            if batched:
                speaker.receive_batch([withdraw])
            else:
                speaker.receive(withdraw)
            losses, _ = _event_sets(changes)
            assert losses == [prefix], (batched, losses)

    def test_listeners_see_every_change_once(self):
        prefixes = prefix_block("10.0.0.0/24", 20)
        rng = random.Random(11)
        messages = _random_messages(prefixes, rng, count=150)

        speaker = _speaker()
        calls = []
        speaker.add_best_route_listener(calls.append)
        speaker.receive_batch(messages)
        (heard,) = calls  # once per batch
        # The final changes close the list: one per prefix whose best route
        # moved, here every routed prefix.
        routed = dict(speaker.loc_rib.best_entries())
        final = heard[len(heard) - len(routed):]
        assert {change.prefix: change.new for change in final} == routed
        sequential = _speaker()
        per_message = _heard(sequential)
        for message in messages:
            sequential.receive(message)
        assert _event_sets(heard) == _event_sets(per_message)

    def test_batch_decision_runs_once_per_touched_prefix(self):
        """Distinct prefixes in one batch yield exactly one change each."""
        prefixes = prefix_block("10.0.0.0/24", 30)
        speaker = _speaker(peers=(2,))
        batch = [
            Update.announce(float(i), 2, prefix, _attrs([2, 6], 2))
            for i, prefix in enumerate(prefixes)
        ]
        changes = _heard(speaker)
        speaker.receive_batch(batch)
        assert len(changes) == len(prefixes)
        assert sorted(c.prefix for c in changes) == sorted(prefixes)


def _small_swift_config():
    return SwiftConfig(
        inference=InferenceConfig(
            detector=BurstDetectorConfig(start_threshold=100, stop_threshold=1),
            schedule=TriggeringSchedule(steps=((200, 10 ** 6),), unconditional_after=200),
        ),
        encoder=EncoderConfig(prefix_threshold=50),
    )


def _loaded_router(prefix_count=800):
    s6 = prefix_block("60.0.0.0/24", prefix_count)
    router = SwiftedRouter(1, _small_swift_config())
    for peer in (2, 3, 4):
        router.add_peer(peer)
    router.load_initial_routes(2, {p: ASPath([2, 5, 6]) for p in s6}, local_pref=200)
    router.load_initial_routes(3, {p: ASPath([3, 6]) for p in s6}, local_pref=100)
    router.load_initial_routes(4, {p: ASPath([4, 5, 6]) for p in s6}, local_pref=150)
    return router, s6


def _engine_snapshot(router):
    return {
        peer: dict(router.engine_for(peer).current_rib())
        for peer in router.speaker.peer_ases
    }


class TestIncrementalProvisionParity:
    def _churn(self, router, s6, extra):
        """Quiet-time churn after the first provision: withdrawals and moves."""
        messages = []
        # Slow withdrawals on AS 2 (spaced out: never a burst).
        for i, prefix in enumerate(s6[:30]):
            messages.append(Update.withdraw(100.0 + i * 30.0, 2, prefix))
        # Path changes on AS 4.
        for i, prefix in enumerate(s6[30:60]):
            messages.append(
                Update.announce(
                    110.0 + i * 30.0, 4, prefix, _attrs([4, 8, 6], 4, 150)
                )
            )
        messages.sort(key=lambda m: m.timestamp)
        router.receive_batch(messages)
        # Out-of-band: new routes loaded directly (bypassing the engines).
        router.load_initial_routes(
            3, {p: ASPath([3, 9, 6]) for p in extra}, timestamp=2000.0, local_pref=100
        )
        return messages

    def test_incremental_matches_full_rebuild(self):
        extra = prefix_block("70.0.0.0/24", 50)

        warm, s6 = _loaded_router()
        warm.provision()
        churn = self._churn(warm, s6, extra)
        warm.provision()
        assert warm.last_provision_stats["mode"] == 1, "expected the incremental path"

        cold, _ = _loaded_router()
        cold.provision()
        self._churn(cold, s6, extra)
        cold.provision(full_rebuild=True)
        assert cold.last_provision_stats["mode"] == 0

        assert warm.encoded_tags.tags == cold.encoded_tags.tags
        assert warm.encoded_tags.next_hop_ids == cold.encoded_tags.next_hop_ids
        assert backup_table(warm) == backup_table(cold)
        assert _engine_snapshot(warm) == _engine_snapshot(cold)

        # The engines produce identical inferences on a subsequent burst.
        burst = [
            Update.withdraw(5000.0 + i * 0.001, 2, prefix)
            for i, prefix in enumerate(s6[60:460])
        ]
        warm_actions = warm.receive_batch(list(burst))
        cold_actions = cold.receive_batch(list(burst))
        assert [a.inferred_links for a in warm_actions] == [
            a.inferred_links for a in cold_actions
        ]
        assert [a.rerouted_prefixes for a in warm_actions] == [
            a.rerouted_prefixes for a in cold_actions
        ]
        warm_results = warm.engine_for(2).results
        cold_results = cold.engine_for(2).results
        assert warm_results == cold_results

    def test_clean_reprovision_is_a_noop(self):
        router, s6 = _loaded_router(prefix_count=300)
        encoded_first = router.provision()
        encoded_second = router.provision()
        assert router.last_provision_stats == {
            "mode": 1,
            "dirty_prefixes": 0,
            "engine_deltas": 0,
        }
        # Nothing changed: the provision-time artefacts are reused as-is.
        assert encoded_second is encoded_first
        # Engines survive (same objects), instead of being rebuilt.
        engine = router.engine_for(2)
        router.provision()
        assert router.engine_for(2) is engine

    def test_warm_provision_clears_swift_rules(self):
        """Re-provisioning restores BGP-derived forwarding on both paths."""
        from repro.core.swifted_router import SWIFT_RULE_PRIORITY

        router, s6 = _loaded_router()
        router.provision()
        burst = [
            Update.withdraw(10.0 + i * 0.001, 2, prefix)
            for i, prefix in enumerate(s6[:400])
        ]
        actions = router.receive_batch(burst)
        assert actions, "the burst should trigger a reroute"
        router.provision()
        assert router.last_provision_stats["mode"] == 1
        # No SWIFT-priority rules survive a warm provision.
        assert router.forwarding.clear_rules(min_priority=SWIFT_RULE_PRIORITY) == 0

    def test_peer_set_change_forces_rebuild(self):
        router, s6 = _loaded_router(prefix_count=200)
        router.provision()
        router.add_peer(7)
        router.load_initial_routes(7, {p: ASPath([7, 6]) for p in s6[:50]})
        router.provision()
        assert router.last_provision_stats["mode"] == 0
        assert 7 in router.encoded_tags.next_hop_ids


class TestIncrementalAggregateParity:
    def test_score_from_counts_matches_score_set(self):
        rib = {}
        prefixes = prefix_block("20.0.0.0/24", 600)
        rng = random.Random(5)
        for prefix in prefixes:
            mid = 50 + rng.randrange(6)
            tail = 90 + rng.randrange(4)
            rib[prefix] = ASPath([2, mid, tail])
        calculator = FitScoreCalculator(rib)
        withdrawn = [p for p in prefixes if rib[p].asns[1] in (50, 51)]
        calculator.record_withdrawals(withdrawn[: len(withdrawn) // 2])

        scores = calculator.all_scores()
        assert len(scores) >= 2
        links = [score.links[0] for score in scores]
        for size in range(2, len(links) + 1):
            subset = links[:size]
            reference = calculator.score_set(subset)
            running_w = sum(calculator.withdrawal_count(l) for l in subset)
            running_p = sum(calculator.still_routed_count(l) for l in subset)
            incremental = calculator.score_from_counts(subset, running_w, running_p)
            assert incremental == reference


class TestVanillaSpeakerReplay:
    def test_transient_blackhole_counted_once(self):
        """Withdraw-then-reannounce of the sole route: one FIB-install slot.

        The batched replay emits both a synthetic recovery and the coalesced
        final change for such a prefix; the pipeline must not charge the
        per-prefix install cost twice.
        """
        from repro.casestudy.testbed import Fig1Scenario

        prefixes = prefix_block("60.0.0.0/24", 3)
        burst = []
        for index, prefix in enumerate(prefixes):
            burst.append(Update.withdraw(0.001 * index, 2, prefix))
            burst.append(
                Update.announce(
                    0.001 * index + 0.0005,
                    2,
                    prefix,
                    PathAttributes(as_path=ASPath([2, 9, 6]), next_hop=2, local_pref=200),
                )
            )
        scenario = Fig1Scenario(
            prefix_count=len(prefixes),
            prefixes=list(prefixes),
            routes_via_peer={2: {p: ASPath([2, 5, 6]) for p in prefixes}},
            local_pref_of_peer={2: 200},
            failed_link=(5, 6),
            surviving_next_hops=frozenset({2}),
            burst_messages=burst,
            probe_prefixes=list(prefixes),
            failure_time=0.0,
        )
        model = VanillaRouterModel()
        result = model.converge_scenario_with_speaker(scenario)
        assert set(result.recovery_time_of) == set(prefixes)
        per_prefix = (
            model.timing.per_prefix_processing_seconds
            + model.timing.per_prefix_seconds
        )
        # Three prefixes -> at most three serial install slots (plus the
        # arrival offsets); a double-counted prefix would exceed this.
        assert result.total_convergence_seconds <= 3 * per_prefix + 0.01

    def test_speaker_replay_recovers_everything_via_survivor(self):
        scenario = build_fig1_scenario(prefix_count=2000, seed=4)
        model = VanillaRouterModel()
        analytic = model.converge_scenario(scenario)
        speaker_based = model.converge_scenario_with_speaker(scenario)
        # Every prefix recovers (AS 3 survives), through the real decision
        # process, and the convergence time matches the analytic pipeline.
        assert len(speaker_based.recovery_time_of) == scenario.prefix_count
        assert speaker_based.total_convergence_seconds == pytest.approx(
            analytic.total_convergence_seconds, rel=0.05
        )
