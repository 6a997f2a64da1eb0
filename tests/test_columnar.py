"""Columnar trace substrate: round-trip parity, batched-replay equivalence,
cache-key hardening and profile-grouped backup parity.

The contracts under test:

* object stream -> columns -> object stream is the identity (all message
  kinds, update packing, implicit withdraws, AS-path edge cases);
* replaying a stream via ``iter_batches()`` through the speaker / SWIFTED
  router produces the same Loc-RIB, loss/recovery events, inference results
  and reroute actions as the object-based paths;
* trace-cache keys embed the cache and columnar format versions plus the
  full (default-inclusive) parameter fingerprint, so stale entries miss
  cleanly and are never half-loaded;
* profile-grouped ``BackupComputer.compute_table`` matches the ungrouped
  reference exactly (and capacity-limited policies fall back to it).
"""

import os
import pickle
import random

import pytest

from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.messages import KeepAlive, Notification, OpenMessage, Update
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.backup import BackupComputer, ReroutingPolicy
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig, InferenceEngine
from repro.traces import trace_cache
from repro.traces.columnar_store import SegmentAppendLog
from repro.traces.columnar import (
    COLUMNAR_FORMAT_VERSION,
    ColumnarMessageView,
    ColumnarTrace,
    InternPool,
    decode_rib,
    encode_rib,
)
from repro.traces.mrt import TraceReader, TraceWriter, messages_to_records, records_to_columnar
from repro.experiments.common import burst_corpus, cached_corpus
from repro.traces.synthetic import (
    SyntheticTrace,
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    cached_trace,
)


def _attrs(path, next_hop, local_pref=100, **kwargs):
    return PathAttributes(
        as_path=ASPath(path), next_hop=next_hop, local_pref=local_pref, **kwargs
    )


def _mixed_stream():
    """A small stream covering every encoding corner."""
    p = prefix_block("10.0.0.0/24", 6)
    rich = PathAttributes(
        as_path=ASPath([2, 5, 6]),
        next_hop=2,
        local_pref=250,
        med=17,
        origin=Origin.INCOMPLETE,
        communities=frozenset({Community(2, 100), Community(2, 200)}),
    )
    return [
        OpenMessage(0.0, 2, hold_time=30.0),
        Update.announce(1.0, 2, p[0], rich),
        # AS-path prepending.
        Update.announce(1.5, 2, p[1], _attrs([2, 2, 2, 5, 6], 2)),
        # Empty AS path (e.g. locally originated).
        Update.announce(1.7, 2, p[2], _attrs([], 2)),
        Update.withdraw(2.0, 2, p[0]),
        # Implicit withdraw: re-announcement of p[1] over another path.
        Update.announce(2.5, 2, p[1], _attrs([2, 7, 6], 2)),
        # Update packing: announcements + withdrawals in one message.
        Update(
            timestamp=3.0,
            peer_as=3,
            announcements=(
                Update.announce(3.0, 3, p[3], _attrs([3, 6], 3)).announcements[0],
                Update.announce(3.0, 3, p[4], _attrs([3, 6], 3)).announcements[0],
            ),
            withdrawals=(p[5], p[2]),
        ),
        KeepAlive(4.0, 2),
        Notification(5.0, 3, error_code=4, error_subcode=1, reason="reset"),
        # Re-announcement with the exact same attributes (interned).
        Update.announce(6.0, 2, p[0], rich),
    ]


class TestColumnarRoundTrip:
    def test_object_stream_round_trips_identically(self):
        messages = _mixed_stream()
        trace = ColumnarTrace.from_messages(messages)
        assert trace.to_messages() == messages

    def test_round_trip_survives_pickling(self):
        messages = _mixed_stream()
        blob = pickle.dumps(
            ColumnarTrace.from_messages(messages).to_payload(),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert ColumnarTrace.from_payload(pickle.loads(blob)).to_messages() == messages

    def test_interning_shares_materialised_objects(self):
        messages = _mixed_stream()
        back = ColumnarTrace.from_messages(messages).to_messages()
        first, again = back[1], back[-1]
        assert first.announcements[0] is again.announcements[0]
        assert first.announcements[0].attributes is again.announcements[0].attributes

    def test_aggregates_match_object_counts(self):
        messages = _mixed_stream()
        trace = ColumnarTrace.from_messages(messages)
        withdrawals = sum(
            len(m.withdrawals) for m in messages if isinstance(m, Update)
        )
        announcements = sum(
            len(m.announcements) for m in messages if isinstance(m, Update)
        )
        assert trace.withdrawal_total == withdrawals
        assert trace.announcement_total == announcements
        view = trace.view()
        assert view.withdrawal_count() == withdrawals
        assert view.announcement_count() == announcements
        assert view.first_timestamp == messages[0].timestamp
        assert view.last_timestamp == messages[-1].timestamp

    def test_format_version_mismatch_refuses_to_restore(self):
        payload = ColumnarTrace.from_messages(_mixed_stream()).to_payload()
        payload["format"] = COLUMNAR_FORMAT_VERSION + 1
        with pytest.raises(ValueError):
            ColumnarTrace.from_payload(payload)

    def test_communities_at_on_fresh_pool(self):
        """Regression: entry 0 (the empty set) must not shift later entries."""
        pool = InternPool()
        first = pool.intern_communities(frozenset({Community(65000, 1)}))
        second = pool.intern_communities(frozenset({Community(65000, 2)}))
        assert pool.communities_at(0) == frozenset()
        assert pool.communities_at(first) == frozenset({Community(65000, 1)})
        assert pool.communities_at(second) == frozenset({Community(65000, 2)})

    def test_append_after_restore_reuses_interned_entries(self):
        """A pickle-restored pool must not duplicate table entries on append."""
        messages = _mixed_stream()
        restored = pickle.loads(
            pickle.dumps(
                ColumnarTrace.from_messages(messages),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        )
        pool = restored.pool
        prefixes_before = pool.prefix_count
        attributes_before = pool.attribute_count
        restored.extend(messages)
        assert pool.prefix_count == prefixes_before
        assert pool.attribute_count == attributes_before
        assert restored.to_messages() == messages + messages

    def test_rib_columns_round_trip(self):
        prefixes = prefix_block("20.0.0.0/24", 50)
        rib = {p: ASPath([2, 40 + i % 5, 90]) for i, p in enumerate(prefixes)}
        pool = InternPool()
        prefix_column, path_column = encode_rib(rib, pool)
        assert decode_rib(prefix_column, path_column, pool) == rib

    def test_mrt_records_parse_into_columns(self, tmp_path):
        # The line-oriented MRT format cannot represent empty AS paths (an
        # empty field parses back as "no path"), so skip that corner here;
        # the columnar round-trip above covers it.
        messages = [
            m
            for m in _mixed_stream()
            if isinstance(m, (Update, Notification))
            and not any(len(a.attributes.as_path) == 0 for a in getattr(m, "announcements", ()))
        ]
        records = messages_to_records(messages)
        path = str(tmp_path / "dump.txt")
        with TraceWriter(path) as writer:
            writer.write_all(records)
        trace = TraceReader(path).read_columnar()
        # The MRT format splits packed updates one prefix per record, so
        # compare at the record level: re-encoding the decoded stream gives
        # the same records.
        assert messages_to_records(trace.to_messages()) == records
        assert trace.withdrawal_total == sum(
            len(m.withdrawals) for m in messages if isinstance(m, Update)
        )


class TestIterBatches:
    def test_runs_group_consecutive_same_peer_messages(self):
        trace = ColumnarTrace.from_messages(_mixed_stream())
        runs = list(trace.iter_batches())
        assert [run.peer_as for run in runs] == [2, 3, 2, 3, 2]
        assert sum(len(run) for run in runs) == len(trace)
        flattened = [m for run in runs for m in run]
        assert flattened == trace.to_messages()

    def test_max_run_splits_without_reordering(self):
        trace = ColumnarTrace.from_messages(_mixed_stream())
        runs = list(trace.iter_batches(max_run=2))
        assert all(len(run) <= 2 for run in runs)
        assert [m for run in runs for m in run] == trace.to_messages()
        assert all(
            len({trace.msg_peer[i] for i in run._indices}) == 1 for run in runs
        )


def _random_messages(prefixes, rng, count=500, peers=(2, 3, 4)):
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


def _speaker(peers=(2, 3, 4)):
    speaker = BGPSpeaker(1)
    for peer in peers:
        speaker.add_peer(peer)
    return speaker


def _loc_rib_snapshot(speaker):
    best = {
        entry.prefix: (entry.peer_as, entry.as_path.asns)
        for entry in speaker.loc_rib.best_entries()
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


class TestColumnarReplayParity:
    def test_speaker_columnar_matches_object_and_per_message(self):
        prefixes = prefix_block("10.0.0.0/24", 40)
        messages = _random_messages(prefixes, random.Random(7))
        trace = ColumnarTrace.from_messages(messages)

        object_speaker = _speaker()
        object_changes = []
        object_speaker.add_best_route_listener(object_changes.extend)
        object_speaker.receive_batch(messages)

        columnar_speaker = _speaker()
        columnar_changes = []
        columnar_speaker.add_best_route_listener(columnar_changes.extend)
        columnar_speaker.receive_columnar(trace)

        sequential = _speaker()
        sequential_changes = []
        sequential.add_best_route_listener(sequential_changes.extend)
        for message in messages:
            sequential.receive(message)

        assert _loc_rib_snapshot(columnar_speaker) == _loc_rib_snapshot(object_speaker)
        assert _loc_rib_snapshot(columnar_speaker) == _loc_rib_snapshot(sequential)
        assert _event_sets(columnar_changes) == _event_sets(object_changes)
        assert _event_sets(columnar_changes) == _event_sets(sequential_changes)

    def test_session_stats_match_object_path(self):
        prefixes = prefix_block("10.0.0.0/24", 20)
        messages = _random_messages(prefixes, random.Random(3), count=200, peers=(2,))
        messages.append(Notification(10.0, 2, reason="maintenance"))
        trace = ColumnarTrace.from_messages(messages)

        object_speaker = _speaker(peers=(2,))
        object_speaker.receive_batch(messages)
        columnar_speaker = _speaker(peers=(2,))
        columnar_speaker.receive_columnar(trace)

        object_stats = object_speaker.session(2).stats
        columnar_stats = columnar_speaker.session(2).stats
        assert columnar_stats.messages_received == object_stats.messages_received
        assert columnar_stats.withdrawals_received == object_stats.withdrawals_received
        assert (
            columnar_stats.announcements_received
            == object_stats.announcements_received
        )
        assert columnar_stats.session_resets == object_stats.session_resets
        assert columnar_stats.last_message_at == object_stats.last_message_at
        assert (
            columnar_speaker.session(2).state == object_speaker.session(2).state
        )


def _small_swift_config():
    return SwiftConfig(
        inference=InferenceConfig(
            detector=BurstDetectorConfig(start_threshold=100, stop_threshold=1),
            schedule=TriggeringSchedule(
                steps=((200, 10 ** 6),), unconditional_after=200
            ),
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
    router.provision()
    return router, s6


class TestSwiftedColumnarParity:
    def test_reroutes_and_inferences_match_object_path(self):
        """End-to-end: same burst via receive_batch vs receive_columnar."""
        object_router, s6 = _loaded_router()
        columnar_router, _ = _loaded_router()

        burst = [
            Update.withdraw(10.0 + i * 0.001, 2, prefix)
            for i, prefix in enumerate(s6[:400])
        ]
        # Interleave a few re-announcements on another session.
        for i, prefix in enumerate(s6[:20]):
            burst.append(
                Update.announce(
                    10.05 + i * 0.001, 4, prefix, _attrs([4, 8, 6], 4, 150)
                )
            )
        burst.sort(key=lambda m: m.timestamp)
        trace = ColumnarTrace.from_messages(burst)

        object_actions = object_router.receive_batch(list(burst))
        columnar_actions = columnar_router.receive_columnar(trace)

        assert [a.inferred_links for a in columnar_actions] == [
            a.inferred_links for a in object_actions
        ]
        assert [a.rerouted_prefixes for a in columnar_actions] == [
            a.rerouted_prefixes for a in object_actions
        ]
        assert (
            columnar_router.engine_for(2).results
            == object_router.engine_for(2).results
        )
        assert _loc_rib_snapshot(columnar_router.speaker) == _loc_rib_snapshot(
            object_router.speaker
        )

    def test_inference_results_match_on_synthetic_burst_corpus(self):
        """evaluate-style equivalence over generated bursts."""
        config = SyntheticTraceConfig(
            peer_count=2,
            duration_days=4,
            min_table_size=2000,
            max_table_size=5000,
            noise_rate_per_second=0.0,
            seed=23,
        )
        trace = SyntheticTraceGenerator(config).stream()
        checked = 0
        for burst in trace.bursts[:4]:
            rib = trace.rib_of(burst.peer.peer_as)
            object_engine = InferenceEngine(rib)
            object_results = object_engine.process_batch(burst.messages)

            columnar_engine = InferenceEngine(rib)
            columnar = ColumnarTrace.from_messages(burst.messages)
            columnar_results = []
            for run in columnar.iter_batches():
                columnar_results.extend(columnar_engine.process_batch(run))
            assert columnar_results == object_results
            checked += 1
        assert checked > 0


def _same(value):
    return value


class TestTraceCacheHardening:
    def test_cache_version_bump_misses_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        builds = []

        def builder():
            builds.append(1)
            return {"value": len(builds)}

        def load():
            return trace_cache.load_or_build("unit", "spec", builder, None, _same, _same)

        first = load()
        again = load()
        assert first == again == {"value": 1}
        assert len(builds) == 1

        monkeypatch.setattr(trace_cache, "CACHE_VERSION", trace_cache.CACHE_VERSION + 1)
        rebuilt = load()
        assert rebuilt == {"value": 2}
        assert len(builds) == 2

    def test_format_version_is_part_of_the_key(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        old = trace_cache.cache_path_for("trace", "spec", format_version=1)
        new = trace_cache.cache_path_for("trace", "spec", format_version=2)
        assert old != new

    def test_stale_blob_is_rebuilt_not_half_loaded(self, tmp_path, monkeypatch):
        """A pre-columnar (or corrupt) entry under the current key rebuilds."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        path = trace_cache.cache_path_for(
            "unit", "spec", format_version=COLUMNAR_FORMAT_VERSION
        )
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        value = trace_cache.load_or_build(
            "unit",
            "spec",
            lambda: "fresh",
            format_version=COLUMNAR_FORMAT_VERSION,
            encode=_same,
            decode=_same,
        )
        assert value == "fresh"

    def test_version_mismatched_columnar_payload_rebuilds(
        self, tmp_path, monkeypatch
    ):
        """A decode failure (embedded version check) degrades to a rebuild."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        payload = ColumnarTrace.from_messages(_mixed_stream()).to_payload()
        payload["format"] = COLUMNAR_FORMAT_VERSION + 1
        path = trace_cache.cache_path_for(
            "unit", "stale", format_version=COLUMNAR_FORMAT_VERSION
        )
        with SegmentAppendLog(path) as log:
            log.append(payload)
            log.sync()
        value = trace_cache.load_or_build(
            "unit",
            "stale",
            lambda: "rebuilt",
            format_version=COLUMNAR_FORMAT_VERSION,
            encode=_same,
            decode=ColumnarTrace.from_payload,
        )
        assert value == "rebuilt"
        assert not os.path.exists(path + ".corrupt"), "stale is not corrupt"

    def test_cached_trace_reloads_like_its_generation(self, tmp_path, monkeypatch):
        """A hit decodes to what the miss generated, as the same type: every
        session's rows, RIB and bursts (ground truth and rows), and the
        corpus read from it."""
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))

        def trace_view(trace):
            return [
                (
                    trace.messages_of(peer.peer_as).to_payload(),
                    trace.rib_of(peer.peer_as),
                    [
                        (
                            b.peer,
                            b.start_time,
                            b.failed_link,
                            list(b.messages.indices),
                            b.withdrawn_prefixes,
                            b.updated_prefixes,
                            b.noise_prefixes,
                            b.popular,
                        )
                        for b in trace.bursts_of(peer.peer_as)
                    ],
                )
                for peer in trace.peers
            ]

        def corpus_view(corpus):
            return [
                (b.peer_as, list(b.messages), b.rib, b.withdrawn_prefixes, b.failed_link)
                for b in corpus
            ]

        config = SyntheticTraceConfig(
            peer_count=3,
            duration_days=6.0,
            min_table_size=2000,
            max_table_size=4000,
            noise_rate_per_second=0.01,
            seed=5,
        )
        fresh = cached_trace(config)
        assert fresh.bursts
        reloaded = cached_trace(config)
        assert type(reloaded) is type(fresh) is SyntheticTrace
        assert trace_view(reloaded) == trace_view(fresh)

        kwargs = dict(
            peer_count=3,
            duration_days=6,
            min_table_size=2000,
            max_table_size=4000,
            min_burst_size=200,
            seed=5,
        )
        generated = cached_corpus(**kwargs)
        assert generated
        assert corpus_view(cached_corpus(**kwargs)) == corpus_view(generated)
        assert corpus_view(burst_corpus(**kwargs)) == corpus_view(generated)

    def test_fingerprint_includes_defaults(self):
        base = SyntheticTraceConfig()
        tweaked = SyntheticTraceConfig(head_skew=2.3)
        assert trace_cache.fingerprint(base) != trace_cache.fingerprint(tweaked)
        assert "head_skew" in trace_cache.fingerprint(base)


def _interned(index):
    """``prefix -> the winners tuple its profile interns``, off a filled index."""
    return {prefix: profile.winners for prefix, profile in index.profile_of.items()}


class TestGroupedBackupParity:
    def _router(self, policy=None, prefix_count=600):
        s6 = prefix_block("60.0.0.0/24", prefix_count)
        config = SwiftConfig(policy=policy) if policy else None
        router = SwiftedRouter(1, config)
        for peer in (2, 3, 4, 7):
            router.add_peer(peer)
        router.load_initial_routes(2, {p: ASPath([2, 5, 6]) for p in s6}, local_pref=200)
        router.load_initial_routes(3, {p: ASPath([3, 6]) for p in s6}, local_pref=100)
        router.load_initial_routes(4, {p: ASPath([4, 5, 6]) for p in s6}, local_pref=150)
        # A second path-sharing group on a subset, so profiles differ.
        router.load_initial_routes(
            7, {p: ASPath([7, 8, 6]) for p in s6[: prefix_count // 2]}, local_pref=120
        )
        return router

    def _parity(self, computer, router):
        best = {
            entry.prefix: entry
            for entry in router.speaker.loc_rib.best_entries()
        }
        grouped = computer.compute_table(
            best,
            router.speaker.alternate_routes,
            candidates_of=router.speaker.loc_rib.candidate_map,
        )
        keyless = computer.compute_table(best, router.speaker.alternate_routes)
        reference = computer.compute_table_reference(
            best, router.speaker.alternate_routes
        )
        assert _interned(grouped) == reference
        assert _interned(keyless) == reference
        return reference

    def test_grouped_matches_reference(self):
        router = self._router()
        reference = self._parity(BackupComputer(max_depth=4), router)
        assert reference, "expected non-empty backup table"

    def test_grouped_matches_reference_with_policy(self):
        policy = ReroutingPolicy(
            forbidden_next_hops=frozenset({4}),
            preferences={3: 0, 7: 1},
            default_preference=5,
        )
        router = self._router(policy=policy)
        self._parity(BackupComputer(policy=policy), router)

    def test_grouped_matches_reference_at_depth_one(self):
        router = self._router()
        reference = self._parity(BackupComputer(max_depth=1), router)
        assert {link for winners in reference.values() for link, _ in winners} == {(2, 5)}

    def test_capacity_limits_take_the_reference_path(self):
        policy = ReroutingPolicy(capacity_limits={3: 100})
        router = self._router(policy=policy)
        computer = BackupComputer(policy=policy)
        best = {
            entry.prefix: entry
            for entry in router.speaker.loc_rib.best_entries()
        }
        grouped = computer.compute_table(
            best,
            router.speaker.alternate_routes,
            candidates_of=router.speaker.loc_rib.candidate_map,
        )
        reference = computer.compute_table_reference(
            best, router.speaker.alternate_routes
        )
        assert _interned(grouped) == reference
        # The cap bites: at most 100 prefixes rerouted onto AS 3 per link.
        per_link_counts = {}
        for winners in reference.values():
            for link, next_hop in winners:
                if next_hop == 3:
                    per_link_counts[link] = per_link_counts.get(link, 0) + 1
        assert per_link_counts, "expected AS 3 selections"
        assert sum(per_link_counts.values()) <= 100
