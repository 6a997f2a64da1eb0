"""Column-native inference parity matrix.

The tentpole claim of the column-native refactor: driving the whole replay
stack — speaker *and* inference engines — straight from the columns changes
nothing observable.  Asserted here as a matrix over

* router mode: SWIFTED (engines, reroutes) x speaker-only,
* cache temperature: cold (streams generated into columns this process) x
  warm (streams reloaded from the trace cache),

replaying every session of a small corpus one at a time (§4.1: inference
is per session) and comparing the pickled tuple of per-session
``MonthReplayResult.signature()``s, ordered by peer AS, *byte-for-byte*
between the column-native path (``replay_stream``) and the materialising
object path (the test-side driver ``tests/oracles/object_replay.py``),
plus a construction probe proving that the native SWIFTED path, a router
built with defaults and a bare speaker's table load materialise zero
``BGPMessage`` objects.
"""

import os
import pickle
from collections import Counter

import pytest

from oracles.object_replay import replay_stream_objects

from repro.bgp.messages import Notification, OpenMessage
from repro.bgp.speaker import BGPSpeaker
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig, SwiftedRouter
from repro.experiments.month_replay import BACKUP_PEER_AS, backup_alternates, replay_stream
from repro.traces import columnar
from repro.traces.columnar import ColumnarTrace
from repro.traces.fulltable import FullTableConfig, FullTableGenerator
from repro.traces.synthetic import SyntheticTraceConfig, cached_trace

#: Small enough for tier-1, bursty enough that SWIFT demonstrably fires:
#: seed 17 places real bursts on 3 of the 4 peers, so the SWIFTED half of
#: the matrix reroutes.
_CORPUS = SyntheticTraceConfig(
    peer_count=4,
    duration_days=4.0,
    min_table_size=1500,
    max_table_size=4000,
    burst_size_minimum=400,
    noise_rate_per_second=0.01,
    seed=17,
)

_SWIFT = SwiftConfig(
    inference=InferenceConfig(
        schedule=TriggeringSchedule(steps=((300, 100000),), unconditional_after=500)
    )
)


def _sessions():
    """``(peer AS, stream, pre-trace RIB)`` for every peer of the corpus."""
    trace = cached_trace(_CORPUS)
    return [
        (peer.peer_as, trace.messages_of(peer.peer_as), trace.rib_of(peer.peer_as))
        for peer in trace.peers
    ]


@pytest.fixture(scope="module")
def session_matrix(tmp_path_factory):
    """(cold sessions, warm sessions) over a private trace cache.

    The first build generates the trace, every session into columns; the
    second runs against the now-populated cache, so its streams come off
    the cached entry — the warm half of the matrix.
    """
    previous = os.environ.get("REPRO_TRACE_CACHE")
    cache_dir = str(tmp_path_factory.mktemp("columnar_matrix_cache"))
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    try:
        cold = _sessions()
        assert any(name.startswith("trace-") for name in os.listdir(cache_dir))
        warm = _sessions()
        return cold, warm
    finally:
        if previous is None:
            del os.environ["REPRO_TRACE_CACHE"]
        else:
            os.environ["REPRO_TRACE_CACHE"] = previous


def _replay(replay, sessions, swifted):
    """``(per-session results by peer AS, pickled signature tuple)``.

    ``replay`` is ``replay_stream`` (column-native) or the object-path
    oracle ``replay_stream_objects``.
    """
    results = sorted(
        (
            replay(
                stream,
                rib,
                peer_as,
                swifted=swifted,
                swift_config=_SWIFT if swifted else None,
                collect_events=True,
            )
            for peer_as, stream, rib in sessions
        ),
        key=lambda result: result.peer_as,
    )
    return results, pickle.dumps(tuple(result.signature() for result in results))


class TestColumnarEnginePathParityMatrix:
    @pytest.mark.parametrize("temperature", ["cold", "warm"])
    @pytest.mark.parametrize("swifted", [True, False], ids=["swifted", "speaker_only"])
    def test_signature_byte_identical_to_object_path(
        self, session_matrix, temperature, swifted
    ):
        sessions = session_matrix[0] if temperature == "cold" else session_matrix[1]
        native, native_bytes = _replay(replay_stream, sessions, swifted)
        _, object_bytes = _replay(replay_stream_objects, sessions, swifted)
        assert native_bytes == object_bytes
        if swifted:
            assert sum(result.reroutes for result in native) > 0, (
                "the corpus must exercise the reroute path"
            )
        else:
            assert sum(result.losses for result in native) > 0, (
                "withdrawal bursts must surface loss events"
            )

    def test_cold_and_warm_payloads_replay_identically(self, session_matrix):
        cold, warm = session_matrix
        _, cold_bytes = _replay(replay_stream, cold, swifted=True)
        _, warm_bytes = _replay(replay_stream, warm, swifted=True)
        assert cold_bytes == warm_bytes

    def test_native_swifted_path_materialises_no_messages(
        self, session_matrix, monkeypatch
    ):
        """Construction probe: zero `message_at` calls on the native path."""
        calls = _count_message_at(monkeypatch)
        native, _ = _replay(replay_stream, session_matrix[0], swifted=True)
        message_count = sum(result.message_count for result in native)
        assert message_count > 0
        assert calls == []
        _replay(replay_stream_objects, session_matrix[0], swifted=True)
        assert len(calls) == message_count

    @pytest.mark.parametrize("config", [None, _SWIFT], ids=["default", "firing"])
    def test_default_router_walks_the_columns(self, session_matrix, monkeypatch, config):
        """A router built with defaults takes the column walk on `receive_columnar`.

        ``config`` is the router's ``SwiftConfig``: the default, or a
        schedule under which the corpus's bursts reroute.
        """
        peer_as, stream, rib = max(
            session_matrix[0], key=lambda session: session[1].message_count
        )
        messages = _with_session_reset(stream.to_messages(), peer_as)
        trace = ColumnarTrace.from_messages(messages)

        def build():
            router = SwiftedRouter(1, config=config)
            router.add_peer(peer_as)
            router.load_initial_routes(peer_as, rib)
            router.add_peer(BACKUP_PEER_AS)
            router.load_initial_routes(BACKUP_PEER_AS, backup_alternates(rib), local_pref=50)
            router.provision()
            changes = []
            router.speaker.add_best_route_listener(changes.extend)
            return router, changes

        reference, reference_changes = build()
        expected_actions = reference.receive_batch(messages)
        router, changes = build()
        calls = _count_message_at(monkeypatch)
        actions = router.receive_columnar(trace)
        assert calls == []
        assert actions == expected_actions
        assert bool(actions) == (config is not None)
        assert _outcome(router.speaker, changes) == _outcome(
            reference.speaker, reference_changes
        )

    def test_default_speaker_table_load_walks_the_columns(self, monkeypatch):
        """A bare speaker loads a columnar table without building a message."""
        table = FullTableGenerator(
            FullTableConfig(prefix_count=3000, peer_count=3, seed=5)
        ).generate()
        messages = _with_session_reset(table.columnar_table().to_messages(), table.peers[0])
        trace = ColumnarTrace.from_messages(messages)

        def build():
            speaker = BGPSpeaker(65000)
            for peer_as in table.peers:
                speaker.add_peer(peer_as)
            changes = []
            speaker.add_best_route_listener(changes.extend)
            return speaker, changes

        reference, reference_changes = build()
        reference.receive_batch(messages)
        speaker, changes = build()
        calls = _count_message_at(monkeypatch)
        speaker.receive_columnar(trace)
        assert calls == []
        assert _outcome(speaker, changes) == _outcome(reference, reference_changes)


def _count_message_at(monkeypatch):
    """Patch `ColumnarTrace.message_at` to record the row of every call."""
    calls = []
    original = columnar.ColumnarTrace.message_at

    def counting(self, index):
        calls.append(index)
        return original(self, index)

    monkeypatch.setattr(columnar.ColumnarTrace, "message_at", counting)
    return calls


def _with_session_reset(messages, peer_as):
    """``messages`` with a NOTIFICATION and then an OPEN from ``peer_as`` midway."""
    middle = len(messages) // 2
    at = messages[middle].timestamp
    reset = [
        Notification(timestamp=at, peer_as=peer_as, reason="reset"),
        OpenMessage(timestamp=at, peer_as=peer_as),
    ]
    return messages[:middle] + reset + messages[middle:]


def _outcome(speaker, changes):
    """Loc-RIB, best-route change multiset and per-session state and counters."""

    def route(entry):
        return None if entry is None else (entry.peer_as, entry.next_hop, entry.as_path.asns)

    loc_rib = {entry.prefix: route(entry) for entry in speaker.loc_rib.best_entries()}
    multiset = Counter((change.prefix, route(change.old), route(change.new)) for change in changes)
    sessions = [(session.peer_as, session.state, session.stats) for session in speaker.sessions()]
    return loc_rib, multiset, sessions
