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
plus a construction probe proving the native SWIFTED path materialises
zero ``BGPMessage`` objects.
"""

import os
import pickle

import pytest

from oracles.object_replay import replay_stream_objects

from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import replay_stream
from repro.traces import columnar
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    cached_columnar_stream,
)

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
    generator_stream = SyntheticTraceGenerator(_CORPUS).stream()
    return [
        (
            peer.peer_as,
            cached_columnar_stream(_CORPUS, peer.peer_as),
            generator_stream.rib_of(peer.peer_as),
        )
        for peer in generator_stream.peers
    ]


@pytest.fixture(scope="module")
def session_matrix(tmp_path_factory):
    """(cold sessions, warm sessions) over a private trace cache.

    The first build generates every stream into columns; the second runs
    against the now-populated cache, so its streams come off the cached
    entries — the warm half of the matrix.
    """
    previous = os.environ.get("REPRO_TRACE_CACHE")
    cache_dir = str(tmp_path_factory.mktemp("columnar_matrix_cache"))
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    try:
        cold = _sessions()
        assert any(name.startswith("stream-") for name in os.listdir(cache_dir))
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

    def test_native_swifted_path_materialises_no_messages(self, session_matrix):
        """Construction probe: zero `message_at` calls on the native path."""
        calls = []
        original = columnar.ColumnarTrace.message_at

        def counting(self, index):
            calls.append(index)
            return original(self, index)

        columnar.ColumnarTrace.message_at = counting
        try:
            native, _ = _replay(replay_stream, session_matrix[0], swifted=True)
            message_count = sum(result.message_count for result in native)
            assert message_count > 0
            assert calls == []
            _replay(replay_stream_objects, session_matrix[0], swifted=True)
            assert len(calls) == message_count
        finally:
            columnar.ColumnarTrace.message_at = original
