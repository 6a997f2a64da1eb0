"""Column-native inference parity matrix.

The tentpole claim of the column-native refactor: driving the whole replay
stack — speaker *and* inference engines — straight from the columns changes
nothing observable.  Asserted here as a matrix over

* router mode: SWIFTED (engines, reroutes) x speaker-only,
* cache temperature: cold (streams generated into columns this process) x
  warm (streams reloaded through the mmap-backed ``.cols`` store),

comparing ``FleetReplayResult.signature()`` *byte-for-byte* (pickled) between
the column-native path and the materialising object path (the test-side
driver ``tests/oracles/object_replay.py``), plus a construction probe proving
the native SWIFTED path materialises zero ``BGPMessage`` objects.
"""

import os
import pickle

import pytest

from oracles.object_replay import replay_jobs_objects

from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.replay import build_session_jobs, replay_jobs
from repro.traces import columnar

#: Same corpus shape as the fleet parity suite: small enough for tier-1,
#: bursty enough that SWIFT demonstrably fires on several sessions.
from repro.traces.synthetic import SyntheticTraceConfig

#: Seed 17 places real bursts on 3 of the 4 peers (same corpus as the fleet
#: parity suite), so the SWIFTED half of the matrix demonstrably reroutes.
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


@pytest.fixture(scope="module")
def job_matrix(tmp_path_factory):
    """(cold jobs, warm jobs) over a private trace cache.

    The first build generates every stream into columns; the second runs
    against the now-populated cache, so its payloads come off the cached
    entries — the warm half of the matrix.
    """
    previous = os.environ.get("REPRO_TRACE_CACHE")
    cache_dir = str(tmp_path_factory.mktemp("columnar_matrix_cache"))
    os.environ["REPRO_TRACE_CACHE"] = cache_dir
    try:
        cold = build_session_jobs(_CORPUS)
        assert any(name.startswith("stream-") for name in os.listdir(cache_dir))
        warm = build_session_jobs(_CORPUS)
        return cold, warm
    finally:
        if previous is None:
            del os.environ["REPRO_TRACE_CACHE"]
        else:
            os.environ["REPRO_TRACE_CACHE"] = previous


def _signature_bytes(jobs, swifted):
    """Column-native replay: ``(result, pickled signature)``."""
    result = replay_jobs(
        jobs,
        workers=1,
        swifted=swifted,
        swift_config=_SWIFT if swifted else None,
    )
    return result, pickle.dumps(result.signature())


def _materialised_bytes(jobs, swifted):
    """Pickled signature of the same replay through the object-path oracle."""
    result = replay_jobs_objects(
        jobs, swifted=swifted, swift_config=_SWIFT if swifted else None
    )
    return pickle.dumps(result.signature())


class TestColumnarEnginePathParityMatrix:
    @pytest.mark.parametrize("temperature", ["cold", "warm"])
    @pytest.mark.parametrize("swifted", [True, False], ids=["swifted", "speaker_only"])
    def test_signature_byte_identical_to_object_path(
        self, job_matrix, temperature, swifted
    ):
        jobs = job_matrix[0] if temperature == "cold" else job_matrix[1]
        native, native_bytes = _signature_bytes(jobs, swifted)
        assert native_bytes == _materialised_bytes(jobs, swifted)
        if swifted:
            assert native.reroutes > 0, "the corpus must exercise the reroute path"
        else:
            assert native.losses > 0, "withdrawal bursts must surface loss events"

    def test_cold_and_warm_payloads_replay_identically(self, job_matrix):
        cold, warm = job_matrix
        _, cold_bytes = _signature_bytes(cold, swifted=True)
        _, warm_bytes = _signature_bytes(warm, swifted=True)
        assert cold_bytes == warm_bytes

    def test_native_swifted_path_materialises_no_messages(self, job_matrix):
        """Construction probe: zero `message_at` calls on the native path."""
        calls = []
        original = columnar.ColumnarTrace.message_at

        def counting(self, index):
            calls.append(index)
            return original(self, index)

        columnar.ColumnarTrace.message_at = counting
        try:
            native, _ = _signature_bytes(job_matrix[0], swifted=True)
            assert native.message_count > 0
            assert calls == []
            _materialised_bytes(job_matrix[0], swifted=True)
            assert len(calls) == native.message_count
        finally:
            columnar.ColumnarTrace.message_at = original
