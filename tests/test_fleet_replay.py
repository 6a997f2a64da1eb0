"""Fleet replay parity and month-replay regressions.

The fleet driver's core claim — that a process-pool replay of a corpus is
*byte-identical* to sequential replay — is asserted here over a small
multi-session corpus, for both the SWIFTED path (reroute multisets) and the
speaker-only path (loss/recovery multisets).  Alongside ride the
month-replay regressions: the looped backup-alternate path for colliding
origin ASes, unknown-peer failure parity between the object and columnar
speaker paths, empty-batch edges, and run chunking smaller than one run.
"""

import pickle

import pytest

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import (
    BACKUP_ORIGIN_AS,
    BACKUP_PEER_AS,
    _chunked_runs,
    backup_alternates,
    replay_stream,
)
from repro.replay import (
    SessionJob,
    build_session_jobs,
    format_fleet_result,
    replay_fleet,
    replay_jobs,
)
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import SyntheticTraceConfig

#: A corpus small enough for tier-1 but with real bursts on several
#: sessions (seed 17 places 14 bursts across 3 of the 4 peers).
_CORPUS = SyntheticTraceConfig(
    peer_count=4,
    duration_days=4.0,
    min_table_size=1500,
    max_table_size=4000,
    burst_size_minimum=400,
    noise_rate_per_second=0.01,
    seed=17,
)

#: Lowered trigger so SWIFT demonstrably fires on the small bursts.
_SWIFT = SwiftConfig(
    inference=InferenceConfig(
        schedule=TriggeringSchedule(steps=((300, 100000),), unconditional_after=500)
    )
)


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    import os

    previous = os.environ.get("REPRO_TRACE_CACHE")
    os.environ["REPRO_TRACE_CACHE"] = str(tmp_path_factory.mktemp("fleet_cache"))
    try:
        return build_session_jobs(_CORPUS)
    finally:
        if previous is None:
            del os.environ["REPRO_TRACE_CACHE"]
        else:
            os.environ["REPRO_TRACE_CACHE"] = previous


class TestFleetParity:
    def test_swifted_fleet_matches_sequential_byte_identically(self, jobs):
        sequential = replay_jobs(jobs, workers=1, swift_config=_SWIFT)
        fleet = replay_jobs(jobs, workers=4, swift_config=_SWIFT)
        assert fleet.workers == 4 and sequential.workers == 1
        assert pickle.dumps(fleet.signature()) == pickle.dumps(sequential.signature())
        assert fleet.reroutes > 0, "the corpus must exercise the reroute path"
        assert [r.peer_as for r in fleet.sessions] == sorted(
            r.peer_as for r in fleet.sessions
        )
        # Every session replays every row of its stream.
        assert {r.peer_as: r.message_count for r in sequential.sessions} == {
            job.peer_as: ColumnarTrace.from_payload(job.payload).message_count
            for job in jobs
        }

    def test_speaker_only_fleet_matches_sequential(self, jobs):
        sequential = replay_jobs(jobs, workers=1, swifted=False)
        fleet = replay_jobs(jobs, workers=4, swifted=False)
        assert pickle.dumps(fleet.signature()) == pickle.dumps(sequential.signature())
        assert fleet.losses > 0, "withdrawal bursts must surface loss events"
        assert fleet.loss_events == sequential.loss_events
        assert fleet.recovery_events == sequential.recovery_events

    def test_aggregates_sum_per_session_counters(self, jobs):
        fleet = replay_jobs(jobs, workers=2, swifted=False)
        assert fleet.message_count == sum(r.message_count for r in fleet.sessions)
        assert fleet.losses == sum(r.losses for r in fleet.sessions)
        assert sum(count for _, count in fleet.loss_events) == fleet.losses

    def test_format_fleet_result_renders_all_sessions(self, jobs):
        fleet = replay_jobs(jobs, workers=1, swifted=False)
        rendered = format_fleet_result(fleet)
        for session in fleet.sessions:
            assert str(session.peer_as) in rendered
        assert "total" in rendered

    def test_replay_fleet_end_to_end(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        config = SyntheticTraceConfig(
            peer_count=2,
            duration_days=1.0,
            min_table_size=400,
            max_table_size=800,
            noise_rate_per_second=0.02,
            seed=23,
        )
        result = replay_fleet(config, workers=2, swifted=False)
        assert result.session_count == 2
        assert result.message_count > 0


class TestSessionJobs:
    def test_job_payloads_are_raw_buffers(self, jobs):
        job = jobs[0]
        assert isinstance(job.rib_prefix, bytes) and isinstance(job.rib_path, bytes)
        flat = pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"repro.bgp" not in flat, "jobs must not pickle message objects"

    def test_rib_interned_before_payload_export(self):
        # A RIB prefix that never appears in the stream must still resolve
        # in the worker: interning happens before the payload snapshot.
        stream = ColumnarTrace()
        stream.announce(
            1.0, 9, Prefix.from_string("10.0.0.0/24"),
            PathAttributes(as_path=ASPath([9, 6]), next_hop=9),
        )
        silent_prefix = Prefix.from_string("99.0.0.0/24")
        rib = {silent_prefix: ASPath([9, 8, 7])}
        job = SessionJob.from_stream(9, stream, rib)
        result = replay_stream(
            ColumnarTrace.from_payload(job.payload),
            rib,
            peer_as=9,
            swifted=False,
        )
        assert result.message_count == 1


class TestBackupAlternates:
    def test_colliding_origin_no_longer_builds_a_looped_path(self):
        """Regression: origin == BACKUP_PEER_AS used to yield [64512, 64512]."""
        prefix = Prefix.from_string("10.0.0.0/24")
        rib = {prefix: ASPath([2, 5, BACKUP_PEER_AS])}
        alternates = backup_alternates(rib)
        path = alternates[prefix]
        assert not path.has_loop()
        assert path.asns == (BACKUP_PEER_AS, BACKUP_ORIGIN_AS)

    def test_normal_origin_is_reused(self):
        prefix = Prefix.from_string("10.0.0.0/24")
        alternates = backup_alternates({prefix: ASPath([2, 5, 6])})
        assert alternates[prefix].asns == (BACKUP_PEER_AS, 6)

    def test_empty_path_falls_back_to_synthetic_origin(self):
        prefix = Prefix.from_string("10.0.0.0/24")
        alternates = backup_alternates({prefix: ASPath([])})
        assert alternates[prefix].asns == (BACKUP_PEER_AS, BACKUP_ORIGIN_AS)

    def test_colliding_origin_prefix_is_actually_protected(self):
        """End-to-end: the colliding-origin prefix keeps a usable backup."""
        prefixes = prefix_block("10.0.0.0/24", 8)
        rib = {p: ASPath([2, 5, BACKUP_PEER_AS]) for p in prefixes[:4]}
        rib.update({p: ASPath([2, 5, 6]) for p in prefixes[4:]})
        stream = ColumnarTrace()
        stream.withdraw(1.0, 2, prefixes[0])
        result = replay_stream(stream, rib, peer_as=2, swifted=True)
        assert result.message_count == 1
        # The withdrawal must NOT be a loss of reachability: the backup
        # session still announces a loop-free alternate for the prefix.
        assert result.losses == 0


class TestSpeakerFailureParity:
    """`receive` and the columnar paths must fail identically."""

    def _columnar_run(self, peer_as):
        trace = ColumnarTrace()
        trace.withdraw(1.0, peer_as, Prefix.from_string("10.0.0.0/24"))
        return next(trace.iter_batches())

    def test_unknown_peer_raises_keyerror_on_every_path(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        message = Update.withdraw(1.0, 999, Prefix.from_string("10.0.0.0/24"))
        run = self._columnar_run(999)
        with pytest.raises(KeyError, match="999"):
            speaker.receive(message)
        with pytest.raises(KeyError, match="999"):
            speaker.receive_columnar([run])
        with pytest.raises(KeyError, match="999"):
            speaker.begin_batch().add_columnar_run(run)
        with pytest.raises(KeyError, match="999"):
            speaker.receive_batch([message])

    def test_unknown_peer_failure_leaves_no_partial_state(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        with pytest.raises(KeyError):
            speaker.receive_columnar([self._columnar_run(999)])
        assert speaker.routed_prefixes() == frozenset()

    def test_empty_batch_is_a_no_op(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        assert speaker.receive_batch([]) == []
        assert speaker.begin_batch().commit() == []

    def test_empty_columnar_source_is_a_no_op(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        assert speaker.receive_columnar([]) == []
        assert speaker.receive_columnar(ColumnarTrace()) == []


class TestChunkedRuns:
    def _trace(self):
        trace = ColumnarTrace()
        p = prefix_block("10.0.0.0/24", 10)
        for index in range(10):
            trace.withdraw(float(index), 2, p[index])  # one long same-peer run
        trace.withdraw(10.0, 3, p[0])
        return trace

    def test_chunks_smaller_than_a_run_split_without_reordering(self):
        trace = self._trace()
        chunks = list(_chunked_runs(trace, chunk_messages=3))
        assert all(
            sum(len(run) for run in chunk) <= 3 or len(chunk) == 1
            for chunk in chunks
        )
        replayed = [
            message
            for chunk in chunks
            for run in chunk
            for message in run
        ]
        assert replayed == trace.to_messages()

    def test_chunked_replay_matches_unchunked(self):
        # Single-peer trace: replay_stream configures only one session.
        trace = ColumnarTrace()
        p = prefix_block("10.0.0.0/24", 10)
        attrs = PathAttributes(as_path=ASPath([2, 5, 6]), next_hop=2)
        for index in range(10):
            trace.announce(float(index), 2, p[index], attrs)
        rib = {}
        small = replay_stream(
            trace, rib, peer_as=2, swifted=False, chunk_messages=2, collect_events=True
        )
        big = replay_stream(
            trace, rib, peer_as=2, swifted=False, chunk_messages=10 ** 6,
            collect_events=True,
        )
        assert small.message_count == big.message_count == trace.message_count
        assert small.chunks > big.chunks
        assert small.signature() == big.signature()

    def test_empty_stream_yields_no_chunks(self):
        assert list(_chunked_runs(ColumnarTrace(), chunk_messages=5)) == []
