"""Month-replay regressions.

The looped backup-alternate path for colliding origin ASes, RIB interning
across a payload round trip, unknown-peer failure parity between the
object and columnar speaker paths, empty-batch edges, and run chunking
smaller than one run, and a dropped router or replay freed by reference
counting.
"""

import gc
import weakref

import pytest

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.core.swifted_router import SwiftedRouter
from repro.experiments.month_replay import (
    BACKUP_ORIGIN_AS,
    BACKUP_PEER_AS,
    StreamReplayer,
    _chunked_runs,
    backup_alternates,
    replay_stream,
)
from repro.traces.columnar import ColumnarTrace, decode_rib, encode_rib


class TestRibInterning:
    def test_rib_interned_before_payload_export(self):
        # A RIB prefix that never appears in the stream must still resolve
        # after a payload round trip: interning happens before the export.
        stream = ColumnarTrace()
        stream.announce(
            1.0, 9, Prefix.from_string("10.0.0.0/24"),
            PathAttributes(as_path=ASPath([9, 6]), next_hop=9),
        )
        silent_prefix = Prefix.from_string("99.0.0.0/24")
        rib = {silent_prefix: ASPath([9, 8, 7])}
        prefix_column, path_column = encode_rib(rib, stream.pool)
        restored = ColumnarTrace.from_payload(stream.to_payload())
        restored_rib = decode_rib(prefix_column, path_column, restored.pool)
        assert restored_rib == rib
        result = replay_stream(restored, restored_rib, peer_as=9, swifted=False)
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


class TestReferenceCycles:
    """Nothing a router or a replay owns refers back to it, so dropping one
    frees it at once: one router is built per replayed session and per
    simulated burst, and none may wait for a full collection."""

    def test_dropped_router_and_replays_are_freed_without_the_collector(self):
        rib = {p: ASPath([2, 5, 6]) for p in prefix_block("10.0.0.0/24", 4)}
        gc.disable()
        try:
            router = SwiftedRouter(1)
            router.add_peer(2)
            router.add_peer(3)
            router.load_initial_routes(2, rib)
            router.load_initial_routes(3, {p: ASPath([3, 6]) for p in rib}, local_pref=50)
            router.provision()
            replayer = StreamReplayer(rib, 2, collect_events=True)
            bare = StreamReplayer(rib, 2, swifted=False)
            stream = ColumnarTrace()
            stream.withdraw(1.0, 2, min(rib))
            replayer.feed(stream)
            bare.feed(stream)
            owners = (router, router.speaker, replayer, replayer.router, bare, bare.speaker)
            refs = [weakref.ref(owner) for owner in owners]
            del owners
            del router, replayer, bare
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


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
        heard = []
        speaker.add_best_route_listener(heard.extend)
        assert speaker.receive_batch([]) is None
        assert speaker.begin_batch().commit() is None
        assert heard == []
        assert speaker.routed_prefixes() == frozenset()

    def test_empty_columnar_source_is_a_no_op(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        heard = []
        speaker.add_best_route_listener(heard.extend)
        assert speaker.receive_columnar([]) is None
        assert speaker.receive_columnar(ColumnarTrace()) is None
        assert heard == []
        assert speaker.routed_prefixes() == frozenset()


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
