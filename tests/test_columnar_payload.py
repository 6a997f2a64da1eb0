"""Raw-buffer payloads, slices and the sealed-segment frame.

The contracts under test:

* ``to_payload()`` exports nothing but primitives (``bytes`` buffers,
  the format version, the tiny extras dict) and ``from_payload()`` rebuilds
  an identical trace — the trace cache's entry body;
* ``slice(start, stop)`` produces standalone traces (rebased bound columns,
  shared pool) equal to slicing the message stream;
* a sealed segment is one append-log frame of that payload and reloads
  into an identical trace;
* ``cached_trace`` memoises a synthetic trace as one cache entry, serves
  its sessions' columns from it, and rebuilds cleanly from a corrupt one.
"""

import os
import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bgp.attributes import ASPath, Community, Origin, PathAttributes
from repro.bgp.messages import KeepAlive, Notification, OpenMessage, Update
from repro.bgp.prefix import prefix_block
from repro.traces.columnar import ColumnarTrace, InternPool
from repro.traces.columnar_store import read_trace, write_trace
from repro.traces.trace_cache import load_or_build
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    cached_trace,
)


def _stream_messages():
    """A two-peer stream covering every message kind and update shape."""
    p = prefix_block("10.0.0.0/24", 40)
    rich = PathAttributes(
        as_path=ASPath([2, 5, 6]),
        next_hop=2,
        local_pref=250,
        med=17,
        origin=Origin.INCOMPLETE,
        communities=frozenset({Community(2, 100), Community(2, 200)}),
    )
    messages = [OpenMessage(0.0, 2, hold_time=30.0)]
    for index in range(120):
        timestamp = 1.0 + index * 0.5
        peer = 2 if index % 3 else 3
        if index % 4 == 0:
            messages.append(Update.withdraw(timestamp, peer, p[index % 40]))
        elif index % 7 == 0:
            messages.append(
                Update(
                    timestamp=timestamp,
                    peer_as=peer,
                    announcements=(),
                    withdrawals=(p[index % 40], p[(index + 1) % 40]),
                )
            )
        else:
            attrs = rich if index % 2 else PathAttributes(
                as_path=ASPath([peer, 7, 6]), next_hop=peer
            )
            messages.append(Update.announce(timestamp, peer, p[index % 40], attrs))
    messages.append(KeepAlive(70.0, 2))
    messages.append(
        Notification(71.0, 3, error_code=6, error_subcode=1, reason="shutdown")
    )
    return messages


@pytest.fixture(scope="module")
def messages():
    return _stream_messages()


@pytest.fixture(scope="module")
def trace(messages):
    return ColumnarTrace.from_messages(messages)


class TestPayloads:
    def test_round_trip_is_identity(self, trace, messages):
        assert ColumnarTrace.from_payload(trace.to_payload()).to_messages() == messages

    def test_payload_holds_only_primitives(self, trace):
        payload = trace.to_payload()
        assert isinstance(payload["format"], int)
        assert all(isinstance(buf, bytes) for buf in payload["pool"].values())
        for name in (
            "msg_time", "msg_peer", "msg_kind", "wd_end", "ann_end",
            "wd_prefix", "ann_prefix", "ann_attr",
        ):
            assert isinstance(payload[name], bytes), name

    def test_payload_pickle_carries_no_message_objects(self, trace):
        # The transport property: pickling a payload never walks an object
        # graph, so no repro class name appears in the pickle stream.
        flat = pickle.dumps(trace.to_payload(), protocol=pickle.HIGHEST_PROTOCOL)
        assert b"repro.bgp" not in flat

    def test_version_mismatch_refuses_to_restore(self, trace):
        payload = trace.to_payload()
        payload["format"] = 999
        with pytest.raises(ValueError, match="v999"):
            ColumnarTrace.from_payload(payload)

    def test_restored_trace_interns_further_appends(self, trace, messages):
        restored = ColumnarTrace.from_payload(trace.to_payload())
        before = restored.pool.prefix_count
        restored.append(messages[1])  # announcement of an already-interned prefix
        assert restored.pool.prefix_count == before


class TestSlices:
    @pytest.mark.parametrize("bounds", [(10, 40), (0, 1), (100, 200)])
    def test_slice_matches_message_slice(self, trace, messages, bounds):
        start, stop = bounds
        expected = messages[start:stop]
        sliced = trace.slice(start, stop)
        assert sliced.to_messages() == expected
        assert sliced.message_count == len(expected)

    def test_slice_is_replayable_standalone(self, trace):
        sliced = trace.slice(10, 40)
        runs = list(sliced.iter_batches())
        assert sum(len(run) for run in runs) == sliced.message_count
        assert sliced.withdrawal_total == sum(run.withdrawal_count() for run in runs)

    def test_slice_shares_the_pool(self, trace):
        assert trace.slice(10, 40).pool is trace.pool

    def test_empty_and_full_slices(self, trace, messages):
        assert trace.slice(500, 600).to_messages() == []
        assert trace.slice(0, len(messages)).to_messages() == messages

    def test_slice_clamps_out_of_range_indices(self, trace, messages):
        assert trace.slice(-5, 10 ** 9).to_messages() == messages

    def test_slice_keeps_extras(self, trace, messages):
        tail = trace.slice(len(messages) - 2, len(messages))
        kinds = [type(m).__name__ for m in tail.to_messages()]
        assert kinds == ["KeepAlive", "Notification"]
        notification = tail.to_messages()[-1]
        assert notification.reason == "shutdown"


class TestSliceEdgeCases:
    """`slice()` degenerate bounds: every case must yield a *well-formed*
    (possibly empty) trace — rebased bound columns, replayable through
    `iter_batches()` — equal to slicing the message list."""

    @pytest.fixture(scope="class")
    def dup_trace(self):
        """A small trace with *repeated* timestamps."""
        from repro.bgp.attributes import ASPath as _ASPath, PathAttributes as _PA
        from repro.bgp.prefix import Prefix as _Prefix

        trace = ColumnarTrace()
        prefix = _Prefix.from_string("10.0.0.0/24")
        attrs = _PA(as_path=_ASPath([2, 5, 6]), next_hop=2)
        for timestamp in (0.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 5.0):
            trace.announce(timestamp, 2, prefix, attrs)
        for timestamp in (5.0, 6.0):
            trace.withdraw(timestamp, 2, prefix)
        return trace

    @pytest.mark.parametrize(
        "bounds",
        [(7, 3), (-5, 3), (4, 4), (7, 9), (5, 10 ** 9), (10 ** 6, 10 ** 6 + 5)],
    )
    def test_degenerate_bounds_match_list_slicing(self, dup_trace, bounds):
        start, stop = bounds
        expected = dup_trace.to_messages()[max(start, 0) : stop]
        loaded = dup_trace.slice(start, stop)
        assert loaded.to_messages() == expected
        assert loaded.message_count == len(expected)
        # Well-formed: rebased bounds line up with the per-prefix columns
        # and the slice replays standalone.
        assert (loaded.wd_end[-1] if len(loaded.wd_end) else 0) == len(
            loaded.wd_prefix
        )
        assert (loaded.ann_end[-1] if len(loaded.ann_end) else 0) == len(
            loaded.ann_prefix
        )
        runs = list(loaded.iter_batches())
        assert sum(len(run) for run in runs) == len(expected)

    def test_empty_trace_slices(self):
        empty = ColumnarTrace()
        for start, stop in [(0, 1), (1, 0), (5, 5)]:
            assert empty.slice(start, stop).to_messages() == []


class TestColumnStore:
    """A sealed segment: one append-log frame holding the trace's payload."""

    def test_full_load_round_trips(self, tmp_path, trace, messages):
        path = str(tmp_path / "trace.sealed")
        write_trace(path, trace)
        assert read_trace(path).to_messages() == messages

    def test_empty_trace_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.sealed")
        write_trace(path, ColumnarTrace())
        assert read_trace(path).to_messages() == []

    def test_slice_round_trips(self, tmp_path, trace, messages):
        # A slice's rebased bound columns and re-indexed extras are what the
        # frame holds; reading them back must give the same messages.
        path = str(tmp_path / "slice.sealed")
        write_trace(path, trace.slice(10, len(messages)))
        assert read_trace(path).to_messages() == messages[10:]


class TestColumnarCacheLayout:
    @pytest.fixture
    def cache_dir(self, tmp_path, monkeypatch):
        directory = tmp_path / "cache"
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(directory))
        return directory

    @pytest.fixture
    def config(self):
        return SyntheticTraceConfig(
            peer_count=2,
            duration_days=1.0,
            min_table_size=400,
            max_table_size=800,
            noise_rate_per_second=0.02,
            seed=23,
        )

    @staticmethod
    def _sessions(trace):
        return [trace.messages_of(peer.peer_as).to_messages() for peer in trace.peers]

    def test_cached_trace_roundtrip(self, cache_dir, config):
        generated = cached_trace(config)  # miss: generates
        reloaded = cached_trace(config)  # hit: frame load
        assert self._sessions(reloaded) == self._sessions(generated)
        names = os.listdir(cache_dir)
        assert len(names) == 1 and names[0].endswith(".pkl")

    def test_hit_does_not_regenerate(self, cache_dir, config, monkeypatch):
        generated = cached_trace(config)

        def regenerate(*args, **kwargs):
            pytest.fail("a cache hit must not run the generator")

        monkeypatch.setattr(SyntheticTraceGenerator, "stream", regenerate)
        assert self._sessions(cached_trace(config)) == self._sessions(generated)

    def test_corrupt_entry_rebuilds(self, cache_dir, config):
        generated = cached_trace(config)
        (entry,) = cache_dir.iterdir()
        entry.write_bytes(b"garbage")
        rebuilt = cached_trace(config)
        assert self._sessions(rebuilt) == self._sessions(generated)


# -- one serialisation: every durable form is the payload ----------------------

_PREFIXES = prefix_block("10.0.0.0/24", 8)

_ATTRIBUTES = st.builds(
    PathAttributes,
    as_path=st.lists(st.integers(1, 9), min_size=1, max_size=4).map(ASPath),
    next_hop=st.integers(1, 9),
    local_pref=st.sampled_from([100, 200]),
    med=st.sampled_from([0, 17]),
    origin=st.sampled_from(list(Origin)),
    communities=st.frozensets(
        st.builds(Community, st.just(2), st.integers(0, 3)), max_size=2
    ),
)

_MESSAGE = st.one_of(
    st.builds(
        Update.announce,
        st.floats(0, 1e6),
        st.integers(1, 9),
        st.sampled_from(_PREFIXES),
        _ATTRIBUTES,
    ),
    st.builds(
        Update.withdraw, st.floats(0, 1e6), st.integers(1, 9), st.sampled_from(_PREFIXES)
    ),
    st.builds(
        Notification,
        st.floats(0, 1e6),
        st.integers(1, 9),
        error_code=st.integers(1, 6),
        error_subcode=st.integers(0, 3),
        reason=st.sampled_from(["", "reset"]),
    ),
    st.builds(KeepAlive, st.floats(0, 1e6), st.integers(1, 9)),
)


@st.composite
def _traces(draw):
    """One to three traces (any may be empty), some sharing one pool."""
    shared = InternPool()
    traces = []
    for _ in range(draw(st.integers(1, 3))):
        pool = shared if draw(st.booleans()) else None
        traces.append(
            ColumnarTrace.from_messages(draw(st.lists(_MESSAGE, max_size=12)), pool=pool)
        )
    return traces


class TestOneSerialisation:
    """A trace's two durable forms — a sealed segment and a trace-cache entry
    (miss, then hit), both one frame of its payload — and the raw payload
    itself all give back its messages."""

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(traces=_traces())
    def test_every_round_trip_gives_back_the_messages(self, traces):
        with tempfile.TemporaryDirectory() as directory, pytest.MonkeyPatch.context() as patch:
            patch.setenv("REPRO_TRACE_CACHE", os.path.join(directory, "cache"))
            for index, trace in enumerate(traces):
                expected = trace.to_messages()
                payload = pickle.loads(pickle.dumps(trace.to_payload()))
                assert ColumnarTrace.from_payload(payload).to_messages() == expected

                path = os.path.join(directory, f"trace-{index}.sealed")
                write_trace(path, trace)
                assert read_trace(path).to_messages() == expected

                builds = []

                def build(trace=trace):
                    builds.append(1)
                    return trace

                for _ in range(2):
                    cached = load_or_build(
                        "stream",
                        f"property-{index}",
                        build,
                        format_version=1,
                        encode=ColumnarTrace.to_payload,
                        decode=ColumnarTrace.from_payload,
                    )
                    assert cached.to_messages() == expected
                assert builds == [1], "the second load must be a hit"
