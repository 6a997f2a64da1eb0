"""Streaming ingestion daemon: durability, supervision and live parity.

The tentpole claims asserted here:

* a full daemon run over a synthetic corpus ingests exactly the rows an
  offline :class:`~repro.traces.mrt.TraceReader` pass over the same lines
  produces, across multiple sealed segments, with the manifest's CRCs
  verifying against the files on disk;
* windowed live inference over the ingested segments
  (:func:`repro.ingest.replay_feed`) is **byte-identical** — same
  ``signature()`` pickle — to offline ``replay_stream`` over the whole
  stream, including inference events on a bursty corpus;
* the supervisor self-heals: hung readers are cancelled by the watchdog
  and restarted at the exact resume offset, injected IO errors on read
  and append retry under the shared backoff, corrupt lines are
  counted-and-skipped, and a permanently failed feed either aborts
  (``strict=True``) or degrades gracefully with the casualty recorded in
  the manifest (``strict=False``).

Process-death recovery (the ``kill -9`` matrix) lives in
``tests/test_ingest_recovery.py``.
"""

import io
import os
import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import replay_stream
from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.ingest import (
    IngestConfig,
    IngestDaemon,
    IngestError,
    IngestManifestError,
    Manifest,
    SegmentWriter,
    SyntheticFeed,
    live,
    open_tail,
    recover_feed,
    replay_feed,
)
from repro.testing import faults
from repro.traces.columnar_store import read_trace
from repro.traces.mrt import RowParser, TraceReader, TraceRecord
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator
from repro.traces.validation import ValidationReport
from repro.util.retry import RetryPolicy

pytestmark = pytest.mark.ingest

#: Tiny corpus for daemon mechanics: two sessions, a few hundred rows.
_TINY = SyntheticTraceConfig(
    peer_count=2,
    duration_days=0.2,
    min_table_size=120,
    max_table_size=260,
    burst_size_minimum=60,
    noise_rate_per_second=0.02,
    seed=11,
)

#: Bursty corpus for the live/offline inference parity test — the columnar
#: parity matrix's corpus, whose first session (peer 2900) is known to
#: produce reroute events under the lowered triggering schedule below.
_BURSTY = SyntheticTraceConfig(
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

#: Retry policy with test-friendly backoff (sub-millisecond sleeps).
_FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.005, backoff_max=0.02)


def _peers(config):
    return [peer.peer_as for peer in SyntheticTraceGenerator(config).stream().peers]


def _feed_lines(config, peer_as):
    """The exact line sequence a SyntheticFeed serves (offline comparator)."""
    return [line for _, line in SyntheticFeed(config, peer_as).connect()]


def _offline_trace(lines):
    """One offline TraceReader pass over the concatenated feed lines."""
    text = "".join(line + "\n" for line in lines)
    return TraceReader(io.StringIO(text)).read_columnar(
        report=ValidationReport(lenient=True)
    )


def _armed(plan_text, seed=0):
    """Install an in-process fault injector; caller must disarm."""
    faults.install_injector(
        faults.FaultInjector(faults.FaultPlan.from_text(plan_text, seed=seed))
    )


@pytest.fixture
def disarm():
    yield
    faults.install_injector(None)


# -- happy path ---------------------------------------------------------------


def test_daemon_ingests_corpus_across_segments(tmp_path):
    root = str(tmp_path)
    peers = _peers(_TINY)
    feeds = [SyntheticFeed(_TINY, peer_as) for peer_as in peers]
    result = IngestDaemon(
        root, feeds, IngestConfig(flush_rows=16, segment_rows=100)
    ).run()

    manifest = Manifest.load(root)
    total_expected = 0
    for feed in feeds:
        lines = _feed_lines(_TINY, feed.peer_as)
        offline = _offline_trace(lines)
        status = result.feeds[feed.name]
        assert status.complete and status.failed is None
        assert status.rows_acked == offline.message_count
        assert status.next_offset == len(lines)
        # Small segment_rows forces several sealed segments per feed.
        assert status.segments_sealed >= 2
        state = manifest.feed_state(feed.name)
        assert state["complete"] is True
        assert manifest.sealed_rows(feed.name) == offline.message_count
        # EOF seals the tail: nothing left in an open log.
        assert open_tail(root, feed.name, manifest).message_count == 0
        total_expected += offline.message_count
    assert result.total_rows == total_expected
    assert result.failed_feeds == []
    # Every sealed segment's bytes and CRC check out against the manifest.
    assert manifest.verify() == sum(
        status.segments_sealed for status in result.feeds.values()
    )


def test_daemon_run_is_idempotent_when_complete(tmp_path):
    root = str(tmp_path)
    feeds = [SyntheticFeed(_TINY, _peers(_TINY)[0])]
    first = IngestDaemon(root, feeds, IngestConfig(segment_rows=100)).run()
    again = IngestDaemon(root, feeds, IngestConfig(segment_rows=100)).run()
    # The resume offset is at EOF, so the second run ingests nothing new.
    assert again.total_rows == first.total_rows
    status = again.feeds[feeds[0].name]
    assert status.segments_sealed == first.feeds[feeds[0].name].segments_sealed


# -- live / offline parity ----------------------------------------------------


def test_live_windows_match_offline_replay_byte_identically(tmp_path):
    root = str(tmp_path)
    peer_as = _peers(_BURSTY)[0]
    feed = SyntheticFeed(_BURSTY, peer_as)
    result = IngestDaemon(
        root, [feed], IngestConfig(flush_rows=256, segment_rows=4000)
    ).run()
    status = result.feeds[feed.name]
    assert status.segments_sealed >= 2  # the replay is genuinely windowed

    lines = _feed_lines(_BURSTY, peer_as)
    stream = _offline_trace(lines)
    assert status.rows_acked == stream.message_count

    rib = feed.rib()
    offline = replay_stream(
        stream, rib, peer_as, swift_config=_SWIFT, collect_events=True
    )
    live = replay_feed(
        root, feed.name, rib, peer_as, swift_config=_SWIFT, collect_events=True
    )
    # The corpus must actually exercise inference for parity to mean much.
    assert offline.reroutes > 0
    assert pickle.dumps(live.signature()) == pickle.dumps(offline.signature())


def test_open_tail_participates_in_windowed_replay(tmp_path):
    root = str(tmp_path)
    peer_as = _peers(_TINY)[0]
    lines = _feed_lines(_TINY, peer_as)
    manifest = Manifest.load(root)
    writer = SegmentWriter(root, "tail-feed", manifest)
    # Seal one segment, then leave rows in the open log (no roll, no EOF).
    split = len(lines) // 2
    for offset, line in enumerate(lines[:split]):
        writer.add_line(offset, line)
    writer.flush()
    writer.roll()
    for offset in range(split, len(lines)):
        writer.add_line(offset, lines[offset])
    writer.flush()
    manifest.save()
    writer.close()

    tail = open_tail(root, "tail-feed", manifest)
    assert tail.message_count == writer.open_rows
    stream = _offline_trace(lines)
    rib = SyntheticFeed(_TINY, peer_as).rib()
    offline = replay_stream(stream, rib, peer_as, collect_events=True)
    live = replay_feed(root, "tail-feed", rib, peer_as, collect_events=True)
    assert pickle.dumps(live.signature()) == pickle.dumps(offline.signature())


# -- one parser: any grouping of the same lines gives the same rows -----------

_MALFORMED = ("garbage", "A|x|2|10.0.0.0/24|2 6", "A|1.0|2||", "Z|1.0|2||", "W|1.0|2")


@st.composite
def _feed_lines_with_defects(draw):
    """Dump lines mixed with blanks, comments, malformed lines, peer 0 and
    timestamps that go backwards."""
    lines = []
    clock = 100.0
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from("AAWWRS_#!"))
        if kind == "_":
            lines.append(draw(st.sampled_from(["", "   "])))
        elif kind == "#":
            lines.append("# collector note")
        elif kind == "!":
            lines.append(draw(st.sampled_from(_MALFORMED)))
        else:
            clock += draw(st.sampled_from([-3.0, 0.0, 0.5, 2.0]))
            peer = draw(st.sampled_from([0, 2, 2, 3]))
            prefix = path = None
            if kind != "S":
                prefix = Prefix.from_string(f"10.0.{draw(st.integers(0, 3))}.0/24")
            if kind in "AR":
                path = ASPath([2, draw(st.integers(5, 7)), 6])
            text = TraceRecord(kind, clock, peer, prefix, path).to_line()
            lines.append(draw(st.sampled_from(["", "  "])) + text)
    return lines


def _counts(report):
    return report.checked, dict(report.skipped)


def _ingest(root, lines, flush_at, roll_at):
    """Lines through a SegmentWriter, flushed (and rolled) at the given
    offsets, then abandoned without a final roll — as a crash would."""
    writer = SegmentWriter(root, "feed", Manifest.load(root))
    for offset, line in enumerate(lines):
        writer.add_line(offset, line)
        if offset in flush_at:
            writer.flush()
        if offset in roll_at:
            writer.roll()
    writer.flush()
    writer.close()
    return writer


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(
    lines=_feed_lines_with_defects(),
    flush_at=st.sets(st.integers(0, 30)),
    roll_at=st.sets(st.integers(0, 30), max_size=2),
)
def test_every_reader_parses_the_same_lines_into_the_same_rows(
    lines, flush_at, roll_at
):
    line_report = ValidationReport(lenient=True)
    record_report = ValidationReport(lenient=True)
    text = "".join(line + "\n" for line in lines)
    offline = TraceReader(io.StringIO(text), report=line_report).read_columnar(
        report=record_report
    )
    expected = offline.to_messages()
    counts = (_counts(line_report), _counts(record_report))

    with tempfile.TemporaryDirectory() as root:
        # The segment writer, with flushes and rolls at drawn points, and
        # the open segment rebuilt from its log by recovery.
        writer = _ingest(root, lines, flush_at, roll_at)
        assert (_counts(writer.line_report), _counts(writer.parser.report)) == counts
        manifest = Manifest.load(root)
        recovery = recover_feed(root, "feed", manifest)
        rebuilt = SegmentWriter(root, "feed", manifest, recovery=recovery)
        rows = []
        for entry in manifest.feed_state("feed")["sealed"]:
            rows.extend(read_trace(os.path.join(root, "feed", entry["file"])).to_messages())
        rows.extend(rebuilt.trace.to_messages())
        rebuilt.close()
        assert rows == expected

    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        # The read-only open-tail rebuild over a log holding every line.
        made = []

        class Recording(RowParser):
            def add_line(self, trace, text, line_report):
                made.append((self, line_report))
                return super().add_line(trace, text, line_report)

        patch.setattr(live, "RowParser", Recording)
        _ingest(root, lines, flush_at, roll_at=())
        assert open_tail(root, "feed").to_messages() == expected
        if made:
            parser, tail_line_report = made[-1]
            assert (_counts(tail_line_report), _counts(parser.report)) == counts
        else:
            assert counts == ((0, {}), (0, {}))


# -- supervision and self-healing ---------------------------------------------


def test_watchdog_restarts_hung_reader_exactly_once_delivery(tmp_path, disarm):
    root = str(tmp_path)
    peer_as = _peers(_TINY)[0]
    feed = SyntheticFeed(_TINY, peer_as)
    # The reader hangs mid-feed; the hang outlives stall_timeout, the
    # watchdog cancels it, and the restarted reader resumes at the exact
    # offset — no loss, no duplicate.
    _armed("hang@feed.read;after=40;hang=30")
    result = IngestDaemon(
        root,
        [feed],
        IngestConfig(stall_timeout=0.4, retry=_FAST_RETRY),
    ).run()
    status = result.feeds[feed.name]
    assert status.restarts >= 1
    offline = _offline_trace(_feed_lines(_TINY, peer_as))
    assert status.rows_acked == offline.message_count
    assert status.complete


def test_reader_io_errors_self_heal(tmp_path, disarm):
    root = str(tmp_path)
    peer_as = _peers(_TINY)[0]
    feed = SyntheticFeed(_TINY, peer_as)
    _armed("io_error@feed.read;times=2;after=10")
    result = IngestDaemon(
        root, [feed], IngestConfig(retry=_FAST_RETRY, segment_rows=100)
    ).run()
    status = result.feeds[feed.name]
    assert status.restarts >= 1
    offline = _offline_trace(_feed_lines(_TINY, peer_as))
    assert status.rows_acked == offline.message_count
    assert status.complete
    assert Manifest.load(root).verify() == status.segments_sealed


def test_append_io_errors_retry_under_backoff(tmp_path, disarm):
    root = str(tmp_path)
    peer_as = _peers(_TINY)[0]
    feed = SyntheticFeed(_TINY, peer_as)
    # Two consecutive flush failures stay under max_attempts=3; the flush
    # retries against a log truncated back to its durable end.
    _armed("io_error@segment.append;times=2;after=3")
    result = IngestDaemon(
        root, [feed], IngestConfig(retry=_FAST_RETRY, segment_rows=100)
    ).run()
    status = result.feeds[feed.name]
    offline = _offline_trace(_feed_lines(_TINY, peer_as))
    assert status.rows_acked == offline.message_count
    assert status.complete


def test_corrupt_lines_are_counted_and_skipped(tmp_path, disarm):
    root = str(tmp_path)
    peer_as = _peers(_TINY)[0]
    feed = SyntheticFeed(_TINY, peer_as)
    _armed("corrupt@feed.read;times=3;after=5")
    result = IngestDaemon(root, [feed], IngestConfig(segment_rows=100)).run()
    status = result.feeds[feed.name]
    offline = _offline_trace(_feed_lines(_TINY, peer_as))
    assert status.lines_skipped == 3
    assert status.rows_acked == offline.message_count - 3
    assert status.complete


def test_strict_failure_aborts_the_run(tmp_path, disarm):
    root = str(tmp_path)
    feeds = [SyntheticFeed(_TINY, peer_as) for peer_as in _peers(_TINY)]
    _armed(f"io_error@feed.connect;times=99;match={feeds[0].name}")
    with pytest.raises(IngestError, match=feeds[0].name):
        IngestDaemon(root, feeds, IngestConfig(retry=_FAST_RETRY)).run()


def test_lenient_mode_records_the_casualty_and_keeps_survivors(tmp_path, disarm):
    root = str(tmp_path)
    feeds = [SyntheticFeed(_TINY, peer_as) for peer_as in _peers(_TINY)]
    casualty, survivor = feeds[0], feeds[1]
    _armed(f"io_error@feed.connect;times=99;match={casualty.name}")
    result = IngestDaemon(
        root, feeds, IngestConfig(retry=_FAST_RETRY, strict=False, segment_rows=100)
    ).run()
    assert result.failed_feeds == [casualty.name]
    assert result.feeds[casualty.name].failed is not None
    assert not result.feeds[casualty.name].complete
    manifest = Manifest.load(root)
    assert manifest.feed_state(casualty.name)["failed"] is not None
    # The survivor ingested its whole feed regardless.
    offline = _offline_trace(_feed_lines(_TINY, survivor.peer_as))
    assert result.feeds[survivor.name].rows_acked == offline.message_count
    assert result.feeds[survivor.name].complete


def test_retry_policy_backoff_is_seeded_and_bounded():
    def delays(seed):
        policy = RetryPolicy(backoff_base=0.5, backoff_max=2.0, jitter=0.25, seed=seed)
        return [policy.delay(attempt) for attempt in range(8)]

    unjittered = RetryPolicy(backoff_base=0.5, backoff_max=2.0, jitter=0.0)
    assert delays(7) == delays(7)
    assert delays(7) != delays(8)
    for seed in (7, 8):
        assert all(
            unjittered.delay(attempt) <= delay <= 2.0 * (1 + 0.25)
            for attempt, delay in enumerate(delays(seed))
        )


def test_retry_policy_without_jitter_is_the_capped_exponential():
    policy = RetryPolicy(backoff_base=0.05, backoff_factor=2.0, backoff_max=2.0, jitter=0.0)
    assert [policy.delay(attempt) for attempt in range(8)] == [
        min(0.05 * 2.0**attempt, 2.0) for attempt in range(8)
    ]


@pytest.mark.parametrize("attempts", [0, -1, -5])
def test_retry_policy_rejects_nonpositive_attempts(attempts):
    with pytest.raises(ValueError, match="max_attempts"):
        RetryPolicy(max_attempts=attempts)


# -- manifest integrity -------------------------------------------------------


def test_manifest_verify_detects_segment_corruption(tmp_path):
    root = str(tmp_path)
    feed = SyntheticFeed(_TINY, _peers(_TINY)[0])
    IngestDaemon(root, [feed], IngestConfig(segment_rows=100)).run()
    manifest = Manifest.load(root)
    entry = manifest.feed_state(feed.name)["sealed"][0]
    path = os.path.join(root, feed.name, entry["file"])
    faults.corrupt_file(path, seed=5)
    with pytest.raises(IngestManifestError, match=entry["file"]):
        manifest.verify()


def test_duplicate_feed_names_are_rejected(tmp_path):
    peer_as = _peers(_TINY)[0]
    feeds = [SyntheticFeed(_TINY, peer_as), SyntheticFeed(_TINY, peer_as)]
    with pytest.raises(ValueError, match="duplicate"):
        IngestDaemon(str(tmp_path), feeds)

