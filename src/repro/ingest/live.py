"""Windowed inference over a feed's ingested tail.

The live half of the §6 replay story: instead of waiting for a complete
month dump, inference runs over each segment the ingestion daemon seals —
and the contract is that it loses nothing by doing so.
:class:`LiveReplay` drives a
:class:`~repro.experiments.month_replay.StreamReplayer` (the same router
setup, batching and event accounting as offline ``replay_stream``) over
one columnar window at a time; because chunking and run-splitting never
change replay results, the accumulated
:meth:`~repro.experiments.month_replay.MonthReplayResult.signature` is
byte-identical to an offline replay over the concatenation of the same
rows — the property ``tests/test_ingest_daemon.py`` pins.

:func:`iter_feed_windows` yields a feed's ingested rows in order: every
sealed segment (one frame each, loaded by
:func:`~repro.traces.columnar_store.read_trace`), then (optionally) the
open tail rebuilt read-only from the append log's valid frames — so live
inference can run against a daemon that is still ingesting, or
mid-recovery after a crash.
"""

from __future__ import annotations

import os
from typing import Iterator, Optional

from repro.experiments.month_replay import MonthReplayResult, StreamReplayer
from repro.traces.columnar import ColumnarTrace
from repro.traces.columnar_store import SegmentAppendLog, read_trace

from repro.ingest.manifest import Manifest
from repro.ingest.segments import _log_name
from repro.traces.mrt import RowParser
from repro.traces.validation import ValidationReport

__all__ = ["LiveReplay", "iter_feed_windows", "open_tail", "replay_feed"]


def open_tail(root: str, feed_name: str, manifest: Optional[Manifest] = None) -> ColumnarTrace:
    """Rebuild the open segment's rows read-only (no truncation, no repair).

    Scans the valid frame prefix of the feed's open append log and replays
    its lines through the same incremental parser the daemon uses, seeded
    with the manifest's sealed-through watermark — the exact rows a crashed
    daemon would recover, without touching the files.
    """
    manifest = manifest if manifest is not None else Manifest.load(root)
    state = manifest.feed_state(feed_name)
    trace = ColumnarTrace()
    parser = RowParser(previous_time=state["last_time"])
    line_report = ValidationReport(lenient=True)
    log_path = os.path.join(root, feed_name, _log_name(state["open_seq"]))
    payloads, _ = SegmentAppendLog.scan(log_path)
    for payload in payloads:
        for text in payload["lines"]:
            parser.add_line(trace, text, line_report)
    return trace


def iter_feed_windows(
    root: str,
    feed_name: str,
    manifest: Optional[Manifest] = None,
    include_open_tail: bool = True,
) -> Iterator[ColumnarTrace]:
    """Yield a feed's ingested rows as columnar windows, in ingest order.

    Sealed segments load through :func:`read_trace` (each a standalone
    trace with its own pool); the open tail, if any and requested, comes
    from :func:`open_tail`.  Empty windows are skipped.
    """
    manifest = manifest if manifest is not None else Manifest.load(root)
    state = manifest.feed_state(feed_name)
    for entry in state["sealed"]:
        yield read_trace(os.path.join(root, feed_name, entry["file"]))
    if include_open_tail:
        tail = open_tail(root, feed_name, manifest)
        if tail.message_count:
            yield tail


class LiveReplay:
    """Incremental (SWIFTED) replay over ingested windows.

    Construct with the session's pre-trace RIB and peer AS (plus any
    :class:`~repro.experiments.month_replay.StreamReplayer` keyword), then
    :meth:`consume` each window as the daemon seals it; :meth:`result`
    snapshots the same counters and canonical event multisets offline
    replay produces.
    """

    def __init__(self, rib, peer_as: int, **replayer_options) -> None:
        self._replayer = StreamReplayer(rib, peer_as, **replayer_options)
        self.windows_consumed = 0

    def consume(self, window: ColumnarTrace) -> None:
        """Replay one sealed (or tail) window through the live router."""
        self._replayer.feed(window)
        self.windows_consumed += 1

    def result(self) -> MonthReplayResult:
        """The accumulated replay result over every window consumed."""
        return self._replayer.result()


def replay_feed(
    root: str,
    feed_name: str,
    rib,
    peer_as: int,
    manifest: Optional[Manifest] = None,
    include_open_tail: bool = True,
    **replayer_options,
) -> MonthReplayResult:
    """Drive :class:`LiveReplay` over every window of an ingested feed."""
    live = LiveReplay(rib, peer_as, **replayer_options)
    for window in iter_feed_windows(
        root, feed_name, manifest=manifest, include_open_tail=include_open_tail
    ):
        live.consume(window)
    return live.result()
