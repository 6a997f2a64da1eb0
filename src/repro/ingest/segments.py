"""Rolling columnar segments with a crash-safe append log.

Each feed ingests into a directory of its own under the ingest root::

    <root>/<feed>/seg-00000.sealed   sealed segments (one-frame logs)
    <root>/<feed>/seg-00002.log      the open segment's append log
    <root>/MANIFEST.json             the shared checkpoint (one per root)

Both halves of a segment are the same on-disk layout, a
:class:`~repro.traces.columnar_store.SegmentAppendLog`.  While *open* the
segment is an in-memory :class:`~repro.traces.columnar.ColumnarTrace`
shadowed by an append log whose frames hold the raw feed lines plus a
checkpoint token ``{offset, last_time}``; a frame is acknowledged once
``fsync`` returns.  At *roll* time the trace is sealed into a log holding
exactly one frame, its :meth:`~repro.traces.columnar.ColumnarTrace.to_payload`
(:func:`~repro.traces.columnar_store.write_trace`), and the open log is
retired.

**The roll ordering is the recovery contract.**  :meth:`SegmentWriter.roll`
performs, in order: (1) flush + fsync the log, (2) atomically write
``seg-<N>.sealed``, (3) atomically update the manifest (segment entry +
``open_seq`` bump), (4) unlink ``seg-<N>.log``.  Recovery
(:func:`recover_feed`) inverts each crash window unambiguously:

* died before (3): the manifest does not know the ``.sealed`` file — the
  log is the authority, so any orphan ``seg-<N>.sealed`` with
  ``N >= open_seq`` is deleted and the open segment is rebuilt from the log
  (the re-roll later rewrites it from the same rows);
* died after (3) but before (4): the rows are sealed — the stale
  ``seg-<N>.log`` with ``N`` already sealed (or below ``open_seq``) is
  deleted, because replaying it would ingest every row twice;
* died mid-append: the log's torn tail fails its frame CRC and is
  truncated; a torn frame was never fsync'd, hence never acknowledged.

Rebuilding replays the log's lines through the same incremental parser
(:class:`~repro.traces.mrt.RowParser`) with the watermark the manifest
checkpointed at the last seal, so the recovered rows are byte-identical to
the pre-crash open trace — no acknowledged row is lost, no row appears
twice.

Fault sites: ``segment.append`` fires per flush (key ``<feed>:<seq>``);
``segment.roll`` fires once per roll *phase* (keys ``<feed>:<seq>:start``
/ ``:sealed`` / ``:manifest``), bracketing exactly the three crash windows
above.
"""

from __future__ import annotations

import os
import re
import zlib
from dataclasses import dataclass, field
from typing import List, Optional

from repro.traces.columnar import ColumnarTrace
from repro.traces.columnar_store import SegmentAppendLog, write_trace
from repro.traces.mrt import RowParser
from repro.traces.validation import ValidationReport
from repro.util.atomic import fsync_directory, write_atomic

from repro.ingest.manifest import Manifest

__all__ = ["FeedRecovery", "SegmentWriter", "recover_feed"]

_SEGMENT_FILE = re.compile(r"^seg-(\d+)\.(log|sealed)$")


def _log_name(seq: int) -> str:
    return f"seg-{seq:05d}.log"


def _sealed_name(seq: int) -> str:
    return f"seg-{seq:05d}.sealed"


def _fire(site: str, key: str, supervised: bool) -> None:
    """Consult the fault harness at an ingest hook (no-op when idle)."""
    from repro.testing import faults

    injector = faults.active_injector()
    if injector is not None:
        injector.fire(site, key=key, in_worker=supervised)


@dataclass
class FeedRecovery:
    """What :func:`recover_feed` reconstructed for one feed."""

    open_seq: int
    #: Feed offset to resume reading at (everything before it is durable).
    next_offset: int
    #: Parser monotonicity watermark as of the last *seal* (the open log's
    #: lines re-advance it during rebuild).
    last_time: Optional[float]
    #: Raw lines of the open segment, recovered from fsync'd log frames.
    open_lines: List[str] = field(default_factory=list)
    sealed_rows: int = 0


def recover_feed(root: str, name: str, manifest: Manifest) -> FeedRecovery:
    """Repair a feed directory after a crash and reconstruct resume state.

    Applies the crash-window rules from the module docstring (sweep
    ``*.tmp`` litter, delete orphan ``.sealed`` files, delete stale logs,
    truncate the open log's torn tail) and returns the open segment's
    recovered lines plus the offset/watermark to resume from.  Safe to run
    on a clean directory (it is the normal startup path, not a special case).
    """
    state = manifest.feed_state(name)
    directory = os.path.join(root, name)
    os.makedirs(directory, exist_ok=True)
    open_seq = state["open_seq"]
    sealed_seqs = {entry["seq"] for entry in state["sealed"]}
    for entry_name in sorted(os.listdir(directory)):
        path = os.path.join(directory, entry_name)
        if entry_name.endswith(".tmp"):
            # write_atomic cleans up on exceptions, but kill -9 skips
            # finally blocks; sweep the litter here.
            os.unlink(path)
            continue
        matched = _SEGMENT_FILE.match(entry_name)
        if matched is None:
            continue
        seq, kind = int(matched.group(1)), matched.group(2)
        if kind == "sealed" and seq not in sealed_seqs:
            # Died between the sealed write and the manifest checkpoint:
            # the log is the authority, the unacknowledged .sealed file is
            # rebuilt at the next roll.
            os.unlink(path)
        elif kind == "log" and (seq in sealed_seqs or seq != open_seq):
            # Died between the manifest checkpoint and the log unlink:
            # these rows are already sealed; replaying the log would
            # duplicate every one of them.
            os.unlink(path)
    fsync_directory(directory)

    payloads = SegmentAppendLog.recover(os.path.join(directory, _log_name(open_seq)))
    open_lines: List[str] = []
    next_offset = state["next_offset"]
    for payload in payloads:
        open_lines.extend(payload["lines"])
        next_offset = payload["offset"]
    return FeedRecovery(
        open_seq=open_seq,
        next_offset=next_offset,
        last_time=state["last_time"],
        open_lines=open_lines,
        sealed_rows=manifest.sealed_rows(name),
    )


class SegmentWriter:
    """Appends one feed's lines into rolling, crash-safe segments.

    Lines are parsed into the open trace immediately (`add_line`) and
    buffered raw; :meth:`flush` writes them as one fsync'd log frame —
    the acknowledgement point — and :meth:`roll` seals the open trace into
    a one-frame ``.sealed`` file under the ordering contract documented on
    the module.  A failed flush truncates the log back to its durable end, so
    a retry never appends after a torn frame.  ``rows_acked`` counts the
    durable rows (sealed + fsync'd open); rows parsed but not yet flushed
    are exactly the ones a crash right now would (legitimately) lose.
    """

    def __init__(
        self,
        root: str,
        feed_name: str,
        manifest: Manifest,
        recovery: Optional[FeedRecovery] = None,
        supervised: bool = False,
        line_report: Optional[ValidationReport] = None,
    ) -> None:
        self.feed_name = feed_name
        self.directory = os.path.join(root, feed_name)
        os.makedirs(self.directory, exist_ok=True)
        self._manifest = manifest
        self._state = manifest.feed_state(feed_name)
        self._supervised = supervised
        if recovery is None:
            recovery = recover_feed(root, feed_name, manifest)
        self.seq = recovery.open_seq
        self.next_offset = recovery.next_offset
        #: Line-level lenient validation (blank/malformed feed lines).
        self.line_report = (
            line_report if line_report is not None else ValidationReport(lenient=True)
        )
        self.parser = RowParser(previous_time=recovery.last_time)
        self.trace = ColumnarTrace()
        self._log = SegmentAppendLog(os.path.join(self.directory, _log_name(self.seq)))
        # Recovered lines are already durable in the log: rebuild the open
        # trace from them without re-logging.
        for line in recovery.open_lines:
            self.parser.add_line(self.trace, line, self.line_report)
        self._sealed_rows = recovery.sealed_rows
        self.rows_acked = self._sealed_rows + len(self.trace)
        self._pending: List[str] = []
        self._pending_offset = self.next_offset

    # -- write path ----------------------------------------------------------

    @property
    def open_rows(self) -> int:
        """Rows in the open segment (flushed or not)."""
        return len(self.trace)

    @property
    def pending_lines(self) -> int:
        """Lines added since the last flush (at risk until then)."""
        return len(self._pending)

    def add_line(self, offset: int, text: str) -> None:
        """Parse one feed line into the open segment and buffer it raw."""
        self.parser.add_line(self.trace, text, self.line_report)
        self._pending.append(text)
        self._pending_offset = offset + 1

    def flush(self) -> int:
        """Write buffered lines as one fsync'd frame; advance the ack point.

        Raises whatever the log write raised (injected or real IO errors)
        *after* truncating the log back to its durable end, so the caller
        can simply retry — the buffered lines stay pending and the open
        trace already holds their rows.
        """
        if not self._pending:
            return 0
        _fire("segment.append", f"{self.feed_name}:{self.seq}", self._supervised)
        try:
            self._log.append(
                {
                    "lines": self._pending,
                    "offset": self._pending_offset,
                    "last_time": self.parser.previous_time,
                }
            )
            self._log.sync()
        except Exception:
            self._log.truncate_to_durable()
            raise
        count = len(self._pending)
        self._pending = []
        self.next_offset = self._pending_offset
        self.rows_acked = self._sealed_rows + len(self.trace)
        return count

    def roll(self) -> Optional[dict]:
        """Seal the open segment into a ``.sealed`` file; start the next one.

        Returns the new manifest entry, or ``None`` when the open segment
        holds no rows (nothing to seal).  Re-entrant after a mid-roll
        failure: a retry skips the phases the manifest already records.
        """
        state = self._state
        key = f"{self.feed_name}:{self.seq}"
        if state["open_seq"] <= self.seq:
            _fire("segment.roll", f"{key}:start", self._supervised)
            self.flush()
            if not len(self.trace):
                return None
            trace = self.trace
            sealed_name = _sealed_name(self.seq)
            info: dict = {}

            def writer(temp_path: str) -> None:
                write_trace(temp_path, trace)

            def hook(temp_path: str) -> None:
                with open(temp_path, "rb") as handle:
                    data = handle.read()
                info["crc"] = zlib.crc32(data)
                info["bytes"] = len(data)

            write_atomic(os.path.join(self.directory, sealed_name), writer, hook=hook)
            _fire("segment.roll", f"{key}:sealed", self._supervised)
            state["sealed"].append(
                {
                    "seq": self.seq,
                    "file": sealed_name,
                    "rows": len(trace),
                    "crc": info["crc"],
                    "bytes": info["bytes"],
                    "first_time": trace.first_timestamp,
                    "last_time": trace.last_timestamp,
                    "offset_end": self.next_offset,
                }
            )
            state["open_seq"] = self.seq + 1
            state["next_offset"] = self.next_offset
            state["last_time"] = self.parser.previous_time
            self._manifest.save()
        _fire("segment.roll", f"{key}:manifest", self._supervised)
        entry = state["sealed"][-1]
        # The manifest now vouches for the .sealed file; the log is retired.
        self._log.close()
        log_path = os.path.join(self.directory, _log_name(self.seq))
        if os.path.exists(log_path):
            os.unlink(log_path)
        fsync_directory(self.directory)
        self._sealed_rows += entry["rows"]
        self.seq += 1
        self.trace = ColumnarTrace()
        self._log = SegmentAppendLog(
            os.path.join(self.directory, _log_name(self.seq))
        )
        self.rows_acked = self._sealed_rows
        return entry

    def close(self) -> None:
        self._log.close()
