"""On-disk form of columnar traces: one CRC-checked append-log frame.

Every file this tree writes apart from the ingest manifest is a
:class:`SegmentAppendLog` file::

    magic "RPROSEGL" | u32 log version | frames...

where each frame is ``u32 payload length | u32 CRC32(payload) | pickled
payload``.  The ingestion daemon's *open* segment grows one frame per
flush; a *sealed* segment and a trace-cache entry are the same file holding
exactly one frame, written by :func:`write_frame` and read back by
:func:`read_frame` — the one helper pair every single-frame file goes
through.  A sealed segment's frame is
:meth:`~repro.traces.columnar.ColumnarTrace.to_payload`
(:func:`write_trace` / :func:`read_trace`).

**Integrity.**  The frame CRC covers the whole payload; :func:`read_frame`
accepts a file only if it holds exactly one valid frame ending at EOF, so
truncation, a torn write, a flipped bit anywhere or trailing bytes raise
the typed :class:`CorruptColumnStoreError`.  A file of another log version
raises it too.  A payload of another columnar format version passes the
frame check and is refused by
:meth:`~repro.traces.columnar.ColumnarTrace.from_payload` (a plain
:class:`ValueError`, so the trace cache rebuilds a stale entry instead of
quarantining it).

Buffers are written in native byte order: the frame is a format for the
machine that wrote it, not an interchange format.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from typing import Any, List, Tuple

from repro.traces.columnar import ColumnarTrace

__all__ = [
    "LOG_VERSION",
    "CorruptColumnStoreError",
    "SegmentAppendLog",
    "read_frame",
    "read_trace",
    "write_frame",
    "write_trace",
]

_VERSION = struct.Struct("<I")


class CorruptColumnStoreError(ValueError):
    """A single-frame file (a sealed segment or a trace-cache entry) failed
    its frame check: truncation, bit flips, trailing bytes, a frame that
    does not unpickle, an unknown log version.

    Distinct from a plain stale-version :class:`ValueError` so the cache
    layer can *quarantine* provably-damaged entries while silently
    rebuilding merely outdated ones.
    """


# -- the frame log ----------------------------------------------------------

_LOG_MAGIC = b"RPROSEGL"
#: Bump when the append-log framing (not the frame payloads) changes.
LOG_VERSION = 1

_LOG_FRAME = struct.Struct("<II")  # payload length, payload CRC32

_LOG_HEADER = _LOG_MAGIC + _VERSION.pack(LOG_VERSION)


def _frame(payload: object) -> Tuple[bytes, bytes]:
    """``(frame header, body)`` of one frame holding ``payload``."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return _LOG_FRAME.pack(len(body), zlib.crc32(body)), body


class SegmentAppendLog:
    """A crash-safe append-only frame log — the one on-disk layout.

    The ingestion daemon's open segment grows a row at a time and must
    survive ``kill -9`` mid-append; sealed segments and trace-cache entries
    are the same layout with exactly one frame (:func:`write_frame` /
    :func:`read_frame`).  The payload is opaque to the log (the open
    segment stores batches of feed lines plus a checkpoint token); the log
    owns only the framing and its recovery discipline:

    * :meth:`append` buffers a frame into the OS file; :meth:`sync` flushes
      and ``fsync``\\ s, advancing ``durable_end`` — everything at or before
      ``durable_end`` survives any crash;
    * a *failed* append or sync leaves garbage bytes past ``durable_end``;
      :meth:`truncate_to_durable` cuts the file back so a retried append
      never lands after a torn frame (recovery stops at the first bad
      frame, so garbage in the middle would silently orphan everything
      written after it);
    * :meth:`scan` replays a log from disk: frames are read until EOF, a
      short read, an insane length or a CRC mismatch — whichever comes
      first — and the byte offset of the last *valid* frame end is
      returned, so recovery can truncate the torn tail and resume
      appending.  A fsync'd frame can never be lost this way; a torn tail
      was by definition never acknowledged.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        exists = os.path.exists(path) and os.path.getsize(path) > 0
        # repro: allow(durability-ordering): the append log IS the durability
        # substrate — frames are fsync'd per append; replace-based atomicity
        # would defeat incremental appends.
        self._handle = open(path, "ab")
        if not exists:
            self._handle.write(_LOG_HEADER)
            self._handle.flush()
            os.fsync(self._handle.fileno())
        #: End of the last fsync'd (or pre-existing, already-scanned) frame.
        self.durable_end = self._handle.tell()

    def append(self, payload: object) -> None:
        """Buffer one frame; durable only after :meth:`sync` returns."""
        header, body = _frame(payload)
        self._handle.write(header)
        self._handle.write(body)

    def sync(self) -> None:
        """Flush and fsync; everything appended so far becomes durable."""
        self._handle.flush()
        os.fsync(self._handle.fileno())
        self.durable_end = self._handle.tell()

    def truncate_to_durable(self) -> None:
        """Cut back to the last durable frame end after a failed append."""
        self._handle.flush()
        self._handle.truncate(self.durable_end)
        self._handle.seek(self.durable_end)
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        self._handle.close()

    def __enter__(self) -> "SegmentAppendLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @classmethod
    def scan(cls, path: str) -> Tuple[List[object], int]:
        """Read every valid frame payload; returns ``(payloads, valid_end)``.

        ``valid_end`` is the byte offset just past the last frame that
        parsed and checksummed cleanly — the truncation point for
        :meth:`recover`.  A missing or headerless file scans as empty.
        """
        header_size = len(_LOG_HEADER)
        try:
            handle = open(path, "rb")
        except FileNotFoundError:
            return [], 0
        payloads: List[object] = []
        with handle:
            header = handle.read(header_size)
            if len(header) < header_size or header[: len(_LOG_MAGIC)] != _LOG_MAGIC:
                return [], 0
            (version,) = _VERSION.unpack(header[len(_LOG_MAGIC) :])
            if version != LOG_VERSION:
                raise CorruptColumnStoreError(
                    f"{path}: segment log v{version}, running code expects "
                    f"v{LOG_VERSION}"
                )
            file_size = os.fstat(handle.fileno()).st_size
            valid_end = header_size
            while True:
                frame_header = handle.read(_LOG_FRAME.size)
                if len(frame_header) < _LOG_FRAME.size:
                    break
                length, crc = _LOG_FRAME.unpack(frame_header)
                if valid_end + _LOG_FRAME.size + length > file_size:
                    break  # torn tail: frame extends past end of file
                body = handle.read(length)
                if len(body) < length or zlib.crc32(body) != crc:
                    break
                try:
                    payloads.append(pickle.loads(body))
                except Exception:
                    break
                valid_end += _LOG_FRAME.size + length
        return payloads, valid_end

    @classmethod
    def recover(cls, path: str) -> List[object]:
        """Scan, truncate the torn tail in place, and return the payloads.

        After this the file ends exactly at the last valid frame, so a
        reopened log appends cleanly; a file that never got its header
        (killed during creation) is removed so it is recreated whole.
        """
        payloads, valid_end = cls.scan(path)
        if not os.path.exists(path):
            return payloads
        if valid_end == 0:
            os.unlink(path)
            return payloads
        if os.path.getsize(path) > valid_end:
            # repro: allow(durability-ordering): torn-tail truncation is the
            # recovery step itself; it shortens to the last fsync'd frame and
            # fsyncs — rewriting the whole log atomically would widen the
            # crash window it closes.
            with open(path, "r+b") as handle:
                handle.truncate(valid_end)
                os.fsync(handle.fileno())
        return payloads


# -- single-frame files -------------------------------------------------------


def write_frame(temp_path: str, payload: Any) -> None:
    """Write ``temp_path`` as a log holding exactly one frame of ``payload``.

    The caller owns atomicity and the fsync: both callers hand this a temp
    path inside :func:`repro.util.atomic.write_atomic`.
    """
    header, body = _frame(payload)
    with open(temp_path, "wb") as handle:
        handle.write(_LOG_HEADER + header)
        handle.write(body)


def read_frame(path: str) -> Any:
    """The payload of a single-frame file: exactly one valid frame, ending
    at EOF.

    Raises :class:`CorruptColumnStoreError` when the frame is missing,
    torn, checksum-mismatched, unpicklable or followed by other bytes.
    """
    payloads, valid_end = SegmentAppendLog.scan(path)
    if len(payloads) != 1 or valid_end != os.path.getsize(path):
        raise CorruptColumnStoreError(f"{path}: not exactly one valid frame")
    return payloads[0]


def write_trace(temp_path: str, trace: ColumnarTrace) -> None:
    """Write a trace as one frame of its payload (see :func:`write_frame`)."""
    write_frame(temp_path, trace.to_payload())


def read_trace(path: str) -> ColumnarTrace:
    """Load a trace written by :func:`write_trace`, every byte checked."""
    from repro.testing import faults

    injector = faults.active_injector()
    if injector is not None:
        injector.fire("store.read", key=os.path.basename(path))
    return ColumnarTrace.from_payload(read_frame(path))
