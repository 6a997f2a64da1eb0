"""On-disk layout for columnar traces: the sealed ingest segment.

This module stores a :class:`~repro.traces.columnar.ColumnarTrace` as::

    magic | u32 store version | u64 header length | u64 total file length
          | u32 header CRC32 | pickled header | segments

where the header is a small dict — columnar format version, the ``extras``
dict, one ``(name, typecode, offset, nbytes)`` descriptor per column and a
``checksums`` map of per-column CRC32s — and the segments are the raw
column buffers of :meth:`~repro.traces.columnar.ColumnarTrace.to_payload`
back to back.  A store has one way in: :meth:`ColumnarTraceFile.load` (or
:func:`read_trace`), ``mmap`` plus one :meth:`array.array.frombytes` per
column, every column read in full and checked.

**Integrity.**  Opening a file verifies the total-length field against the
actual file size (catching truncation and torn writes without reading a
single segment) and the header CRC; loading verifies every column's CRC32.
A failed check raises the typed :class:`CorruptColumnStoreError`.  A file
of any other store version raises it too: v2 predates the ingest segments,
so no v1 store was ever written by them.

Buffers are written in native byte order: the store is a format for the
machine that wrote it, not an interchange format.  The columnar format
version is checked on open, so a stale file raises.

The same module owns :class:`SegmentAppendLog`, the CRC-framed append log
behind the ingest daemon's open segment; the trace cache writes each entry
as one frame of it.
"""

from __future__ import annotations

import mmap
import os
import pickle
import struct
import zlib
from array import array
from typing import Dict, List, Tuple

from repro.traces.columnar import (
    COLUMNAR_FORMAT_VERSION,
    POOL_COLUMNS,
    TRACE_COLUMNS,
    ColumnarTrace,
)

__all__ = [
    "LOG_VERSION",
    "STORE_VERSION",
    "ColumnarTraceFile",
    "CorruptColumnStoreError",
    "SegmentAppendLog",
    "read_trace",
    "write_trace",
]

_MAGIC = b"RPROCOLS"
#: Bump when the container layout (not the column schema) changes.
#: v2: per-column CRC32 checksums + total-length field + header CRC.
STORE_VERSION = 2

_VERSION = struct.Struct("<I")
_LENGTHS = struct.Struct("<QQI")  # header length, total length, header crc


class CorruptColumnStoreError(ValueError):
    """A ``.cols`` file, or a trace-cache frame, failed an integrity check
    (truncation, bit flips, an unparseable or checksum-mismatched header or
    column, an unknown layout version).

    Distinct from a plain stale-version :class:`ValueError` so the cache
    layer can *quarantine* provably-damaged entries while silently
    rebuilding merely outdated ones.
    """


def _fault_hook(site: str, key: str):
    """Consult the fault-injection harness; a no-op when it is idle."""
    from repro.testing import faults

    injector = faults.active_injector()
    if injector is None:
        return None
    return injector.fire(site, key=key)


def write_trace(path: str, trace: ColumnarTrace) -> None:
    """Write a trace in the column-store layout (header + raw segments).

    The caller owns atomicity (the segment writer writes to a temp file and
    renames); this function just streams the buffers, so writing never holds
    a second copy of the columns.
    """
    payload = trace.to_payload()
    segments: List[Tuple[str, str, int, int]] = []
    buffers: List[bytes] = []
    checksums: Dict[str, int] = {}
    offset = 0
    for name, typecode in POOL_COLUMNS:
        buffer = payload["pool"][name]
        segments.append((f"pool.{name}", typecode, offset, len(buffer)))
        checksums[f"pool.{name}"] = zlib.crc32(buffer)
        buffers.append(buffer)
        offset += len(buffer)
    for name, typecode in TRACE_COLUMNS:
        buffer = payload[name]
        segments.append((name, typecode, offset, len(buffer)))
        checksums[name] = zlib.crc32(buffer)
        buffers.append(buffer)
        offset += len(buffer)
    header = pickle.dumps(
        {
            "format": COLUMNAR_FORMAT_VERSION,
            "extras": payload["extras"],
            "segments": segments,
            "checksums": checksums,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    total_length = len(_MAGIC) + _VERSION.size + _LENGTHS.size + len(header) + offset
    # repro: allow(durability-ordering): atomicity is the caller's contract —
    # the segment writer wraps write_trace in write_atomic and hands it a
    # temp path.
    with open(path, "wb") as handle:
        handle.write(_MAGIC)
        handle.write(_VERSION.pack(STORE_VERSION))
        handle.write(_LENGTHS.pack(len(header), total_length, zlib.crc32(header)))
        handle.write(header)
        for buffer in buffers:
            handle.write(buffer)


class ColumnarTraceFile:
    """An open column-store file; :meth:`load` materialises the trace."""

    def __init__(self, path: str) -> None:
        self.path = path
        _fault_hook("store.open", os.path.basename(path))
        self._handle = open(path, "rb")
        try:
            fixed_size = len(_MAGIC) + _VERSION.size + _LENGTHS.size
            prefix = self._handle.read(fixed_size)
            if prefix[: len(_MAGIC)] != _MAGIC:
                raise CorruptColumnStoreError(f"{path}: not a columnar store file")
            if len(prefix) < fixed_size:
                raise CorruptColumnStoreError(f"{path}: truncated store prefix")
            (version,) = _VERSION.unpack_from(prefix, len(_MAGIC))
            if version != STORE_VERSION:
                raise CorruptColumnStoreError(
                    f"{path}: store layout v{version}, running code "
                    f"reads only v{STORE_VERSION}"
                )
            header_length, total_length, header_crc = _LENGTHS.unpack_from(
                prefix, len(_MAGIC) + _VERSION.size
            )
            file_size = os.fstat(self._handle.fileno()).st_size
            if file_size != total_length:
                raise CorruptColumnStoreError(
                    f"{path}: file is {file_size} bytes but the header "
                    f"records {total_length} — truncated or torn write"
                )
            header_bytes = self._handle.read(header_length)
            if len(header_bytes) < header_length:
                raise CorruptColumnStoreError(f"{path}: truncated header")
            if zlib.crc32(header_bytes) != header_crc:
                raise CorruptColumnStoreError(f"{path}: header checksum mismatch")
            try:
                header = pickle.loads(header_bytes)
                segments = {
                    name: (typecode, offset, nbytes)
                    for name, typecode, offset, nbytes in header["segments"]
                }
                format_version = header["format"]
                self._checksums: Dict[str, int] = header["checksums"]
            except Exception as error:
                raise CorruptColumnStoreError(
                    f"{path}: unreadable header ({error!r})"
                ) from error
            if format_version != COLUMNAR_FORMAT_VERSION:
                raise ValueError(
                    f"{path}: columnar format v{format_version}, running "
                    f"code expects v{COLUMNAR_FORMAT_VERSION}"
                )
            self._extras: Dict[int, tuple] = header["extras"]
            self._base = fixed_size + header_length
            self._segments: Dict[str, Tuple[str, int, int]] = segments
            for name, (_, offset, nbytes) in segments.items():
                if self._base + offset + nbytes > file_size:
                    raise CorruptColumnStoreError(
                        f"{path}: column {name!r} extends past end of file"
                    )
            self._mm = mmap.mmap(self._handle.fileno(), 0, access=mmap.ACCESS_READ)
        except Exception:
            self._handle.close()
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the mapping and the file handle."""
        self._mm.close()
        self._handle.close()

    def __enter__(self) -> "ColumnarTraceFile":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def message_count(self) -> int:
        """Number of messages in the stored trace (no column materialised)."""
        typecode, _, nbytes = self._segments["msg_time"]
        return nbytes // array(typecode).itemsize

    # -- loads --------------------------------------------------------------

    def _segment(self, name: str) -> bytes:
        """One column's raw buffer, verified against its CRC32.

        Raises :class:`CorruptColumnStoreError` on a mismatch.
        """
        _fault_hook("store.read", os.path.basename(self.path))
        _, offset, nbytes = self._segments[name]
        buffer = self._mm[self._base + offset : self._base + offset + nbytes]
        if zlib.crc32(buffer) != self._checksums[name]:
            raise CorruptColumnStoreError(
                f"{self.path}: column {name!r} checksum mismatch (corrupt segment)"
            )
        return buffer

    def load(self) -> ColumnarTrace:
        """Materialise the full trace through
        :meth:`~repro.traces.columnar.ColumnarTrace.from_payload`.

        Every column is read in full and passes its CRC32, so a successful
        :meth:`load` implies no byte of the file is flipped.
        """
        payload = {
            "format": COLUMNAR_FORMAT_VERSION,
            "pool": {name: self._segment(f"pool.{name}") for name, _ in POOL_COLUMNS},
            "extras": self._extras,
        }
        for name, _ in TRACE_COLUMNS:
            payload[name] = self._segment(name)
        return ColumnarTrace.from_payload(payload)


def read_trace(path: str) -> ColumnarTrace:
    """Convenience: open, fully load and close a store file."""
    with ColumnarTraceFile(path) as store:
        return store.load()


# -- append-mode segment log -------------------------------------------------

_LOG_MAGIC = b"RPROSEGL"
#: Bump when the append-log framing (not the frame payloads) changes.
LOG_VERSION = 1

_LOG_FRAME = struct.Struct("<II")  # payload length, payload CRC32


class SegmentAppendLog:
    """A crash-safe append-only frame log — the *open* half of a segment.

    A ``.cols`` store is written once and sealed; the ingestion daemon's
    open segment instead grows a row at a time and must survive ``kill -9``
    mid-append.  This log is the durability substrate: the file is::

        magic "RPROSEGL" | u32 log version | frames...

    where each frame is ``u32 payload length | u32 CRC32(payload) | pickled
    payload``.  The payload is opaque to the log (the ingestion layer stores
    batches of feed lines plus a checkpoint token); the log owns only the
    framing and its recovery discipline:

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
            self._handle.write(_LOG_MAGIC)
            self._handle.write(_VERSION.pack(LOG_VERSION))
            self._handle.flush()
            os.fsync(self._handle.fileno())
        #: End of the last fsync'd (or pre-existing, already-scanned) frame.
        self.durable_end = self._handle.tell()

    def append(self, payload: object) -> None:
        """Buffer one frame; durable only after :meth:`sync` returns."""
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.write(_LOG_FRAME.pack(len(body), zlib.crc32(body)))
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
        header_size = len(_LOG_MAGIC) + _VERSION.size
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
