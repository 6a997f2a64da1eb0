"""A lightweight MRT-like trace format.

Real RouteViews / RIS archives come as binary MRT files read with
``pybgpstream`` or ``mrtparse``.  Offline we keep the same *shape* of the
pipeline — dump records to disk, stream them back, convert them into BGP
messages — with a simple line-oriented text format, one record per line:

``type|timestamp|peer_as|prefix|as_path``

where ``type`` is ``A`` (announcement), ``W`` (withdrawal), ``R`` (RIB entry
from a table dump) or ``S`` (session state change).  The format is close to
the classic ``bgpdump -m`` one-line output, which keeps it human greppable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional, Union

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import BGPMessage, Notification, Update
from repro.bgp.prefix import Prefix
from repro.traces.columnar import ColumnarTrace, InternPool
from repro.traces.validation import TraceValidationError, ValidationReport

__all__ = [
    "RowParser",
    "TraceReader",
    "TraceRecord",
    "TraceWriter",
    "messages_to_records",
    "records_to_columnar",
]

_VALID_TYPES = ("A", "W", "R", "S")


@dataclass(frozen=True)
class TraceRecord:
    """One record of the trace format."""

    type: str
    timestamp: float
    peer_as: int
    prefix: Optional[Prefix] = None
    as_path: Optional[ASPath] = None

    def __post_init__(self) -> None:
        if self.type not in _VALID_TYPES:
            raise ValueError(f"invalid record type {self.type!r}")
        if self.type in ("A", "R") and (self.prefix is None or self.as_path is None):
            raise ValueError("announcement/RIB records need a prefix and an AS path")
        if self.type == "W" and self.prefix is None:
            raise ValueError("withdrawal records need a prefix")

    def to_line(self) -> str:
        """Serialise the record to its one-line text form."""
        prefix_text = str(self.prefix) if self.prefix is not None else ""
        path_text = str(self.as_path) if self.as_path is not None else ""
        return f"{self.type}|{self.timestamp:.6f}|{self.peer_as}|{prefix_text}|{path_text}"

    @classmethod
    def from_line(cls, line: str) -> "TraceRecord":
        """Parse a record from its one-line text form.

        Any defect — wrong field count, unparsable numbers, bad prefix or
        path syntax, an invalid type byte — raises
        :class:`~repro.traces.validation.TraceValidationError` (reason
        ``malformed-line``), which is still a :class:`ValueError` for
        callers that only care about pass/fail.
        """
        parts = line.rstrip("\n").split("|")
        if len(parts) != 5:
            raise TraceValidationError(
                "malformed-line", f"expected 5 |-separated fields: {line!r}"
            )
        record_type, timestamp_text, peer_text, prefix_text, path_text = parts
        try:
            prefix = Prefix.from_string(prefix_text) if prefix_text else None
            as_path = ASPath.from_string(path_text) if path_text else None
            return cls(
                type=record_type,
                timestamp=float(timestamp_text),
                peer_as=int(peer_text),
                prefix=prefix,
                as_path=as_path,
            )
        except TraceValidationError:
            raise
        except ValueError as error:
            raise TraceValidationError("malformed-line", f"{line!r}: {error}") from error


class TraceWriter:
    """Writes trace records to a file (or file-like object)."""

    def __init__(self, destination: Union[str, IO[str]]) -> None:
        if isinstance(destination, str):
            self._file: IO[str] = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._file = destination
            self._owns_file = False
        self.records_written = 0

    def write(self, record: TraceRecord) -> None:
        """Write one record."""
        self._file.write(record.to_line() + "\n")
        self.records_written += 1

    def write_all(self, records: Iterable[TraceRecord]) -> None:
        """Write many records."""
        for record in records:
            self.write(record)

    def close(self) -> None:
        """Flush and close the underlying file if we own it."""
        self._file.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class TraceReader:
    """Streams trace records back from a file (or file-like object).

    Pass a lenient :class:`~repro.traces.validation.ValidationReport` to
    count-and-skip malformed lines instead of raising on the first one;
    the report collects per-reason skip counts and one example each.
    """

    def __init__(
        self, source: Union[str, IO[str]], report: Optional[ValidationReport] = None
    ) -> None:
        self._source = source
        self._report = report

    def _lines(self) -> Iterator[str]:
        if isinstance(self._source, str):
            with open(self._source, "r", encoding="utf-8") as handle:
                yield from handle
        else:
            yield from self._source

    def __iter__(self) -> Iterator[TraceRecord]:
        report = self._report
        for text in self._lines():
            record = RowParser.read_line(text, report)
            if record is not None:
                yield record

    def read_columnar(
        self,
        pool: Optional[InternPool] = None,
        report: Optional[ValidationReport] = None,
    ) -> ColumnarTrace:
        """Parse the whole dump straight into columns.

        The file is read line by line through one :class:`RowParser`, so at
        no point does an object-form message list exist — which is how
        month-scale dumps should be loaded for replay.  ``report`` governs
        record-level validation (distinct from the reader's own line-level
        report); without one, the first bad record raises.
        """
        parser = RowParser(report if report is not None else ValidationReport())
        trace = ColumnarTrace(pool=pool)
        for text in self._lines():
            parser.add_line(trace, text, self._report)
        return trace


class RowParser:
    """The one text → row step: dump lines to records, records to columns.

    ``W`` becomes a withdrawal UPDATE row, ``A``/``R`` an announcement row,
    ``S`` a NOTIFICATION row; prefixes, AS paths and attribute sets are
    interned in the trace's pool.  Records with a non-positive peer AS or a
    timestamp running backwards are flagged into ``report`` (lenient by
    default: counted and skipped).

    The parser works one line (or record) at a time and carries the
    monotonicity watermark (``previous_time``) across calls — and, through
    the ingest manifest, across flushes, segments and daemon restarts.
    Feeding the same lines through it in any grouping therefore produces
    exactly the rows one pass over the whole stream would: the invariant
    behind the live-tail / offline replay parity guarantee.  Every reader
    of the format goes through it: :meth:`TraceReader.read_columnar`, the
    ingest daemon's segment writer and the read-only open-tail rebuild.
    """

    def __init__(
        self,
        report: Optional[ValidationReport] = None,
        previous_time: Optional[float] = None,
    ) -> None:
        self.report = report if report is not None else ValidationReport(lenient=True)
        self.previous_time = previous_time
        # Records repeat (path, peer) pairs heavily; interning the
        # constructed attribute objects keeps the pool's value-keyed dedup
        # from rebuilding an identical PathAttributes per record.
        self._attributes_of: dict = {}

    @staticmethod
    def read_line(text: str, report: Optional[ValidationReport]) -> Optional[TraceRecord]:
        """One dump line to a record; ``None`` for blanks, comments and
        malformed lines a lenient ``report`` noted (no report: raise)."""
        line = text.strip()
        if not line or line.startswith("#"):
            return None
        if report is None:
            return TraceRecord.from_line(line)
        report.checked += 1
        try:
            return TraceRecord.from_line(line)
        except TraceValidationError as error:
            if not report.lenient:
                raise
            report.note(error)
            return None

    def add_line(
        self, trace: ColumnarTrace, text: str, line_report: Optional[ValidationReport]
    ) -> bool:
        """Parse one dump line into ``trace``; False if it added no row."""
        record = self.read_line(text, line_report)
        return record is not None and self.append(trace, record)

    def append(self, trace: ColumnarTrace, record: TraceRecord) -> bool:
        """Append one record to ``trace``; False if validation skipped it."""
        report = self.report
        report.checked += 1
        if record.peer_as < 1:
            report.flag(
                "invalid-peer", f"record {report.checked}: peer AS {record.peer_as}"
            )
            return False
        if self.previous_time is not None and record.timestamp < self.previous_time:
            report.flag(
                "non-monotone-timestamp",
                f"record {report.checked}: {record.timestamp} after "
                f"{self.previous_time}",
            )
            return False
        self.previous_time = record.timestamp
        if record.type == "W":
            assert record.prefix is not None
            trace.withdraw(record.timestamp, record.peer_as, record.prefix)
        elif record.type in ("A", "R"):
            assert record.prefix is not None and record.as_path is not None
            key = (record.as_path.asns, record.peer_as)
            attributes = self._attributes_of.get(key)
            if attributes is None:
                attributes = self._attributes_of[key] = PathAttributes(
                    as_path=record.as_path,
                    next_hop=record.as_path.first_hop or record.peer_as,
                )
            trace.announce(record.timestamp, record.peer_as, record.prefix, attributes)
        elif record.type == "S":
            trace.append(
                Notification(timestamp=record.timestamp, peer_as=record.peer_as)
            )
        return True


def messages_to_records(messages: Iterable[BGPMessage]) -> List[TraceRecord]:
    """Convert BGP messages into trace records (UPDATE and NOTIFICATION only)."""
    records: List[TraceRecord] = []
    for message in messages:
        if isinstance(message, Update):
            for prefix in message.withdrawals:
                records.append(
                    TraceRecord(
                        type="W",
                        timestamp=message.timestamp,
                        peer_as=message.peer_as,
                        prefix=prefix,
                    )
                )
            for announcement in message.announcements:
                records.append(
                    TraceRecord(
                        type="A",
                        timestamp=message.timestamp,
                        peer_as=message.peer_as,
                        prefix=announcement.prefix,
                        as_path=announcement.attributes.as_path,
                    )
                )
        elif isinstance(message, Notification):
            records.append(
                TraceRecord(
                    type="S", timestamp=message.timestamp, peer_as=message.peer_as
                )
            )
    return records


def records_to_columnar(
    records: Iterable[TraceRecord],
    pool: Optional[InternPool] = None,
    report: Optional[ValidationReport] = None,
) -> ColumnarTrace:
    """Parse trace records into a columnar stream (one prefix per message).

    One :class:`RowParser` pass.  Records with a non-positive peer AS or a
    timestamp running backwards raise
    :class:`~repro.traces.validation.TraceValidationError`; pass a lenient
    ``report`` to count-and-skip them instead.
    """
    parser = RowParser(report if report is not None else ValidationReport())
    trace = ColumnarTrace(pool=pool)
    for record in records:
        parser.append(trace, record)
    return trace
