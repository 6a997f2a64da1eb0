"""Shared ingestion validation: strict rejection or lenient count-and-skip.

A malformed dump line must not reach inference — a non-monotone timestamp
breaks every bisect over the time column, a non-positive peer AS names no
session.  The text ingestion surfaces
(:meth:`repro.traces.mrt.TraceRecord.from_line`,
:class:`repro.traces.mrt.RowParser`,
:func:`repro.traces.mrt.records_to_columnar`) funnel every such defect
through one :class:`ValidationReport`:

* **strict** (the default): the first defect raises a typed
  :class:`TraceValidationError` naming the reason and the offending row —
  malformed input never reaches inference;
* **lenient**: defects are counted per reason (with a first-example detail
  for diagnosis) and the offending rows are *skipped*, so a mostly-good
  stream degrades gracefully instead of aborting a month replay.

Bytes on disk are guarded elsewhere: every frame carries a CRC
(:mod:`repro.traces.columnar_store`) and
:meth:`repro.traces.columnar.ColumnarTrace.from_payload` checks the format
version.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict

__all__ = ["TraceValidationError", "ValidationReport"]


class TraceValidationError(ValueError):
    """A malformed trace input, rejected by strict validation.

    ``reason`` is a stable machine-readable slug (``"malformed-line"``,
    ``"invalid-peer"`` or ``"non-monotone-timestamp"``); ``detail``
    pinpoints the offending input.  Subclasses :class:`ValueError` so pre-existing callers
    catching the untyped error keep working.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        self.detail = detail
        message = f"{reason}: {detail}" if detail else reason
        super().__init__(message)


@dataclass
class ValidationReport:
    """Counts what validation saw — and decides reject vs count-and-skip.

    One report threads through a whole ingestion pass (a file read);
    ``skipped`` tallies dropped rows per reason and
    ``examples`` keeps the first offending detail of each reason for the
    log line.  ``flag()`` is the single decision point: it raises in
    strict mode and records in lenient mode, so call sites never branch on
    the mode themselves.
    """

    lenient: bool = False
    checked: int = 0
    skipped: Counter = field(default_factory=Counter)
    examples: Dict[str, str] = field(default_factory=dict)

    def flag(self, reason: str, detail: str = "") -> None:
        """Report one malformed row: raise (strict) or count it (lenient)."""
        if not self.lenient:
            raise TraceValidationError(reason, detail)
        self.note(TraceValidationError(reason, detail))

    def note(self, error: TraceValidationError) -> None:
        """Record an already-raised validation error (lenient reader path)."""
        self.skipped[error.reason] += 1
        self.examples.setdefault(error.reason, error.detail)

    @property
    def skipped_total(self) -> int:
        """Total rows dropped by lenient validation."""
        return sum(self.skipped.values())

    @property
    def clean(self) -> bool:
        """True when nothing had to be rejected or skipped."""
        return not self.skipped

    def summary(self) -> str:
        """One log-friendly line: totals plus per-reason counts."""
        if self.clean:
            return f"validated {self.checked} rows, all clean"
        reasons = ", ".join(
            f"{reason} x{count} (e.g. {self.examples.get(reason, '?')})"
            for reason, count in sorted(self.skipped.items())
        )
        return (
            f"validated {self.checked} rows, skipped {self.skipped_total}: {reasons}"
        )
