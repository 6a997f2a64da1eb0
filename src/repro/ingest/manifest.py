"""The ingestion daemon's checkpointed manifest (``MANIFEST.json``).

One JSON document at the ingest root records, per feed, everything the
daemon must know to resume after ``kill -9``:

* ``sealed`` — one entry per sealed segment: sequence number, ``.sealed``
  file name, row count, whole-file CRC32, byte size, first/last row
  timestamps and the feed offset the segment ingested through;
* ``open_seq`` — the sequence number of the current *open* segment (its
  append log, ``seg-<N>.log``, holds the unsealed tail);
* ``next_offset`` / ``last_time`` — the feed read offset and the parser's
  monotonicity watermark *as of the last seal*: the resume floor when the
  open log is missing or empty;
* ``failed`` — the casualty record a ``strict=False`` daemon leaves behind
  when a feed exhausts its retries (surviving feeds keep ingesting);
* ``complete`` — the feed drained to EOF and its final segment sealed.

The manifest is only ever replaced atomically
(:func:`repro.util.atomic.write_atomic`): a crash at any point leaves
either the previous checkpoint or the new one, never a torn JSON.  The
ordering contract with the segment roll (flush log, write ``.sealed``,
*then* update the manifest, then unlink the log) is what makes recovery
unambiguous — see :mod:`repro.ingest.segments`.
"""

from __future__ import annotations

import json
import os
import zlib
from typing import Dict, List, Optional

from repro.traces.columnar import ColumnarTrace
from repro.traces.columnar_store import read_frame
from repro.util.atomic import write_atomic

__all__ = ["MANIFEST_NAME", "MANIFEST_VERSION", "IngestManifestError", "Manifest"]

MANIFEST_NAME = "MANIFEST.json"

#: Bump when the manifest document layout (or the sealed-segment file it
#: names) changes.  v2: a sealed segment is one append-log frame
#: (``seg-<N>.sealed``); a v1 root holds an older layout this code no
#: longer reads.
MANIFEST_VERSION = 2


class IngestManifestError(RuntimeError):
    """The manifest (or a segment it vouches for) failed an integrity check."""


def _fresh_feed_state() -> dict:
    return {
        "open_seq": 0,
        "next_offset": 0,
        "last_time": None,
        "sealed": [],
        "failed": None,
        "complete": False,
    }


class Manifest:
    """In-memory mirror of ``MANIFEST.json``; :meth:`save` checkpoints it."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.path = os.path.join(root, MANIFEST_NAME)
        self.feeds: Dict[str, dict] = {}

    @classmethod
    def load(cls, root: str) -> "Manifest":
        """Read the manifest at ``root`` (an absent one loads empty).

        A present-but-unreadable manifest raises
        :class:`IngestManifestError`: atomic replacement means a torn
        manifest cannot be a crash artifact, so damage is real corruption
        and silently restarting from row zero would re-ingest (duplicate)
        everything the sealed segments already hold.
        """
        manifest = cls(root)
        try:
            with open(manifest.path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            return manifest
        except (OSError, ValueError) as error:
            raise IngestManifestError(
                f"{manifest.path}: unreadable manifest ({error})"
            ) from error
        version = document.get("version")
        if version != MANIFEST_VERSION:
            raise IngestManifestError(
                f"{manifest.path}: manifest v{version}, running code expects "
                f"v{MANIFEST_VERSION}"
            )
        manifest.feeds = document.get("feeds") or {}
        return manifest

    def feed_state(self, name: str) -> dict:
        """The (mutable) per-feed record, created fresh on first access."""
        state = self.feeds.get(name)
        if state is None:
            state = self.feeds[name] = _fresh_feed_state()
        return state

    def sealed_rows(self, name: str) -> int:
        """Total rows across the feed's sealed segments."""
        return sum(entry["rows"] for entry in self.feed_state(name)["sealed"])

    def save(self) -> None:
        """Atomically replace ``MANIFEST.json`` with the current state."""
        document = {"version": MANIFEST_VERSION, "feeds": self.feeds}
        text = json.dumps(document, indent=2, sort_keys=True)

        def writer(temp_path: str) -> None:
            with open(temp_path, "w", encoding="utf-8") as handle:
                handle.write(text)

        write_atomic(self.path, writer)

    # -- integrity -----------------------------------------------------------

    def verify(self, feeds: Optional[List[str]] = None) -> int:
        """Check every sealed segment against its manifest entry.

        Re-reads each sealed segment and compares its whole-file CRC32,
        byte size and row count to what the manifest recorded at seal
        time; the row count comes from the segment's one frame, read
        through :func:`~repro.traces.columnar_store.read_frame`.  Raises
        :class:`IngestManifestError` on the first mismatch, missing file
        or damaged frame; returns the number of segments checked.
        The crash-recovery tests run this after every ``kill -9`` — the
        acknowledged dataset must be not merely present but bit-exact.
        """
        checked = 0
        for name in feeds if feeds is not None else sorted(self.feeds):
            for entry in self.feed_state(name)["sealed"]:
                path = os.path.join(self.root, name, entry["file"])
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                except OSError as error:
                    raise IngestManifestError(
                        f"{path}: sealed segment unreadable ({error})"
                    ) from error
                if len(data) != entry["bytes"]:
                    raise IngestManifestError(
                        f"{path}: {len(data)} bytes, manifest records "
                        f"{entry['bytes']}"
                    )
                if zlib.crc32(data) != entry["crc"]:
                    raise IngestManifestError(f"{path}: segment CRC mismatch")
                try:
                    rows = len(ColumnarTrace.from_payload(read_frame(path)))
                except ValueError as error:
                    raise IngestManifestError(
                        f"{path}: sealed segment unreadable ({error})"
                    ) from error
                if rows != entry["rows"]:
                    raise IngestManifestError(
                        f"{path}: {rows} rows, manifest records {entry['rows']}"
                    )
                checked += 1
        return checked
