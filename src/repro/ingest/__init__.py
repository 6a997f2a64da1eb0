"""Always-on streaming ingestion: supervised live feeds into crash-safe
rolling columnar segments, with windowed live inference over the tail.

The paper's SWIFT runs *on the live feed* of a router's BGP sessions; this
package is that always-on half of the reproduction.  An asyncio supervisor
(:class:`IngestDaemon`) runs one reader per collector session over a
rate-controlled source (:class:`SyntheticFeed`), each feeding a bounded
queue into a :class:`SegmentWriter` that appends into rolling segments —
an fsync'd append log while open, a log of exactly one CRC-checked frame
once sealed — checkpointed by an atomically-replaced ``MANIFEST.json``.  A
``kill -9`` at any point recovers to the last acknowledged row with no
loss and no duplicates (:func:`recover_feed`), and :class:`LiveReplay`
runs the same inference over each sealed window that offline
``month_replay`` runs over the whole stream, byte-identically.

See ``src/repro/ingest/README.md`` for the lifecycle, the manifest format
and the backpressure / recovery contracts.
"""

from repro.ingest.daemon import (
    FeedStatus,
    IngestConfig,
    IngestDaemon,
    IngestError,
    IngestResult,
)
from repro.ingest.feeds import SyntheticFeed
from repro.ingest.live import LiveReplay, iter_feed_windows, open_tail, replay_feed
from repro.ingest.manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    IngestManifestError,
    Manifest,
)
from repro.ingest.segments import FeedRecovery, SegmentWriter, recover_feed

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "FeedRecovery",
    "FeedStatus",
    "IngestConfig",
    "IngestDaemon",
    "IngestError",
    "IngestManifestError",
    "IngestResult",
    "LiveReplay",
    "Manifest",
    "SegmentWriter",
    "SyntheticFeed",
    "iter_feed_windows",
    "open_tail",
    "recover_feed",
    "replay_feed",
]
