"""Small shared utilities with no domain knowledge.

:mod:`repro.util.retry` — the bounded-retry policy (exponential backoff +
deterministic seeded jitter) the streaming ingestion daemon restarts its
feed readers under; :mod:`repro.util.atomic` — crash-safe file
writes (temp + fsync + rename) shared by the trace cache and the ingestion
manifest.
"""

from repro.util.atomic import fsync_directory, fsync_file, write_atomic
from repro.util.retry import RetryPolicy

__all__ = [
    "RetryPolicy",
    "fsync_directory",
    "fsync_file",
    "write_atomic",
]
