"""On-disk memoisation for generated traces.

The synthetic month traces behind the benchmark suite take minutes to
generate but are pure functions of their configuration, so they are perfect
memoisation targets: :func:`load_or_build` persists the built value under a
key derived from the configuration's fingerprint, and later sessions reload
it in seconds instead of regenerating.  A synthetic trace has one entry
kind, ``trace`` (:func:`repro.traces.synthetic.cached_trace`); the burst
corpora of :mod:`repro.experiments.common` are read from it.

Cache keys are *hardened* on two axes:

* every key embeds the global :data:`CACHE_VERSION` **and** the caller's
  per-format ``format_version`` (e.g. the columnar schema version), so
  entries written by older code are never even opened: a version bump
  changes the file name and the stale entry simply stops being referenced
  (migration is transparent: the value is rebuilt and re-cached under the
  new key);
* :func:`fingerprint` renders a configuration *including its default
  fields*, so changing a default changes the key even for callers that
  never passed the field explicitly.

Every entry has one layout, the sealed ingest segment's: a single frame of
the ingest append log (:class:`~repro.traces.columnar_store.SegmentAppendLog`
— ``u32 length | u32 CRC32 | pickle``) holding ``encode(value)``, written
and read by :func:`~repro.traces.columnar_store.write_frame` /
:func:`~repro.traces.columnar_store.read_frame`.  Callers pass the
encode/decode pair that turns their value into plain buffers and back —
:meth:`~repro.traces.synthetic.SyntheticTrace.to_payload` /
:meth:`~repro.traces.synthetic.SyntheticTrace.from_payload` for a trace:
one interning pool, then per session its column buffers, RIB columns and
each burst's ground truth and rows — so a hit is a CRC check, an unpickle
of a few large ``bytes`` objects and one ``frombytes`` per column, never an
object-graph restore.

The cache lives in ``.trace_cache/`` at the repository root by default;
set ``REPRO_TRACE_CACHE`` to relocate it or ``REPRO_TRACE_CACHE=off`` to
disable caching entirely (every load then falls through to the builder).
A payload that refuses to decode (a columnar format-version mismatch) is a
plain miss and rebuilt.  An entry that fails its frame check — a flipped
byte anywhere, truncation, a torn write, a frame that does not unpickle —
is additionally **quarantined**: the bad entry is renamed to
``<entry>.corrupt`` for post-mortem, a warning is logged once per entry,
and the value is rebuilt under the original name.  Writes ``fsync`` the
temp file before the rename (and the directory after), so a crash
mid-write can leave at most an unreferenced temp file — never a torn entry
under the final name.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import logging
import os
import re
import time
from typing import Any, Callable, Optional

from repro.traces.columnar_store import CorruptColumnStoreError, read_frame, write_frame
from repro.util.atomic import write_atomic

logger = logging.getLogger(__name__)

__all__ = [
    "cache_path_for",
    "clear_cache",
    "fingerprint",
    "load_or_build",
]

#: Bump when the generators' output for a given configuration changes, so
#: stale entries from older code are never served.  v5: trace payloads moved
#: from pickled object graphs to columnar blobs.  v6: every entry is one
#: CRC-checked append-log frame of plain buffers.  v7: a synthetic trace is
#: one entry of per-session columns over one pool, with each burst's rows
#: (the ``stream`` and ``corpus`` kinds are gone).
CACHE_VERSION = 7

_ENV_VAR = "REPRO_TRACE_CACHE"


def _default_cache_dir() -> str:
    # src/repro/traces/trace_cache.py -> repository root.
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    return os.path.join(root, ".trace_cache")


def _cache_dir() -> Optional[str]:
    configured = os.environ.get(_ENV_VAR)
    if configured is not None:
        if configured.strip().lower() in {"off", "0", "none", ""}:
            return None
        return configured
    return _default_cache_dir()


#: Scalar types whose ``repr`` is deterministic by construction; anything
#: else falling through to the ``repr`` branch is screened for
#: memory-address markers first.
_SCALAR_TYPES = (type(None), bool, int, float, complex, str, bytes, bytearray)

#: The ``<module.Class object at 0x7f...>`` marker of reprs that embed the
#: instance's memory address — a different string every process.
_ADDRESS_REPR = re.compile(r" at 0x[0-9a-fA-F]+")


def fingerprint(value: Any) -> str:
    """Deterministic, default-inclusive description of a configuration.

    Dataclasses render with *every* field (sorted by name), so defaulted
    parameters participate in the cache key; mappings and sets render with
    sorted keys/members (ordered by their *fingerprints*, so mixed-type
    keys never hit an unorderable ``sorted``).  Anything else falls back to
    ``repr`` — but a repr embedding the object's memory address (the
    ``object.__repr__`` default) raises :class:`TypeError` instead of
    silently minting a fresh cache key every process, which would turn the
    cache into a permanent miss that regenerates minutes-long traces.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = ",".join(
            f"{field.name}={fingerprint(getattr(value, field.name))}"
            for field in sorted(dataclasses.fields(value), key=lambda f: f.name)
        )
        return f"{type(value).__name__}({fields})"
    if isinstance(value, dict):
        items = ",".join(
            f"{key_print}:{fingerprint(item)}"
            for key_print, item in sorted(
                ((fingerprint(key), item) for key, item in value.items()),
                key=lambda pair: pair[0],
            )
        )
        return f"{{{items}}}"
    if isinstance(value, (set, frozenset)):
        return f"{{{','.join(sorted(fingerprint(item) for item in value))}}}"
    if isinstance(value, (list, tuple)):
        body = ",".join(fingerprint(item) for item in value)
        return f"[{body}]" if isinstance(value, list) else f"({body})"
    if isinstance(value, _SCALAR_TYPES) or isinstance(value, enum.Enum):
        return repr(value)
    rendered = repr(value)
    if _ADDRESS_REPR.search(rendered):
        raise TypeError(
            f"cannot fingerprint {type(value).__name__}: its repr embeds a "
            f"memory address ({rendered!r}), which would change every "
            f"process and permanently miss the cache; give the type a "
            f"deterministic __repr__ or make it a dataclass"
        )
    return rendered


def cache_path_for(
    kind: str, spec: str, format_version: Optional[int] = None
) -> Optional[str]:
    """The cache file a (kind, spec) pair would use, or ``None`` if disabled.

    ``spec`` should be a deterministic description of everything the built
    value depends on — prefer :func:`fingerprint` of the full configuration
    over a bare ``repr``, so defaulted parameters are part of the key.
    ``format_version`` is the caller's on-disk format version (e.g.
    :data:`repro.traces.columnar.COLUMNAR_FORMAT_VERSION`); bumping either
    version changes the key, so pre-bump entries miss cleanly.
    """
    directory = _cache_dir()
    if directory is None:
        return None
    digest = hashlib.sha256(
        f"v{CACHE_VERSION}|f{format_version}|{kind}|{spec}".encode("utf-8")
    ).hexdigest()[:24]
    return os.path.join(directory, f"{kind}-{digest}.pkl")


#: Orphan ``.tmp`` files older than this are swept opportunistically; young
#: ones are left alone — they may belong to a live concurrent writer.
_STALE_TMP_SECONDS = 3600.0


def _sweep_stale_tmp(directory: str, max_age_seconds: float = _STALE_TMP_SECONDS) -> int:
    """Remove orphaned temp files an interrupted writer left behind.

    Called from the write path of :func:`load_or_build` and from
    :func:`clear_cache`, so a crash mid-write can no longer accumulate
    ``.tmp`` litter forever.  Returns the number of files removed; never
    raises — sweeping is best-effort by design.
    """
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    horizon = time.time() - max_age_seconds
    for name in names:
        if not name.endswith(".tmp"):
            continue
        path = os.path.join(directory, name)
        try:
            if max_age_seconds <= 0 or os.path.getmtime(path) < horizon:
                os.unlink(path)
                removed += 1
        except OSError:
            continue
    return removed


def _fault_hook(temp_path: str, final_path: str) -> None:
    """Consult the fault-injection harness on the cache write path.

    Keyed by the *final* entry name (so specs can match cache entries),
    applied to the temp file: ``io_error`` specs raise (the write degrades
    to best-effort, exactly like a real filesystem error); ``corrupt``
    specs flip a seeded byte in the about-to-be-renamed entry — the
    torn-write damage the frame checksum exists to detect.  A no-op when
    the harness is idle.
    """
    from repro.testing import faults

    injector = faults.active_injector()
    if injector is None:
        return
    spec = injector.fire("cache.write", key=os.path.basename(final_path))
    if spec is not None and spec.kind == "corrupt":
        faults.corrupt_file(temp_path, seed=injector.plan.seed)


def _write_atomic(path: str, writer: Callable[[str], None]) -> None:
    """Write a cache entry via temp file + fsync + rename.

    Delegates to :func:`repro.util.atomic.write_atomic` (shared with the
    ingestion manifest/segment writers) after sweeping stale ``.tmp``
    litter, with the fault-injection hook pointed between the write and
    the fsync — exactly where a real torn write would land.
    """
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    _sweep_stale_tmp(directory)
    write_atomic(path, writer, hook=lambda temp_path: _fault_hook(temp_path, path))


#: Entries already quarantine-logged this process (one warning per blob).
_QUARANTINE_LOGGED: set = set()


def _quarantine(path: str, error: Exception) -> None:
    """Move a provably-corrupt cache blob aside and log once.

    The blob is renamed to ``<path>.corrupt`` (replacing any previous
    quarantined copy) so the damaged bytes stay available for post-mortem
    while the cache path is freed for the rebuild.  If even the rename
    fails, the blob is unlinked; if that fails too, the rebuild will
    overwrite it.  Never raises — quarantine is best-effort by design.
    """
    target = path + ".corrupt"
    try:
        # repro: allow(durability-ordering): best-effort rename-aside of an
        # already-corrupt blob; nothing durable is being written.
        os.replace(path, target)
    except OSError:
        target = None
        try:
            os.unlink(path)
        except OSError:
            pass
    if path not in _QUARANTINE_LOGGED:
        _QUARANTINE_LOGGED.add(path)
        destination = f"quarantined to {target}" if target else "removed"
        logger.warning(
            "corrupt trace-cache entry %s (%s); %s, rebuilding",
            path,
            error,
            destination,
        )


def load_or_build(
    kind: str,
    spec: str,
    builder: Callable[[], Any],
    format_version: Optional[int],
    encode: Callable[[Any], Any],
    decode: Callable[[Any], Any],
) -> Any:
    """Return the memoised value for (kind, spec), building it on a miss.

    The cache persists ``encode(value)`` and returns ``decode(payload)`` on
    a hit; a miss returns the freshly built value directly.  A damaged
    entry is quarantined and rebuilt; any other failure to read, decode or
    write — including a payload refusing to restore across format
    versions — silently degrades to ``builder()``: stale or corrupt entries
    are never half-loaded.

    The write is atomic (temp file + rename) so concurrent test sessions
    never observe a half-written entry.
    """
    path = cache_path_for(kind, spec, format_version=format_version)
    if path is not None and os.path.exists(path):
        try:
            return decode(read_frame(path))
        except CorruptColumnStoreError as error:
            _quarantine(path, error)
        except Exception:
            pass  # stale-format entry: rebuild below
    value = builder()
    if path is not None:
        try:
            payload = encode(value)
            _write_atomic(path, lambda temp_path: write_frame(temp_path, payload))
        except Exception:
            pass  # read-only filesystem etc.: caching is best-effort
    return value


def clear_cache() -> int:
    """Delete every cache entry; returns the number of files removed."""
    directory = _cache_dir()
    if directory is None or not os.path.isdir(directory):
        return 0
    removed = 0
    for name in os.listdir(directory):
        if name.endswith((".pkl", ".tmp", ".corrupt")):
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError:
                continue
    return removed
