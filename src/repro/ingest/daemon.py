"""The always-on streaming ingestion daemon.

An asyncio supervisor runs one *reader* task per feed (a collector/peer
session) and one *writer* task per feed, connected by a bounded
:class:`asyncio.Queue`:

* the **reader** connects its feed at the current resume offset and pushes
  ``(offset, line)`` pairs into the queue — ``await queue.put`` on a full
  queue is the backpressure that paces a fast feed to the writer's
  durable-append throughput;
* the **writer** drains the queue into the feed's
  :class:`~repro.ingest.segments.SegmentWriter`: parse, append, and every
  ``flush_rows`` lines (or whenever the queue runs dry) write one fsync'd
  log frame — the acknowledgement point — rolling the segment every
  ``segment_rows`` rows;
* a **watchdog** task sweeps all feeds: a reader that has not enqueued a
  line for ``stall_timeout`` seconds (a hung source, an injected
  ``hang@feed.read``) is cancelled and restarted by its supervisor with
  the seeded backoff of :class:`repro.util.retry.RetryPolicy`.

Reader restarts are exactly-once by construction: the in-memory resume
offset advances only after a successful ``queue.put``, so a restarted
reader re-reads precisely the lines that never reached the queue; a
*process* death instead resumes from the durable checkpoint
(:func:`~repro.ingest.segments.recover_feed`), which trails by at most the
unflushed tail — unacknowledged by definition.

A feed that exhausts ``retry.max_attempts`` consecutive no-progress
attempts is a casualty: under ``strict=True`` (default) the daemon stops
with :class:`IngestError`; under ``strict=False`` the survivors keep
ingesting, the casualty's partial segment is sealed, and the manifest
records the failure.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.traces.validation import ValidationReport
from repro.util.retry import RetryPolicy

from repro.ingest.manifest import Manifest
from repro.ingest.segments import SegmentWriter, recover_feed

__all__ = ["FeedStatus", "IngestConfig", "IngestDaemon", "IngestError", "IngestResult"]


class IngestError(RuntimeError):
    """A feed failed permanently under ``strict=True``."""


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of one daemon run (frozen, like the other config surfaces)."""

    #: Lines per fsync'd log frame when the queue is backed up (the queue
    #: running dry always forces a flush, bounding ack latency).
    flush_rows: int = 256
    #: Rows per sealed segment (the live-replay window grain).
    segment_rows: int = 4096
    #: Bounded queue depth per feed — the backpressure budget.
    queue_size: int = 1024
    #: Seconds without reader progress before the watchdog restarts it.
    stall_timeout: float = 5.0
    #: Shared backoff policy for reader reconnects and flush/roll retries.
    retry: RetryPolicy = RetryPolicy()
    #: strict=True: any permanent feed failure aborts the run.
    #: strict=False: survivors keep ingesting, the manifest records the
    #: casualty.
    strict: bool = True
    #: True only under an external supervisor (the subprocess runner):
    #: lets injected ``kill`` faults hard-exit the process.
    supervised: bool = False

    def __post_init__(self) -> None:
        if self.flush_rows < 1:
            raise ValueError("flush_rows must be at least 1")
        if self.segment_rows < 1:
            raise ValueError("segment_rows must be at least 1")
        if self.queue_size < 1:
            raise ValueError("queue_size must be at least 1")
        if self.stall_timeout <= 0:
            raise ValueError("stall_timeout must be positive")


@dataclass
class FeedStatus:
    """Per-feed outcome of a daemon run."""

    name: str
    rows_acked: int = 0
    next_offset: int = 0
    segments_sealed: int = 0
    restarts: int = 0
    queue_high_water: int = 0
    lines_skipped: int = 0
    complete: bool = False
    failed: Optional[str] = None


@dataclass
class IngestResult:
    """Aggregate outcome of one :meth:`IngestDaemon.run`."""

    feeds: Dict[str, FeedStatus] = field(default_factory=dict)

    @property
    def total_rows(self) -> int:
        return sum(status.rows_acked for status in self.feeds.values())

    @property
    def failed_feeds(self) -> List[str]:
        return sorted(
            name for name, status in self.feeds.items() if status.failed is not None
        )


class _FeedRuntime:
    """Mutable in-loop state of one feed (reader progress, watchdog clock)."""

    def __init__(self, feed, writer: SegmentWriter, queue: "asyncio.Queue") -> None:
        self.feed = feed
        self.writer = writer
        self.queue = queue
        self.next_offset = writer.next_offset
        self.rows_read = 0
        self.last_progress: Optional[float] = None
        self.reader_task: Optional[asyncio.Task] = None
        self.stalled = False
        self.status = FeedStatus(name=feed.name)


_EOF = object()


async def _execute_feed_fault(injector, site: str, key: str, supervised: bool):
    """Async-aware twin of :meth:`FaultInjector.fire` for reader sites.

    ``hang`` must not block the event loop (the watchdog has to keep
    running to catch it), so it sleeps *asynchronously*; the other kinds
    match ``fire`` semantics.  Returns the spec for ``corrupt`` so the
    reader can mangle the line text.
    """
    from repro.testing import faults

    if injector is None:
        return None
    spec = injector.check(site, key=key)
    if spec is None:
        return None
    if spec.kind == "hang":
        await asyncio.sleep(spec.hang_seconds)
        raise faults.InjectedFault(f"injected hang at {site} ({key}) outlived its sleep")
    if spec.kind == "io_error":
        raise faults.InjectedIOError(f"injected IO error at {site} ({key})")
    if spec.kind == "kill":
        if supervised:
            import os

            os._exit(3)
        raise faults.InjectedFault(
            f"injected kill at {site} ({key}) outside a supervised daemon"
        )
    if spec.kind == "crash":
        raise faults.InjectedFault(f"injected crash at {site} ({key})")
    return spec  # corrupt: the reader owns the line damage


def _mangle_line(text: str) -> str:
    """Deterministically damage a feed line so it fails line validation."""
    return "corrupt<" + text


class IngestDaemon:
    """Supervises live feeds into crash-safe rolling segments.

    ``ack`` (optional) is called as ``ack(feed_name, rows_acked,
    next_offset)`` after every durable flush and seal — the hook the
    subprocess runner uses to report acknowledged progress to the
    crash-recovery tests *after* the corresponding fsync returned.
    """

    def __init__(
        self,
        root: str,
        feeds: Sequence,
        config: Optional[IngestConfig] = None,
        ack: Optional[Callable[[str, int, int], None]] = None,
    ) -> None:
        names = [feed.name for feed in feeds]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate feed names: {names}")
        self.root = root
        self.feeds = list(feeds)
        self.config = config if config is not None else IngestConfig()
        self._ack = ack

    def run(self) -> IngestResult:
        """Recover, ingest every feed to EOF, seal, and checkpoint.

        Synchronous wrapper around the asyncio supervisor — the daemon owns
        its event loop for the duration of the run.
        """
        return asyncio.run(self._run())

    # -- supervisor ----------------------------------------------------------

    async def _run(self) -> IngestResult:
        config = self.config
        manifest = Manifest.load(self.root)
        runtimes: List[_FeedRuntime] = []
        for feed in self.feeds:
            recovery = recover_feed(self.root, feed.name, manifest)
            writer = SegmentWriter(
                self.root,
                feed.name,
                manifest,
                recovery=recovery,
                supervised=config.supervised,
            )
            queue: asyncio.Queue = asyncio.Queue(maxsize=config.queue_size)
            runtimes.append(_FeedRuntime(feed, writer, queue))

        watchdog = asyncio.create_task(self._watchdog(runtimes))
        supervisors = [
            asyncio.create_task(self._run_feed(manifest, state)) for state in runtimes
        ]
        try:
            outcomes = await asyncio.gather(*supervisors, return_exceptions=True)
        finally:
            watchdog.cancel()
            for state in runtimes:
                if state.reader_task is not None:
                    state.reader_task.cancel()
            for state in runtimes:
                state.writer.close()
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome

        result = IngestResult()
        for state in runtimes:
            status = state.status
            status.rows_acked = state.writer.rows_acked
            status.next_offset = state.writer.next_offset
            status.segments_sealed = len(
                manifest.feed_state(state.feed.name)["sealed"]
            )
            status.lines_skipped = state.writer.line_report.skipped_total
            result.feeds[status.name] = status
        return result

    async def _watchdog(self, runtimes: List[_FeedRuntime]) -> None:
        """Cancel readers that stopped making progress (heartbeat check)."""
        config = self.config
        interval = min(1.0, config.stall_timeout / 4)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            now = loop.time()
            for state in runtimes:
                task = state.reader_task
                if task is None or task.done() or state.last_progress is None:
                    continue
                if now - state.last_progress > config.stall_timeout:
                    state.stalled = True
                    task.cancel()

    # -- per-feed supervision ------------------------------------------------

    async def _run_feed(self, manifest: Manifest, state: _FeedRuntime) -> None:
        """Supervise one feed: restartable reader + writer, then seal."""
        config = self.config
        writer_task = asyncio.create_task(self._drain_feed(manifest, state))
        failure: Optional[str] = None
        attempt = 0
        try:
            while True:
                rows_before = state.rows_read
                state.stalled = False
                state.last_progress = asyncio.get_running_loop().time()
                state.reader_task = asyncio.create_task(self._read_feed(state))
                try:
                    await state.reader_task
                    break  # EOF: the feed drained cleanly
                except asyncio.CancelledError:
                    if not state.stalled:
                        raise  # daemon shutdown, not a watchdog restart
                    error: Exception = TimeoutError(
                        f"feed {state.feed.name} stalled for >"
                        f"{config.stall_timeout:g}s"
                    )
                except (OSError, RuntimeError) as caught:
                    error = caught
                finally:
                    state.reader_task = None
                # Progress resets the attempt clock: only *consecutive*
                # no-progress failures exhaust the policy.
                attempt = attempt + 1 if state.rows_read == rows_before else 1
                state.status.restarts += 1
                if attempt >= config.retry.max_attempts:
                    failure = f"{type(error).__name__}: {error}"
                    break
                await asyncio.sleep(config.retry.delay(attempt))
        finally:
            # Hand the writer its EOF without blocking on a full queue in
            # case the writer itself already died (nothing would drain it).
            while not writer_task.done():
                try:
                    state.queue.put_nowait(_EOF)
                    break
                except asyncio.QueueFull:
                    await asyncio.sleep(0.01)
            drain_error = None
            try:
                await writer_task
            except Exception as caught:  # noqa: BLE001 - re-raised below
                drain_error = caught
        if drain_error is not None:
            failure = failure or f"{type(drain_error).__name__}: {drain_error}"
        await self._finish_feed(manifest, state, failure)

    async def _finish_feed(
        self, manifest: Manifest, state: _FeedRuntime, failure: Optional[str]
    ) -> None:
        """Seal the feed's tail and checkpoint its final manifest record."""
        feed_state = manifest.feed_state(state.feed.name)
        try:
            state.writer.flush()
            if state.writer.open_rows:
                state.writer.roll()
        except Exception as error:  # noqa: BLE001 - recorded as the casualty
            failure = failure or f"{type(error).__name__}: {error}"
        if failure is not None:
            state.status.failed = failure
            feed_state["failed"] = {"error": failure}
            manifest.save()
            if self.config.strict:
                raise IngestError(f"feed {state.feed.name} failed: {failure}")
            return
        state.status.complete = True
        feed_state["complete"] = True
        manifest.save()
        self._acknowledge(state)

    # -- reader --------------------------------------------------------------

    async def _read_feed(self, state: _FeedRuntime) -> None:
        """One reader incarnation: connect at the resume offset, enqueue."""
        from repro.testing import faults

        injector = faults.active_injector()
        feed = state.feed
        # Must use the async-aware twin, not injector.fire(): fire()'s hang
        # kind sleeps synchronously, which on the event loop would also
        # freeze the watchdog meant to catch the hang.
        await _execute_feed_fault(
            injector, "feed.connect", feed.name, self.config.supervised
        )
        loop = asyncio.get_running_loop()
        rate = getattr(feed, "rate", None)
        for offset, line in feed.connect(state.next_offset):
            spec = await _execute_feed_fault(
                injector, "feed.read", feed.name, self.config.supervised
            )
            if spec is not None:
                line = _mangle_line(line)
            await state.queue.put((offset, line))
            # Advance the resume offset only once the line is safely in the
            # pipeline: a reader restarted past this point must not re-read
            # it (duplicate), nor skip an unqueued one (loss).
            state.next_offset = offset + 1
            state.rows_read += 1
            state.last_progress = loop.time()
            depth = state.queue.qsize()
            if depth > state.status.queue_high_water:
                state.status.queue_high_water = depth
            if rate:
                await asyncio.sleep(1.0 / rate)
            else:
                # queue.put on a non-full queue never yields; give the
                # writer and watchdog the loop once per line.
                await asyncio.sleep(0)

    # -- writer --------------------------------------------------------------

    async def _drain_feed(self, manifest: Manifest, state: _FeedRuntime) -> None:
        """Drain the queue into the segment writer; flush and roll."""
        config = self.config
        writer = state.writer
        while True:
            item = await state.queue.get()
            if item is _EOF:
                break
            offset, line = item
            writer.add_line(offset, line)
            if writer.pending_lines >= config.flush_rows or state.queue.empty():
                await self._flush_with_retry(state)
            if writer.open_rows >= config.segment_rows:
                await self._roll_with_retry(state)

    async def _flush_with_retry(self, state: _FeedRuntime) -> None:
        await self._durable_with_retry(state, state.writer.flush)

    async def _roll_with_retry(self, state: _FeedRuntime) -> None:
        await self._durable_with_retry(state, state.writer.roll)

    async def _durable_with_retry(self, state: _FeedRuntime, operation) -> None:
        """Run a durability operation under the shared retry policy.

        Flush failures truncate the log to its durable end before raising,
        and roll is re-entrant across its phases, so retrying the bare
        operation is always safe.
        """
        retry = self.config.retry
        attempt = 0
        while True:
            try:
                operation()
            except (OSError, RuntimeError) as error:
                attempt += 1
                if attempt >= retry.max_attempts:
                    raise type(error)(
                        f"feed {state.feed.name}: {operation.__name__} failed "
                        f"after {attempt} attempts: {error}"
                    ) from error
                await asyncio.sleep(retry.delay(attempt))
            else:
                self._acknowledge(state)
                return

    def _acknowledge(self, state: _FeedRuntime) -> None:
        if self._ack is not None:
            self._ack(
                state.feed.name, state.writer.rows_acked, state.writer.next_offset
            )
