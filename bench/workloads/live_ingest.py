"""``live_ingest``: feed lines through the daemon into sealed segments, then
live replay over the windows."""

from __future__ import annotations

import io
import itertools
import os
import shutil
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.experiments.month_replay import replay_stream
from repro.ingest import IngestConfig, IngestDaemon, LiveReplay, Manifest, iter_feed_windows
from repro.ingest.manifest import IngestManifestError
from repro.traces.mrt import TraceReader, messages_to_records
from repro.traces.validation import ValidationReport

from bench import layers
from bench.harness import OUT_DIR, PassResult, PhaseClock, Workload
from bench.workloads.corpus import Session, build_sessions

__all__ = ["LineFeed", "LiveIngest"]


class LineFeed:
    """A feed serving pre-rendered lines: the interface ``IngestDaemon`` reads
    (``name``, ``rate``, ``connect(offset)``), with nothing generated on the
    event loop.  With ``record_yields`` it also notes when each line was
    handed over, for the traced pass's line-to-ack latency."""

    rate = None

    def __init__(self, name: str, lines: List[str], record_yields: bool = False) -> None:
        self.name = name
        self.lines = lines
        self.yielded_at: Optional[List[float]] = [0.0] * len(lines) if record_yields else None

    def connect(self, offset: int = 0) -> Iterator[Tuple[int, str]]:
        lines = self.lines
        yielded_at = self.yielded_at
        for position in range(offset, len(lines)):
            if yielded_at is not None:
                yielded_at[position] = time.perf_counter()
            yield position, lines[position]


class LiveIngest(Workload):
    """Two sessions pre-rendered to ``TraceRecord`` lines and served by a list
    feed through ``IngestDaemon(...).run()`` with the library-default
    ``IngestConfig()``, then ``iter_feed_windows`` → ``LiveReplay.consume``
    per feed.

    Line parsing, the durable segment append, the daemon's queue and the
    column store do most of the work and the router little.  The ingest root
    is inside the checkout (``bench/out``): the daemon fsyncs once per row,
    so on a disk the phase is mostly fsync wait, and the sizes are small for
    that reason — each feed carries one rerouting burst and rolls one
    segment.
    """

    name = "live_ingest"
    why = (
        "line parse, durable segment append, daemon queue and column store dominate, "
        "router idles: two list feeds through IngestDaemon, then LiveReplay over the sealed windows"
    )
    FULL = {
        "table": 6000,
        # Both sessions of this topology have one link carrying ~3.6k
        # prefixes: one burst of ~2.9k withdrawals each, one inference each.
        "topology_seed": 38,
        "ladders": [[3300], [3300]],
        "chunk_rows": 1000,
        # Quiet rows before and after the burst bring each feed just past
        # the default 4,096-row segment, so each feed rolls once.
        "noise_pairs": 200,
        "heal": False,
    }
    SMOKE = {**FULL, "ladders": [[3300], []], "noise_pairs": 30}

    def generate(self) -> None:
        self.sessions: List[Session] = build_sessions(self.seed, self.sizes)
        self.lines: Dict[str, List[str]] = {}
        for session in self.sessions:
            messages = itertools.chain.from_iterable(
                chunk.iter_messages() for kind, chunk in session.steps if kind == "rows"
            )
            self.lines[f"peer-{session.peer_as}"] = [
                record.to_line() for record in messages_to_records(messages)
            ]
        self.rows = sum(len(lines) for lines in self.lines.values())
        self.expected: Dict[str, tuple] = {}
        self._passes = 0

    def reference(self) -> None:
        """Offline replay of the same lines: what live replay must equal."""
        for session in self.sessions:
            name = f"peer-{session.peer_as}"
            text = "".join(line + "\n" for line in self.lines[name])
            stream = TraceReader(io.StringIO(text)).read_columnar(
                report=ValidationReport(lenient=True)
            )
            offline = replay_stream(
                stream,
                session.rib,
                session.peer_as,
                collect_events=True,
                kernel_backend=self.backend,
            )
            self.expected[name] = offline.signature()
        if not any(signature[4] for signature in self.expected.values()):
            raise RuntimeError("the reference replay saw no reroute; nothing to time")

    # -- passes --------------------------------------------------------------

    def setup(self) -> dict:
        replays = {
            f"peer-{session.peer_as}": LiveReplay(
                session.rib,
                session.peer_as,
                collect_events=True,
                kernel_backend=self.backend,
            )
            for session in self.sessions
        }
        self._passes += 1
        root = os.path.join(OUT_DIR, f"ingest-{os.getpid()}-{self._passes}")
        return {"replays": replays, "root": root}

    def teardown(self, state: dict) -> None:
        shutil.rmtree(state["root"], ignore_errors=True)

    def drive(self, state: dict, clock: PhaseClock, tracer=None) -> PassResult:
        root = state["root"]
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        traced = tracer is not None
        feeds = [LineFeed(name, lines, record_yields=traced) for name, lines in self.lines.items()]
        ack_ms: List[float] = []
        acked_through = {feed.name: 0 for feed in feeds}
        by_name = {feed.name: feed for feed in feeds}

        def note_ack(name: str, rows_acked: int, next_offset: int) -> None:
            now = time.perf_counter()
            yielded_at = by_name[name].yielded_at
            for position in range(acked_through[name], next_offset):
                ack_ms.append((now - yielded_at[position]) * 1e3)
            acked_through[name] = next_offset

        if traced:
            tracer.group = "ingest"
        with clock:
            ingested = IngestDaemon(
                root, feeds, IngestConfig(), ack=note_ack if traced else None
            ).run()

        events: Dict[object, float] = {}
        problems: List[str] = []
        windows = 0
        for name, live in state["replays"].items():
            reroutes = 0
            iterator = iter_feed_windows(root, name)
            for number in itertools.count():
                if traced:
                    tracer.group = f"{name}/{number}"
                with clock:
                    started = time.perf_counter()
                    window = next(iterator, None)
                    if window is not None:
                        live.consume(window)
                    elapsed = (time.perf_counter() - started) * 1e3
                if window is None:
                    break
                windows += 1
                seen = live.result().reroutes
                if seen > reroutes:
                    events[(name, number)] = elapsed
                    reroutes = seen

        # Untimed checks: nothing dropped, segments intact, replay identical.
        for feed in feeds:
            status = ingested.feeds[feed.name]
            if status.rows_acked != len(feed.lines) or status.lines_skipped:
                problems.append(
                    f"{feed.name}: {len(feed.lines)} lines served, "
                    f"{status.rows_acked} acknowledged, {status.lines_skipped} skipped"
                )
        for name in ingested.failed_feeds:
            problems.append(f"{name}: feed failed ({ingested.feeds[name].failed})")
        manifest = Manifest.load(root)
        try:
            manifest.verify()
        except IngestManifestError as error:
            problems.append(f"manifest: {error}")
        signatures = {}
        for name, live in state["replays"].items():
            signatures[name] = live.result().signature()
            if signatures[name] != self.expected[name]:
                problems.append(f"{name}: live replay differs from the offline replay")
        state["ingested"] = ingested
        state["ack_ms"] = ack_ms
        state["segment_bytes"] = [
            entry["bytes"]
            for name in self.lines
            for entry in manifest.feed_state(name)["sealed"]
        ]
        return PassResult(
            rows=self.rows,
            events=events,
            attempted=self.rows + windows + len(feeds),
            failed=len(problems),
            signature=tuple(sorted(signatures.items())),
            problems=problems[:5],
        )

    # -- traced pass ---------------------------------------------------------

    def instrument(self, tracer) -> None:
        layers.apply_wraps(tracer, layers.ingest_wraps())

    def layer_metrics(self, tracer, state, result, wall) -> Dict[str, float]:
        return layers.ingest_metrics(
            layers.SpanIndex(tracer),
            rows=result.rows,
            statuses=list(state["ingested"].feeds.values()),
            segment_bytes=state["segment_bytes"],
            ack_ms=state["ack_ms"],
        )
