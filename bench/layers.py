"""Per-layer metrics: their registry, the calls wrapped to get them, and how
each is derived from the spans of one traced pass.

Layers are named after the program's modules.  A span name is
``<layer>.<operation>``; a metric name is ``<layer>.<quantity>``.  Spans
recorded while the harness was feeding a unit of work carry that unit's id
in ``group``; spans recorded during set-up carry ``None`` — that is how a
cold ``provision()`` is told from a warm one.

``bench/README.md`` holds the table saying which end-to-end metric each of
these should move, and on which workload it should not.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from bench import stats

__all__ = [
    "PER_LAYER",
    "SpanIndex",
    "apply_wraps",
    "ingest_metrics",
    "ingest_wraps",
    "router_metrics",
    "router_wraps",
    "trace_metrics",
]

#: ``(name, unit, better)`` of every per-layer metric, in report order.
#: ``BENCHMARK.json``'s ``per_layer`` list is this, verbatim.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("traces.mrt.parse_us_per_line", "us", "lower"),
    ("traces.mrt.lines_rejected", "count", "lower"),
    ("ingest.segments.append_us_per_row", "us", "lower"),
    ("ingest.segments.flush_calls", "count", "lower"),
    ("ingest.segments.rows_per_flush", "count", "higher"),
    ("ingest.segments.flush_ms_p50", "ms", "lower"),
    ("ingest.segments.fsync_calls", "count", "lower"),
    ("ingest.segments.roll_ms_p50", "ms", "lower"),
    ("traces.columnar_store.read_ms_per_segment", "ms", "lower"),
    ("traces.columnar_store.segment_bytes", "count", "lower"),
    ("ingest.daemon.rows_per_s", "1/s", "higher"),
    ("ingest.daemon.queue_high_water", "count", "higher"),
    ("ingest.daemon.ack_ms_p50", "ms", "lower"),
    ("ingest.daemon.ack_ms_p90", "ms", "lower"),
    ("ingest.daemon.restarts", "count", "lower"),
    ("ingest.daemon.lines_skipped", "count", "lower"),
    ("ingest.live.consume_ms_per_window", "ms", "lower"),
    ("ingest.live.windows", "count", "lower"),
    ("traces.columnar.segment_us_per_row", "us", "lower"),
    ("traces.columnar.rows_per_run", "count", "higher"),
    ("bgp.speaker.absorb_us_per_msg", "us", "lower"),
    ("bgp.speaker.commit_ms_p50", "ms", "lower"),
    ("bgp.speaker.best_changes_per_kmsg", "count", "lower"),
    ("bgp.speaker.busy_share", "%", "lower"),
    ("bgp.speaker.load_msgs_per_s", "1/s", "higher"),
    ("bgp.trie.build_s", "s", "lower"),
    ("bgp.trie.nodes", "count", "lower"),
    ("bgp.trie.lpm_us", "us", "lower"),
    ("core.burst_detection.observe_us_per_row", "us", "lower"),
    ("core.burst_detection.bursts_started", "count", "higher"),
    ("core.inference.us_per_msg", "us", "lower"),
    ("core.inference.busy_share", "%", "lower"),
    ("core.inference.infer_ms_p50", "ms", "lower"),
    ("core.inference.infer_ms_p90", "ms", "lower"),
    ("core.inference.results", "count", "lower"),
    ("core.inference.accepted", "count", "higher"),
    ("core.inference.accept_ratio", "%", "higher"),
    ("core.backup.compute_s", "s", "lower"),
    ("core.backup.us_per_prefix", "us", "lower"),
    ("core.backup.warm_ms_p50", "ms", "lower"),
    ("core.backup.prefixes_recomputed_per_round", "count", "lower"),
    ("core.encoding.encode_s", "s", "lower"),
    ("core.encoding.delta_ms_p50", "ms", "lower"),
    ("core.encoding.rules_ms_p50", "ms", "lower"),
    ("core.encoding.rules_per_reroute", "count", "lower"),
    ("dataplane.fib.load_s", "s", "lower"),
    ("dataplane.fib.update_ms_p50", "ms", "lower"),
    ("dataplane.fib.forward_us", "us", "lower"),
    ("dataplane.fib.install_us_per_rule", "us", "lower"),
    ("dataplane.fib.rules_installed", "count", "lower"),
    ("core.swifted_router.provision_cold_s", "s", "lower"),
    ("core.swifted_router.provision_warm_ms_p50", "ms", "lower"),
    ("core.swifted_router.provision_warm_self_ms", "ms", "lower"),
    ("core.swifted_router.apply_self_ms_p50", "ms", "lower"),
    ("trace.gc_share", "%", "lower"),
    ("trace.gc_gen2_collections", "count", "lower"),
    ("trace.unattributed_share", "%", "lower"),
    ("trace.overhead_share", "%", "lower"),
)


def _count(result) -> int:
    """How many things a call returned: list length, or 1 for a non-None."""
    if result is None:
        return 0
    if isinstance(result, (list, tuple)):
        return len(result)
    if isinstance(result, int):
        return result
    return 1


def router_wraps() -> tuple:
    """``(owner, attribute, span name, mark)`` for the router-side layers."""
    from repro.bgp.speaker import BGPSpeaker, SpeakerBatch
    from repro.core.backup import BackupComputer
    from repro.core.encoding import TagEncoder
    from repro.core.inference import InferenceEngine
    from repro.core.swifted_router import SwiftedRouter
    from repro.dataplane.fib import TwoStageForwardingTable

    fib = TwoStageForwardingTable
    return (
        (SwiftedRouter, "provision", "core.swifted_router.provision", None),
        (SwiftedRouter, "receive_columnar", "core.swifted_router.receive", _count),
        (SwiftedRouter, "receive", "core.swifted_router.receive", _count),
        # Table loads: the only callers of the speaker's own bulk entry
        # points in these workloads (the router's receive paths open their
        # batch directly).
        (BGPSpeaker, "receive_batch", "bgp.speaker.load", None),
        (BGPSpeaker, "receive_columnar", "bgp.speaker.load", None),
        (BGPSpeaker, "receive", "bgp.speaker.receive", _count),
        (SpeakerBatch, "add_columnar_run", "bgp.speaker.absorb", None),
        (SpeakerBatch, "add_run", "bgp.speaker.absorb", None),
        (SpeakerBatch, "commit", "bgp.speaker.commit", _count),
        (InferenceEngine, "process_columnar_run", "core.inference.process", _count),
        (InferenceEngine, "process_message", "core.inference.process", _count),
        (BackupComputer, "compute_table", "core.backup.compute_table", None),
        (BackupComputer, "protected_links", "core.backup.protected_links", None),
        (BackupComputer, "select", "core.backup.select", None),
        (TagEncoder, "encode", "core.encoding.encode", None),
        (TagEncoder, "encode_delta", "core.encoding.encode_delta", None),
        (TagEncoder, "reroute_rules", "core.encoding.reroute_rules", _count),
        (fib, "load_tags", "dataplane.fib.load_tags", None),
        (fib, "update_tags", "dataplane.fib.update_tags", None),
        (fib, "install_rule", "dataplane.fib.install_rule", None),
        (fib, "install_rules", "dataplane.fib.install_rules", _count),
        (fib, "clear_rules", "dataplane.fib.clear_rules", None),
        (fib, "forward_address", "dataplane.fib.forward", None),
    )


def ingest_wraps() -> tuple:
    """``(owner, attribute, span name, mark)`` for the ingest-side layers."""
    import os

    import repro.ingest.live as live_module
    from repro.ingest import IngestDaemon, LiveReplay, SegmentWriter
    from repro.traces.mrt import TraceRecord

    return (
        (IngestDaemon, "run", "ingest.daemon.run", None),
        (TraceRecord, "from_line", "traces.mrt.parse", _count),
        (SegmentWriter, "add_line", "ingest.segments.add_line", None),
        (SegmentWriter, "flush", "ingest.segments.flush", _count),
        (SegmentWriter, "roll", "ingest.segments.roll", None),
        (os, "fsync", "ingest.segments.fsync", None),
        # iter_feed_windows resolves read_trace through its own module.
        (live_module, "read_trace", "traces.columnar_store.read", None),
        (LiveReplay, "consume", "ingest.live.consume", None),
    )


def apply_wraps(tracer, wraps: Iterable[tuple]) -> None:
    for owner, attr, name, mark in wraps:
        tracer.wrap(owner, attr, name, mark)


class SpanIndex:
    """Spans of one traced pass, split into set-up and phase, by name."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        own = tracer.self_times()
        self._setup: Dict[str, List[Tuple[object, float]]] = {}
        self._phase: Dict[str, List[Tuple[object, float]]] = {}
        for span, self_time in zip(tracer.spans, own):
            side = self._setup if span.group is None else self._phase
            side.setdefault(span.name, []).append((span, self_time))

    def phase(self, *names: str) -> List[Tuple[object, float]]:
        """``(span, self time)`` pairs recorded while a unit was being fed."""
        return [pair for name in names for pair in self._phase.get(name, ())]

    def setup(self, *names: str) -> List[Tuple[object, float]]:
        return [pair for name in names for pair in self._setup.get(name, ())]

    def phase_self(self, prefix: str) -> float:
        """Total phase self time of every span whose name starts with ``prefix``."""
        return sum(
            self_time
            for name, pairs in self._phase.items()
            if name.startswith(prefix)
            for _, self_time in pairs
        )


def _durations_ms(pairs: Sequence[Tuple[object, float]]) -> List[float]:
    return [span.duration * 1e3 for span, _ in pairs]


def _p50(values: Sequence[float]) -> Optional[float]:
    return stats.percentile(values, 0.5) if values else None


def _total(pairs: Sequence[Tuple[object, float]]) -> float:
    return sum(span.duration for span, _ in pairs)


def _marks(pairs: Sequence[Tuple[object, float]]) -> int:
    return sum(span.mark or 0 for span, _ in pairs)


def _put(metrics: Dict[str, float], name: str, value: Optional[float]) -> None:
    """Record a metric only when the pass exercised the layer."""
    if value is not None:
        metrics[name] = float(value)


def router_metrics(
    index: SpanIndex,
    rows: int,
    wall: float,
    loaded_rows: int,
    table_prefixes: int,
    engines: Sequence[object],
    reroutes: int,
) -> Dict[str, float]:
    """Metrics of the speaker, inference, backup, encoding, FIB and router
    layers from one traced pass of a router-driving workload."""
    metrics: Dict[str, float] = {}
    speaker_phase = index.phase(
        "bgp.speaker.absorb", "bgp.speaker.commit", "bgp.speaker.receive"
    )
    if speaker_phase:
        absorb = index.phase("bgp.speaker.absorb", "bgp.speaker.receive")
        _put(metrics, "bgp.speaker.absorb_us_per_msg",
             sum(own for _, own in absorb) / rows * 1e6)
        _put(metrics, "bgp.speaker.commit_ms_p50",
             _p50(_durations_ms(index.phase("bgp.speaker.commit"))))
        changes = _marks(index.phase("bgp.speaker.commit", "bgp.speaker.receive"))
        _put(metrics, "bgp.speaker.best_changes_per_kmsg", changes / rows * 1e3)
        _put(metrics, "bgp.speaker.busy_share",
             100.0 * index.phase_self("bgp.speaker.") / wall)
    loads = index.setup("bgp.speaker.load")
    if loads and loaded_rows:
        _put(metrics, "bgp.speaker.load_msgs_per_s", loaded_rows / _total(loads))

    inference = index.phase("core.inference.process")
    if inference:
        busy = sum(own for _, own in inference)
        _put(metrics, "core.inference.us_per_msg", busy / rows * 1e6)
        _put(metrics, "core.inference.busy_share", 100.0 * busy / wall)
        fired = _durations_ms([pair for pair in inference if pair[0].mark])
        if fired:
            _put(metrics, "core.inference.infer_ms_p50", stats.percentile(fired, 0.5))
            _put(metrics, "core.inference.infer_ms_p90", stats.percentile(fired, 0.9))
        results = [result for engine in engines for result in engine.results]
        accepted = sum(1 for result in results if result.accepted)
        _put(metrics, "core.inference.results", len(results))
        _put(metrics, "core.inference.accepted", accepted)
        if results:
            _put(metrics, "core.inference.accept_ratio", 100.0 * accepted / len(results))

    cold = index.setup("core.backup.compute_table")
    if cold:
        _put(metrics, "core.backup.compute_s", _total(cold))
        _put(metrics, "core.backup.us_per_prefix", _total(cold) / table_prefixes * 1e6)
    warm = index.phase("core.backup.protected_links", "core.backup.select")
    if warm:
        per_round: Dict[object, float] = {}
        for span, _ in warm:
            per_round[span.group] = per_round.get(span.group, 0.0) + span.duration * 1e3
        _put(metrics, "core.backup.warm_ms_p50", _p50(list(per_round.values())))
        _put(metrics, "core.backup.prefixes_recomputed_per_round",
             len(index.phase("core.backup.protected_links")) / len(per_round))

    encode = index.setup("core.encoding.encode")
    if encode:
        _put(metrics, "core.encoding.encode_s", _total(encode))
    _put(metrics, "core.encoding.delta_ms_p50",
         _p50(_durations_ms(index.phase("core.encoding.encode_delta"))))
    rules = index.phase("core.encoding.reroute_rules")
    if rules and reroutes:
        _put(metrics, "core.encoding.rules_ms_p50", _p50(_durations_ms(rules)))
        _put(metrics, "core.encoding.rules_per_reroute", _marks(rules) / reroutes)

    load = index.setup("dataplane.fib.load_tags")
    if load:
        _put(metrics, "dataplane.fib.load_s", _total(load))
    _put(metrics, "dataplane.fib.update_ms_p50",
         _p50(_durations_ms(index.phase("dataplane.fib.update_tags"))))
    forwards = index.phase("dataplane.fib.forward")
    if forwards:
        _put(metrics, "dataplane.fib.forward_us", _total(forwards) / len(forwards) * 1e6)
    installs = index.phase("dataplane.fib.install_rules")
    installed = _marks(installs)
    if installed:
        _put(metrics, "dataplane.fib.install_us_per_rule", _total(installs) / installed * 1e6)
        _put(metrics, "dataplane.fib.rules_installed", installed)

    provision_cold = index.setup("core.swifted_router.provision")
    if provision_cold:
        _put(metrics, "core.swifted_router.provision_cold_s", _total(provision_cold))
    provision_warm = index.phase("core.swifted_router.provision")
    if provision_warm:
        _put(metrics, "core.swifted_router.provision_warm_ms_p50",
             _p50(_durations_ms(provision_warm)))
        _put(metrics, "core.swifted_router.provision_warm_self_ms",
             stats.median([own * 1e3 for _, own in provision_warm]))
    applying = [
        own * 1e3 for span, own in index.phase("core.swifted_router.receive") if span.mark
    ]
    _put(metrics, "core.swifted_router.apply_self_ms_p50", _p50(applying))
    return metrics


def ingest_metrics(
    index: SpanIndex,
    rows: int,
    statuses: Sequence[object],
    segment_bytes: Sequence[int],
    ack_ms: Sequence[float],
) -> Dict[str, float]:
    """Metrics of the parse, segment, store, daemon and live-replay layers."""
    metrics: Dict[str, float] = {}
    parses = index.phase("traces.mrt.parse")
    _put(metrics, "traces.mrt.parse_us_per_line", _total(parses) / len(parses) * 1e6)
    _put(metrics, "traces.mrt.lines_rejected",
         sum(1 for span, _ in parses if not span.mark))
    appends = index.phase("ingest.segments.add_line")
    _put(metrics, "ingest.segments.append_us_per_row",
         sum(own for _, own in appends) / rows * 1e6)
    flushes = [pair for pair in index.phase("ingest.segments.flush") if pair[0].mark]
    _put(metrics, "ingest.segments.flush_calls", len(flushes))
    _put(metrics, "ingest.segments.rows_per_flush", _marks(flushes) / len(flushes))
    _put(metrics, "ingest.segments.flush_ms_p50", _p50(_durations_ms(flushes)))
    _put(metrics, "ingest.segments.fsync_calls", len(index.phase("ingest.segments.fsync")))
    _put(metrics, "ingest.segments.roll_ms_p50",
         _p50(_durations_ms(index.phase("ingest.segments.roll"))))
    reads = index.phase("traces.columnar_store.read")
    _put(metrics, "traces.columnar_store.read_ms_per_segment",
         _total(reads) / len(reads) * 1e3)
    _put(metrics, "traces.columnar_store.segment_bytes",
         sum(segment_bytes) / len(segment_bytes))
    _put(metrics, "ingest.daemon.rows_per_s",
         rows / _total(index.phase("ingest.daemon.run")))
    _put(metrics, "ingest.daemon.queue_high_water",
         max(status.queue_high_water for status in statuses))
    _put(metrics, "ingest.daemon.ack_ms_p50", stats.percentile(ack_ms, 0.5))
    _put(metrics, "ingest.daemon.ack_ms_p90", stats.percentile(ack_ms, 0.9))
    _put(metrics, "ingest.daemon.restarts", sum(status.restarts for status in statuses))
    _put(metrics, "ingest.daemon.lines_skipped",
         sum(status.lines_skipped for status in statuses))
    consumes = index.phase("ingest.live.consume")
    _put(metrics, "ingest.live.consume_ms_per_window",
         _total(consumes) / len(consumes) * 1e3)
    _put(metrics, "ingest.live.windows", len(consumes))
    return metrics


def trace_metrics(tracer, untraced_wall: float) -> Dict[str, float]:
    """What the trace says about itself: GC, coverage and its own cost."""
    roots = [
        (span, own)
        for span, own in zip(tracer.spans, tracer.self_times())
        if span.name == "bench.phase"
    ]
    wall = sum(span.duration for span, _ in roots)
    # A collection runs inside the call that triggered it, so a pause lies
    # wholly inside a timed section or wholly outside.
    pauses = [
        (start, end, generation)
        for start, end, generation in tracer.gc_pauses
        if any(span.start <= start and end <= span.end for span, _ in roots)
    ]
    return {
        "trace.gc_share": 100.0 * sum(end - start for start, end, _ in pauses) / wall,
        "trace.gc_gen2_collections": float(sum(1 for pause in pauses if pause[2] == 2)),
        "trace.unattributed_share": 100.0 * sum(own for _, own in roots) / wall,
        "trace.overhead_share": 100.0 * (wall - untraced_wall) / untraced_wall,
    }
