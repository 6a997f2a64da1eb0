#!/usr/bin/env python3
"""Trace analysis: extract bursts from a (synthetic) collector feed and
evaluate SWIFT's inference on them — the §2.2 + §6.2 pipeline.

The script generates a multi-session trace calibrated to the burst statistics
of the paper's RouteViews / RIPE RIS dataset, writes one session to the MRT-
like on-disk format, reads it back into columns, extracts bursts with the
10 s sliding window (start threshold 1,500 withdrawals, stop threshold 9)
and runs the SWIFT inference engine on each extracted burst's rows,
reporting TPR/FPR.

Run with:  python examples/trace_analysis.py [peer_count] [duration_days]

Defaults reproduce the §2.2/§6.2 setting (6 sessions, 10 days); the smoke
test runs a tiny ``python examples/trace_analysis.py 2 2`` variant.
"""

import os
import sys
import tempfile

sys.path.insert(0, "src")

from repro.core.burst_detection import extract_bursts
from repro.core.inference import InferenceConfig, InferenceEngine
from repro.metrics.classification import classify_inference
from repro.traces.columnar import ColumnarRun
from repro.traces.mrt import TraceReader, TraceWriter, messages_to_records
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator


def main() -> None:
    config = SyntheticTraceConfig(
        peer_count=int(sys.argv[1]) if len(sys.argv) > 1 else 6,
        duration_days=float(sys.argv[2]) if len(sys.argv) > 2 else 10,
        min_table_size=4000,
        max_table_size=20000,
        noise_rate_per_second=0.02,
        seed=17,
    )
    trace = SyntheticTraceGenerator(config).generate()
    print(f"generated {trace.burst_count} bursts across {len(trace.peers)} sessions")

    # Pick the busiest session and round-trip its stream through the trace format.
    peer = max(trace.peers, key=lambda p: len(trace.bursts_of(p.peer_as)))
    messages = trace.messages_of(peer.peer_as)
    with tempfile.NamedTemporaryFile("w", suffix=".trace", delete=False) as handle:
        path = handle.name
        TraceWriter(handle).write_all(messages_to_records(messages))
    columns = TraceReader(path).read_columnar()
    os.unlink(path)
    print(f"session AS{peer.peer_as}: {len(columns)} messages round-tripped via {path!r}")

    # Extract bursts with the paper's sliding-window detection.
    bursts = extract_bursts(columns)
    print(f"extracted {len(bursts)} bursts (>=1.5k withdrawals per 10 s window)\n")

    rib = trace.rib_of(peer.peer_as)
    session_prefixes = list(rib)
    prefix_at = columns.pool.prefix_at
    wd_end = columns.wd_end
    for index, burst in enumerate(bursts):
        first, last = burst.first_row, burst.last_row
        engine = InferenceEngine(rib, config=InferenceConfig())
        engine.process_columnar_run(ColumnarRun(columns, first, last + 1, peer.peer_as))
        result = engine.accepted_inference
        if result is None:
            print(f"burst {index}: {burst.size} withdrawals - below the triggering "
                  "threshold, no fast-reroute")
            continue
        low = wd_end[first - 1] if first else 0
        withdrawn = set(map(prefix_at, columns.wd_prefix[low : wd_end[last]]))
        counts = classify_inference(
            result.prediction.predicted_prefixes, withdrawn, session_prefixes
        )
        print(
            f"burst {index}: {burst.size} withdrawals over {burst.duration:.1f} s\n"
            f"    inferred links {result.inferred_links} after "
            f"{result.withdrawals_seen} withdrawals "
            f"({result.inference_delay:.1f} s into the burst)\n"
            f"    TPR {100 * counts.tpr:.1f}%  FPR {100 * counts.fpr:.2f}%  "
            f"rerouted {counts.predicted_count} prefixes"
        )


if __name__ == "__main__":
    main()
