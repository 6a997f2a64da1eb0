"""Streaming ingestion benchmarks, recorded in ``BENCH_ingest.json``.

Three numbers characterise the always-on ingest path
(``src/repro/ingest/``):

* **Sustained throughput** — rows/s through the full reader → bounded
  queue → parse → fsync'd append log pipeline, for a multi-feed daemon
  run over a noisy multi-day corpus, plus the queue high-water marks the
  backpressure budget actually reached.
* **Recovery latency** — wall time for :func:`repro.ingest.recover_feed`
  to repair every feed directory and rebuild the open segments after the
  daemon subprocess is killed hard mid-ingest (the ``kill -9`` path the
  recovery tests prove correct; here we time it).
* **Segment roll cost** — amortised cost of sealing ``.cols`` segments,
  read off the throughput run's manifest.

Results merge into ``BENCH_ingest.json`` at the repository root with the
environment fields every ``BENCH_*.json`` carries (see
:func:`conftest.bench_env`), same pattern as ``BENCH_fleet.json``.
"""

import os
import subprocess
import sys
import time

import pytest

from conftest import bench_env, record

from repro.ingest import IngestConfig, IngestDaemon, Manifest, SyntheticFeed, recover_feed
from repro.traces.synthetic import SyntheticTraceConfig, SyntheticTraceGenerator

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(_REPO_ROOT, "BENCH_ingest.json")
_RUNNER = os.path.join(_REPO_ROOT, "tests", "_ingest_runner.py")

#: The throughput workload: two noisy sessions, a few days each — enough
#: rows (~30k) that per-row pipeline cost dominates setup.
_THROUGHPUT_CONFIG = SyntheticTraceConfig(
    peer_count=2,
    duration_days=3.0,
    min_table_size=4000,
    max_table_size=8000,
    burst_size_minimum=800,
    noise_rate_per_second=0.05,
    seed=23,
)


@pytest.mark.slow
def test_bench_ingest_throughput(tmp_path):
    """Sustained rows/s through the full daemon pipeline, multi-feed."""
    root = str(tmp_path)
    peers = [
        peer.peer_as
        for peer in SyntheticTraceGenerator(_THROUGHPUT_CONFIG).stream().peers
    ]
    feeds = [SyntheticFeed(_THROUGHPUT_CONFIG, peer_as) for peer_as in peers]
    config = IngestConfig(flush_rows=512, segment_rows=8192, queue_size=1024)

    begin = time.perf_counter()
    result = IngestDaemon(root, feeds, config).run()
    elapsed = time.perf_counter() - begin

    assert result.failed_feeds == []
    rows = result.total_rows
    manifest = Manifest.load(root)
    segments = sum(status.segments_sealed for status in result.feeds.values())
    assert manifest.verify() == segments
    high_water = {
        name: status.queue_high_water for name, status in result.feeds.items()
    }
    payload = {
        "feeds": len(feeds),
        "rows": rows,
        "segments_sealed": segments,
        "flush_rows": config.flush_rows,
        "segment_rows": config.segment_rows,
        "queue_size": config.queue_size,
        "queue_high_water_max": max(high_water.values()),
        "wall_seconds": round(elapsed, 3),
        "rows_per_second": round(rows / elapsed, 1),
        **bench_env(),
    }
    record(RESULTS_PATH, "ingest.throughput", payload)
    print()
    print(
        f"  ingest: {rows} rows / {len(feeds)} feeds in {elapsed:.2f}s "
        f"-> {payload['rows_per_second']} rows/s, "
        f"{segments} segments, queue high-water {payload['queue_high_water_max']}"
    )
    assert rows > 10000


@pytest.mark.slow
def test_bench_ingest_recovery_after_kill(tmp_path):
    """Wall time to recover every feed after a hard mid-ingest kill."""
    root = str(tmp_path)
    env = os.environ.copy()
    env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src")
    env["REPRO_TRACE_CACHE"] = "off"
    env["REPRO_FAULTS"] = "kill@segment.append;after=12"
    env["REPRO_FAULT_SEED"] = "1"
    crashed = subprocess.run(
        [sys.executable, _RUNNER, root],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert crashed.returncode == 3, crashed.stderr

    sys.path.insert(0, os.path.dirname(_RUNNER))
    try:
        import _ingest_runner as runner
    finally:
        sys.path.pop(0)

    begin = time.perf_counter()
    manifest = Manifest.load(root)
    recovered_rows = 0
    open_lines = 0
    for peer_as in runner.corpus_peers():
        recovery = recover_feed(root, f"peer-{peer_as}", manifest)
        recovered_rows += recovery.sealed_rows
        open_lines += len(recovery.open_lines)
    elapsed = time.perf_counter() - begin

    payload = {
        "feeds": len(manifest.feeds),
        "sealed_rows_recovered": recovered_rows,
        "open_lines_recovered": open_lines,
        "recovery_seconds": round(elapsed, 4),
        **bench_env(),
    }
    record(RESULTS_PATH, "ingest.recovery_after_kill", payload)
    print()
    print(
        f"  recovery: {payload['feeds']} feeds, {recovered_rows} sealed rows "
        f"+ {open_lines} open lines rebuilt in {elapsed * 1000:.1f}ms"
    )
    # Recovery is a directory sweep plus an append-log replay — it must be
    # far cheaper than re-ingesting (sub-second at this corpus size).
    assert elapsed < 5.0
