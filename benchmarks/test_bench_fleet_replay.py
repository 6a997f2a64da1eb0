"""Fleet-replay benchmarks: process-pool scaling and mmap reloads, with
machine-readable results in ``BENCH_fleet.json``.

Two costs are measured (marked ``slow``: the corpus is month-scale and the
pool spawns real worker processes, so the tier-1 run skips this file —
see ``pytest.ini``):

* **fleet scaling** — replaying every session of a 4-session corpus with 4
  worker processes versus the sequential in-process baseline.  §4.1's
  per-session independence makes the workload embarrassingly parallel;
  the benchmark asserts the ≥2x wall-clock speedup *and* that the
  aggregated results (per-session counters plus loss/recovery/reroute
  multisets) are byte-identical to sequential replay;
* **mmap reload** — restoring a cached month stream from the column-store
  layout (``mmap`` + per-column ``frombytes``) versus unpickling the
  equivalent columnar blob, plus a time-window load that must read less
  than the full file.

Results merge into ``BENCH_fleet.json`` at the repository root (same
pattern as ``BENCH_replay.json`` / ``BENCH_coldstart.json``).
"""

import os
import pickle
import tempfile
import time

import pytest

from conftest import available_cpus, bench_env, gc_paused, record

from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.replay import build_session_jobs, replay_jobs
from repro.traces.columnar_store import ColumnarTraceFile, write_trace
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    cached_columnar_stream,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(_REPO_ROOT, "BENCH_fleet.json")

#: The fleet workload: every session of a 4-peer corpus, two weeks each.
#: Tables are drawn from a narrow band so the per-session replay costs are
#: comparable and the 4-worker speedup is bounded by overhead, not skew.
_FLEET_CONFIG = SyntheticTraceConfig(
    peer_count=4,
    duration_days=15,
    min_table_size=8000,
    max_table_size=20000,
    noise_rate_per_second=0.02,
    seed=909,
)

#: Lowered trigger (as in the coldstart bench) so SWIFT fires on the corpus.
_FLEET_SWIFT_CONFIG = SwiftConfig(
    inference=InferenceConfig(
        schedule=TriggeringSchedule(steps=((1500, 100000),), unconditional_after=2000)
    )
)


def _best_seconds(fn, runs=3):
    best = float("inf")
    for _ in range(runs):
        with gc_paused():
            begin = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - begin)
    return best


@pytest.mark.slow
def test_bench_fleet_vs_sequential_replay():
    """4 workers vs sequential over the 4-session corpus; parity asserted."""
    jobs = build_session_jobs(_FLEET_CONFIG)
    assert len(jobs) >= 4

    sequential = replay_jobs(jobs, workers=1, swift_config=_FLEET_SWIFT_CONFIG)
    fleet = replay_jobs(jobs, workers=4, swift_config=_FLEET_SWIFT_CONFIG)

    assert pickle.dumps(fleet.signature()) == pickle.dumps(sequential.signature()), (
        "fleet aggregation must be byte-identical to sequential replay"
    )
    cpus = available_cpus()
    speedup = sequential.wall_seconds / fleet.wall_seconds
    record(
        RESULTS_PATH,
        "fleet.swifted_4_workers",
        {
            "sessions": fleet.session_count,
            "workers": fleet.workers,
            **bench_env(),
            "messages": fleet.message_count,
            "reroutes": fleet.reroutes,
            "losses": fleet.losses,
            "recoveries": fleet.recoveries,
            "sequential_seconds": round(sequential.wall_seconds, 2),
            "fleet_seconds": round(fleet.wall_seconds, 2),
            "speedup": round(speedup, 2),
            "byte_identical": True,
            "fleet_messages_per_second": int(fleet.messages_per_second),
        },
    )
    print(
        f"\nfleet replay ({fleet.session_count} sessions, "
        f"{fleet.message_count} msgs, {cpus} cpus): sequential "
        f"{sequential.wall_seconds:.1f} s, 4 workers {fleet.wall_seconds:.1f} s "
        f"({speedup:.2f}x), {fleet.reroutes} reroutes"
    )
    # The scaling claim needs real cores to scale onto: per-session
    # independence gives near-linear speedup on a multicore host, but a
    # single-CPU container can only time-share the four workers (the pool
    # overhead then makes the fleet *slower*).  Parity is asserted
    # unconditionally above; the wall-clock floor applies where the
    # hardware can express it.
    if cpus >= 4:
        assert speedup >= 2.0
    elif cpus >= 2:
        assert speedup >= 1.2


@pytest.mark.slow
def test_bench_mmap_reload_vs_pickle():
    """Column-store reload vs pickled columnar blob, plus a window load."""
    peer_as = SyntheticTraceGenerator(_FLEET_CONFIG).stream().peers[0].peer_as
    stream = cached_columnar_stream(_FLEET_CONFIG, peer_as)

    with tempfile.NamedTemporaryFile(delete=False, suffix=".pkl") as handle:
        pickle_path = handle.name
        pickle.dump(stream, handle, protocol=pickle.HIGHEST_PROTOCOL)
    cols_path = pickle_path[:-4] + ".cols"
    write_trace(cols_path, stream)

    first = stream.first_timestamp
    last = stream.last_timestamp
    day = 86400.0

    def pickle_reload():
        with open(pickle_path, "rb") as handle:
            pickle.load(handle)

    def mmap_reload():
        with ColumnarTraceFile(cols_path) as store:
            store.load()

    try:
        pickle_seconds = _best_seconds(pickle_reload)
        mmap_seconds = _best_seconds(mmap_reload)

        with ColumnarTraceFile(cols_path) as store:
            begin = time.perf_counter()
            window = store.window(first, first + day)
            window_seconds = time.perf_counter() - begin
            window_bytes = store.bytes_read
            file_size = store.file_size
            assert 0 < window_bytes < file_size
            expected = stream.window(first, first + day)
            assert window.to_messages() == expected.to_messages(), (
                "window load must round-trip identically"
            )
        pickle_bytes = os.path.getsize(pickle_path)
    finally:
        os.unlink(pickle_path)
        os.unlink(cols_path)

    speedup = pickle_seconds / mmap_seconds
    record(
        RESULTS_PATH,
        "reload.mmap_vs_pickle",
        {
            "messages": stream.message_count,
            "trace_days": round((last - first) / day, 1),
            **bench_env(),
            "pickle_seconds": round(pickle_seconds, 4),
            "mmap_seconds": round(mmap_seconds, 4),
            "speedup": round(speedup, 2),
            "pickle_bytes": pickle_bytes,
            "cols_bytes": file_size,
            "window_seconds": round(window_seconds, 4),
            "window_bytes_read": window_bytes,
            "window_fraction_of_blob": round(window_bytes / file_size, 4),
        },
    )
    print(
        f"\nmmap reload ({stream.message_count} msgs): pickle "
        f"{pickle_seconds:.3f} s, mmap {mmap_seconds:.3f} s ({speedup:.2f}x); "
        f"1-day window read {window_bytes} of {file_size} bytes "
        f"({window_bytes / file_size:.1%}) in {window_seconds:.4f} s"
    )
    # The mmap path drops the pickle layer; parity (>=0.8x) is the guard,
    # the win is the partial window load asserted above.
    assert speedup >= 0.8
