"""Column-native inference benchmarks, recorded in ``BENCH_inference.json``.

Two costs of an engine-dominated SWIFTED month-slice replay are measured
(marked ``slow``: the slice is month-scale, see ``pytest.ini``):

* **engine stack** — the inference stack (burst detector, fit-score
  calculator, engine) consuming the slice through
  :meth:`~repro.core.inference.InferenceEngine.process_columnar_run`
  versus the per-message object path over the materialised stream.  The
  slice is burst-dominated and the detection threshold lowered (as in the
  coldstart and fleet benches) so the engines — not quiet churn — do the
  work.  Engine construction happens *outside* the timed region (each
  timing run feeds a pre-built engine): the bar is the per-message
  processing cost, not ``__init__``.  Floor: ``>= 2x``, the column-native
  acceptance bar.  Identical ``InferenceResult`` sequences are asserted
  before timing.
* **SWIFTED replay end to end** — the same slice through
  :func:`~repro.experiments.month_replay.replay_stream` (column-native)
  versus the object-path oracle driver ``tests/oracles/object_replay.py``
  (runs materialised, ``receive_batch``), with byte-identical
  ``MonthReplayResult.signature()`` asserted and a construction probe
  proving the native path materialises **zero** ``BGPMessage`` objects.
  The end-to-end ratio is smaller than the engine ratio because the
  speaker's RIB work is shared by both paths; both are recorded.

Results merge into ``BENCH_inference.json`` at the repository root with the
shared environment fields (``cpus``, ``kernel_backend``, ``numpy_version``
— see :func:`conftest.bench_env`), same pattern as ``BENCH_fleet.json``.
"""

import os
import time
from contextlib import contextmanager

import pytest

from conftest import bench_env, gc_paused, record
from oracles.object_replay import replay_stream_objects

from repro.core.burst_detection import BurstDetectorConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig, InferenceEngine
from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import replay_stream
from repro.traces import columnar
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    cached_columnar_stream,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(_REPO_ROOT, "BENCH_inference.json")

#: A month-long, burst-dominated session: withdrawals arrive in pure failure
#: bursts (the paper's Fig. 1 shape — ``withdrawal_fraction=1.0``) over low
#: background noise, which is exactly the traffic mix where the inference
#: engines dominate the replay cost.
_SLICE_CONFIG = SyntheticTraceConfig(
    peer_count=2,
    duration_days=30.0,
    min_table_size=8000,
    max_table_size=20000,
    burst_size_minimum=1000,
    noise_rate_per_second=0.002,
    withdrawal_fraction=1.0,
    seed=909,
)

#: Lowered detection/trigger thresholds (coldstart-bench style) so every
#: burst of the slice drives the burst machinery end to end.
_ENGINE_CONFIG = InferenceConfig(
    detector=BurstDetectorConfig(start_threshold=100, stop_threshold=1),
    schedule=TriggeringSchedule(steps=((1500, 100000),), unconditional_after=2000),
)

_SWIFT_CONFIG = SwiftConfig(inference=_ENGINE_CONFIG)


def _best_seconds(fn, runs=5):
    best = float("inf")
    for _ in range(runs):
        with gc_paused():
            begin = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - begin)
    return best


def _best_feed_seconds(setup, feed, runs=5):
    """Best-of-``runs`` wall time of ``feed(state)`` with ``setup()`` untimed.

    Engine construction (intern-table sizing, detector/fit-score init) is
    deliberately outside the timed region: the benchmark's bar is the
    per-message processing cost of the stack, which every replay pays per
    message, not the fixed per-session setup.
    """
    best = float("inf")
    for _ in range(runs):
        state = setup()
        with gc_paused():
            begin = time.perf_counter()
            feed(state)
            best = min(best, time.perf_counter() - begin)
    return best


def _slice_inputs():
    generator_stream = SyntheticTraceGenerator(_SLICE_CONFIG).stream()
    peer_as = generator_stream.peers[0].peer_as
    stream = cached_columnar_stream(_SLICE_CONFIG, peer_as)
    rib = generator_stream.rib_of(peer_as)
    return stream, rib, peer_as


@contextmanager
def _construction_probe():
    """Count every message materialised off the columns while active."""
    calls = [0]
    original = columnar.ColumnarTrace.message_at

    def counting(self, index):
        calls[0] += 1
        return original(self, index)

    columnar.ColumnarTrace.message_at = counting
    try:
        yield calls
    finally:
        columnar.ColumnarTrace.message_at = original


#: Engine-stack floor over the object path: the column-native acceptance bar.
_ENGINE_STACK_FLOOR = 2.0


@pytest.mark.slow
def test_bench_engine_stack_columnar_vs_materialised():
    """process_columnar_run vs the object path.

    Each timed run feeds a freshly built engine; construction is untimed
    (see :func:`_best_feed_seconds`).
    """
    stream, rib, _ = _slice_inputs()

    def engine():
        return InferenceEngine(rib, config=_ENGINE_CONFIG)

    def columnar_feed(engine):
        for run in stream.iter_batches():
            engine.process_columnar_run(run)

    def object_feed(engine):
        engine.process_batch(stream.iter_messages())

    # Parity before timing: the column path must produce the exact result
    # sequence and final RIB of the per-message object path.
    object_engine = engine()
    object_feed(object_engine)
    assert object_engine.results, "the slice must exercise the triggers"
    columnar_engine = engine()
    columnar_feed(columnar_engine)
    assert columnar_engine.results == object_engine.results
    assert columnar_engine.current_rib() == object_engine.current_rib()

    # Interleaved rounds: each round times both paths back to back, and each
    # path keeps its best round.  A transient CPU slowdown then degrades one
    # *round* rather than one path's entire sample, which keeps the recorded
    # ratio honest on noisy hosts.
    object_seconds = columnar_seconds = float("inf")
    for _ in range(5):
        object_seconds = min(
            object_seconds, _best_feed_seconds(engine, object_feed, runs=1)
        )
        columnar_seconds = min(
            columnar_seconds, _best_feed_seconds(engine, columnar_feed, runs=1)
        )
    speedup = object_seconds / max(columnar_seconds, 1e-9)
    record(
        RESULTS_PATH,
        "engine_stack.columnar_vs_object",
        {
            "messages": stream.message_count,
            "withdrawals": stream.withdrawal_total,
            "announcements": stream.announcement_total,
            "inference_results": len(object_engine.results),
            "object_seconds": round(object_seconds, 4),
            "columnar_seconds": round(columnar_seconds, 4),
            "speedup": round(speedup, 2),
            **bench_env(),
        },
    )
    print(
        f"\nengine stack ({stream.message_count} msgs, "
        f"{stream.withdrawal_total} wd): object {object_seconds:.3f} s, "
        f"columnar {columnar_seconds:.3f} s ({speedup:.2f}x)"
    )
    assert speedup >= _ENGINE_STACK_FLOOR, round(speedup, 2)


@pytest.mark.slow
def test_bench_swifted_replay_columnar_end_to_end():
    """Full SWIFTED replay of the slice, native vs materialising."""
    stream, rib, peer_as = _slice_inputs()

    def replay(native):
        return (replay_stream if native else replay_stream_objects)(
            stream,
            rib,
            peer_as=peer_as,
            swifted=True,
            swift_config=_SWIFT_CONFIG,
            collect_events=True,
        )

    with _construction_probe() as calls:
        native = replay(True)
        assert calls[0] == 0, (
            f"column-native SWIFTED replay materialised {calls[0]} messages"
        )
    materialised = replay(False)
    assert native.signature() == materialised.signature(), "parity before timing"
    assert native.reroutes > 0, "expected SWIFT to fire on the slice"

    native_seconds = min(replay(True).wall_seconds for _ in range(3))
    materialised_seconds = min(replay(False).wall_seconds for _ in range(3))
    speedup = materialised_seconds / max(native_seconds, 1e-9)
    record(
        RESULTS_PATH,
        "swifted_replay.columnar_vs_object",
        {
            "messages": native.message_count,
            "reroutes": native.reroutes,
            "losses": native.losses,
            **bench_env(),
            "object_seconds": round(materialised_seconds, 4),
            "columnar_seconds": round(native_seconds, 4),
            "speedup": round(speedup, 2),
            "messages_materialised_columnar": 0,
            "byte_identical": True,
        },
    )
    print(
        f"\nswifted replay end-to-end ({native.message_count} msgs, "
        f"{native.reroutes} reroutes): materialising "
        f"{materialised_seconds:.3f} s, column-native {native_seconds:.3f} s "
        f"({speedup:.2f}x, zero messages materialised)"
    )
    # The end-to-end ratio includes the speaker's (shared) RIB work; the
    # engine-stack bench above carries the >= 2x acceptance floor.
    assert speedup >= 1.2
