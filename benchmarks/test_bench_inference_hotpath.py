"""Hot-path microbenchmarks: the link->prefix index vs the full-scan seed.

The SWIFT inference hot path has two former O(RIB) costs:

* seeding a fit-score calculator at every burst start (rescanning the whole
  Adj-RIB-In), and
* expanding the inferred links into their affected prefixes at every
  triggering threshold (scanning every prefix's links).

Both are now answered from the persistent
:class:`~repro.core.fit_score.LinkPrefixIndex` in time proportional to the
burst footprint.  These benchmarks measure the speedup against the retained
reference implementation and assert the >=3x bar on the per-trigger path —
in practice the ratios are orders of magnitude for RIBs of this size.
"""

import time

import pytest

from oracles.fit_score_reference import ReferenceFitScoreCalculator, reference_engine

from repro.bgp.attributes import ASPath
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.fit_score import FitScoreCalculator, FitScoreConfig, LinkPrefixIndex
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig, InferenceEngine

PREFIXES_PER_ORIGIN = 150
ORIGINS = 200  # 30k prefixes over ~400 links


def _big_rib():
    """A 30k-prefix session RIB spread over ~200 origin ASes."""
    rib = {}
    for origin in range(ORIGINS):
        origin_as = 1000 + origin
        midway_as = 100 + origin % 50
        block = prefix_block(f"10.{origin % 200}.0.0/24", PREFIXES_PER_ORIGIN)
        path = ASPath([2, 5, midway_as, origin_as])
        for prefix in block:
            rib[prefix] = path
    return rib


def _burst_messages(rib, failed_as, start=100.0, rate=2000.0):
    """Withdraw every prefix whose path traverses ``failed_as``."""
    victims = [p for p, path in rib.items() if failed_as in path.asns]
    return [
        Update.withdraw(start + i / rate, 2, prefix)
        for i, prefix in enumerate(victims)
    ]


def _best(func, repeats=3):
    """Best-of-N wall time of ``func()`` (returns seconds)."""
    best = float("inf")
    for _ in range(repeats):
        begin = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - begin)
    return best


def test_bench_burst_start_is_constant_time():
    """Seeding the calculator no longer scans the RIB at burst start."""
    rib = _big_rib()
    index = LinkPrefixIndex(rib)

    reference_seconds = _best(lambda: ReferenceFitScoreCalculator(rib))
    incremental_seconds = _best(
        lambda: FitScoreCalculator.from_index(index, config=FitScoreConfig())
    )
    speedup = reference_seconds / max(incremental_seconds, 1e-9)
    print(f"\nburst start: reference {reference_seconds * 1e3:.2f} ms, "
          f"index overlay {incremental_seconds * 1e6:.1f} us ({speedup:.0f}x)")
    assert speedup >= 3.0


def test_bench_prefix_expansion_uses_reverse_index():
    """prefixes_via_links is a set union, not a full RIB scan."""
    rib = _big_rib()
    index = LinkPrefixIndex(rib)
    incremental = FitScoreCalculator.from_index(index, config=FitScoreConfig())
    reference = ReferenceFitScoreCalculator(rib)
    links = [(100, 5), (1000, 100)]
    assert incremental.prefixes_via_links(links) == reference.prefixes_via_links(links)

    reference_seconds = _best(lambda: reference.prefixes_via_links(links))
    incremental_seconds = _best(lambda: incremental.prefixes_via_links(links))
    speedup = reference_seconds / max(incremental_seconds, 1e-9)
    print(f"\nprefix expansion: reference {reference_seconds * 1e3:.3f} ms, "
          f"reverse index {incremental_seconds * 1e6:.1f} us ({speedup:.0f}x)")
    assert speedup >= 3.0


def test_bench_per_trigger_inference_path():
    """End to end: an engine re-scoring at many triggering thresholds.

    A midway AS fails (600 withdrawn prefixes) and the schedule runs an
    inference every 50 withdrawals with a prediction limit of 1 so nothing
    is accepted — forcing the engine through the per-trigger path
    (all_scores + aggregation + prefix expansion) again and again, exactly
    where the O(RIB) costs used to sit.  Only the streaming phase is timed:
    engine construction (the one-time index build) is session setup, paid at
    provision time, not on the burst hot path.
    """
    rib = _big_rib()
    messages = _burst_messages(rib, failed_as=107)
    assert len(messages) >= 500
    config = InferenceConfig(
        detector=BurstDetectorConfig(start_threshold=100, stop_threshold=1),
        schedule=TriggeringSchedule(
            steps=tuple((50 * i, 1) for i in range(1, 11)),
            unconditional_after=10 ** 6,
        ),
    )

    def run_incremental():
        engine = InferenceEngine(rib, config=config)
        begin = time.perf_counter()
        engine.process_batch(messages)
        return time.perf_counter() - begin, engine.results

    def run_reference():
        engine = reference_engine(rib, config=config)
        begin = time.perf_counter()
        engine.process_batch(messages)
        return time.perf_counter() - begin, engine.results

    assert run_incremental()[1] == run_reference()[1], "parity before timing"
    incremental_seconds = min(run_incremental()[0] for _ in range(3))
    reference_seconds = min(run_reference()[0] for _ in range(3))
    speedup = reference_seconds / max(incremental_seconds, 1e-9)
    print(f"\nper-trigger path: reference {reference_seconds * 1e3:.1f} ms, "
          f"incremental {incremental_seconds * 1e3:.1f} ms ({speedup:.1f}x)")
    assert speedup >= 3.0
