"""Fig. 2 — frequency and duration of withdrawal bursts.

* Fig. 2(a): number of bursts a router would see in a month as a function of
  how many peering sessions it maintains (1/5/15/30), for minimum burst sizes
  of 5k/10k/25k withdrawals.  Paper: a 30-session router sees ~104 bursts of
  at least 5k withdrawals per month in the median case.
* Fig. 2(b): CDF of burst duration, split between bursts below and above 10k
  withdrawals.  Paper: 37% of bursts last more than 10 s, 9.7% more than 30 s,
  and larger bursts last longer.

Both panels are measured the paper's way: each session's update stream goes
through :func:`~repro.core.burst_detection.extract_bursts` (the §2.2.1
sliding window), one session at a time.  The generator's own burst records
appear only as a side column next to the paper's value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.burst_detection import extract_bursts
from repro.metrics.distributions import DistributionSummary, fraction_above, summarize
from repro.metrics.tables import format_table
from repro.traces.columnar import ColumnarTrace
from repro.traces.synthetic import SyntheticTrace, SyntheticTraceConfig, SyntheticTraceGenerator

__all__ = ["Fig2Result", "run", "format_result"]


@dataclass
class Fig2Result:
    """Burst-frequency box stats (2a) and duration statistics (2b).

    Every figure field is measured from the extracted bursts; the
    ``generator_*`` fields are the trace generator's own records, kept only
    for comparison.
    """

    bursts_per_month: Dict[Tuple[int, int], DistributionSummary]
    duration_fraction_above_10s: float
    duration_fraction_above_30s: float
    small_burst_durations: List[float]
    large_burst_durations: List[float]
    total_bursts: int
    generator_bursts: int
    generator_fraction_above_10s: float
    generator_fraction_above_30s: float

    def median_bursts(self, sessions: int, min_size: int) -> float:
        """Median bursts/month for a router with ``sessions`` sessions."""
        return self.bursts_per_month[(sessions, min_size)].median


def run(
    trace: Optional[SyntheticTrace] = None,
    session_counts: Sequence[int] = (1, 5, 15, 30),
    min_sizes: Sequence[int] = (5000, 10000, 25000),
    samples: int = 30,
    seed: int = 3,
    trace_config: Optional[SyntheticTraceConfig] = None,
) -> Fig2Result:
    """Reproduce Fig. 2 from a (synthetic) multi-session trace.

    Bursts are extracted from each session's stream.  For Fig. 2(a) the
    harness repeatedly samples ``sessions`` random peering sessions and
    counts the bursts of at least ``min_size`` withdrawals they collectively
    observed over the trace, exactly like the paper's router
    thought-experiment.
    """
    if trace is None:
        config = trace_config or SyntheticTraceConfig(
            peer_count=30,
            duration_days=30.0,
            min_table_size=5000,
            max_table_size=80000,
            noise_rate_per_second=0.0,
            seed=seed,
        )
        trace = SyntheticTraceGenerator(config).generate()

    rng = random.Random(seed)
    per_peer_sizes: Dict[int, List[int]] = {}
    durations: List[Tuple[int, float]] = []
    for peer in trace.peers:
        session = ColumnarTrace.from_messages(trace.messages_of(peer.peer_as))
        for burst in extract_bursts(session):
            per_peer_sizes.setdefault(peer.peer_as, []).append(burst.size)
            durations.append((burst.size, burst.duration))

    peer_ids = [peer.peer_as for peer in trace.peers]
    scale_to_month = 30.0 / trace.config.duration_days

    bursts_per_month: Dict[Tuple[int, int], DistributionSummary] = {}
    for sessions in session_counts:
        for min_size in min_sizes:
            counts: List[float] = []
            for _ in range(samples):
                chosen = (
                    peer_ids
                    if sessions >= len(peer_ids)
                    else rng.sample(peer_ids, sessions)
                )
                count = sum(
                    1
                    for peer in chosen
                    for size in per_peer_sizes.get(peer, [])
                    if size >= min_size
                )
                counts.append(count * scale_to_month)
            bursts_per_month[(sessions, min_size)] = summarize(counts)

    all_durations = [duration for _, duration in durations]
    small = [duration for size, duration in durations if size < 10000]
    large = [duration for size, duration in durations if size >= 10000]
    generated = [burst.duration for burst in trace.bursts]
    return Fig2Result(
        bursts_per_month=bursts_per_month,
        duration_fraction_above_10s=fraction_above(all_durations, 10.0),
        duration_fraction_above_30s=fraction_above(all_durations, 30.0),
        small_burst_durations=small,
        large_burst_durations=large,
        total_bursts=len(durations),
        generator_bursts=len(generated),
        generator_fraction_above_10s=fraction_above(generated, 10.0),
        generator_fraction_above_30s=fraction_above(generated, 30.0),
    )


def format_result(result: Fig2Result) -> str:
    """Render Fig. 2(a) as a table and Fig. 2(b) as summary fractions."""
    rows = []
    for (sessions, min_size), stats in sorted(result.bursts_per_month.items()):
        rows.append(
            (sessions, f">={min_size // 1000}k", round(stats.p5, 1),
             round(stats.median, 1), round(stats.p95, 1))
        )
    table_a = format_table(
        ["Sessions", "Min size", "p5/month", "median/month", "p95/month"],
        rows,
        title="Fig. 2(a) - bursts per month vs number of peering sessions",
    )
    lines = [
        table_a,
        "",
        "Fig. 2(b) - burst duration (extracted; paper and generator alongside):",
        f"  total bursts: {result.total_bursts}"
        f"  (generator: {result.generator_bursts})",
        f"  fraction lasting > 10 s: {result.duration_fraction_above_10s:.2f}"
        f"  (paper: 0.37, generator: {result.generator_fraction_above_10s:.2f})",
        f"  fraction lasting > 30 s: {result.duration_fraction_above_30s:.2f}"
        f"  (paper: 0.097, generator: {result.generator_fraction_above_30s:.2f})",
    ]
    if result.small_burst_durations and result.large_burst_durations:
        small_median = summarize(result.small_burst_durations).median
        large_median = summarize(result.large_burst_durations).median
        lines.append(
            f"  median duration: <10k bursts {small_median:.1f} s, "
            f">=10k bursts {large_median:.1f} s (larger bursts last longer)"
        )
    return "\n".join(lines)
