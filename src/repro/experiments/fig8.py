"""Fig. 8 — learning-time CDF: SWIFT vs plain BGP.

For every withdrawal of every burst, the *learning time* is how long after
the burst start the router learns the prefix is affected: the withdrawal's
own arrival time for BGP, or the prediction time when SWIFT predicted it.
Paper medians: 2 s for SWIFT vs 13 s for BGP (9 s vs 32 s at the 75th
percentile).

The predictions are a router replay's: a burst's first record
(:func:`~repro.experiments.common.replay_corpus`) gives the inference time
and the predicted prefixes.  The curves count from the burst's first row,
as the paper does; the gap to the router's detected start is reported as
the detection delay.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bgp.prefix import Prefix
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.common import CorpusBurst, ReplayRecord, replay_corpus
from repro.metrics.convergence import learning_times
from repro.metrics.distributions import percentile
from repro.metrics.tables import format_table

__all__ = ["Fig8Result", "run", "format_result"]


@dataclass
class Fig8Result:
    """Pooled learning times for SWIFT and BGP."""

    swift_seconds: List[float]
    bgp_seconds: List[float]
    bursts_with_prediction: int
    bursts_without_prediction: int
    #: Per burst with a prediction: detected start minus first row time.
    detection_delays: List[float]
    #: Accepted inferences no corpus burst contains.
    unmatched: int

    def median(self, swift: bool = True) -> float:
        """Median learning time for the requested curve."""
        values = self.swift_seconds if swift else self.bgp_seconds
        return percentile(values, 0.5) if values else 0.0

    def p75(self, swift: bool = True) -> float:
        """75th-percentile learning time for the requested curve."""
        values = self.swift_seconds if swift else self.bgp_seconds
        return percentile(values, 0.75) if values else 0.0

    def median_detection_delay(self) -> float:
        """Median seconds from a burst's first row to its detected start."""
        delays = self.detection_delays
        return percentile(delays, 0.5) if delays else 0.0


def _withdrawal_times(burst: CorpusBurst) -> Dict[Prefix, float]:
    """Arrival time of each prefix's first withdrawal in the burst's rows."""
    trace = burst.messages.trace
    wd_end, wd_prefix, msg_time = trace.wd_end, trace.wd_prefix, trace.msg_time
    prefix_at = trace.pool.prefix_at
    times: Dict[Prefix, float] = {}
    for row in burst.messages.indices:
        for j in range(wd_end[row - 1] if row else 0, wd_end[row]):
            times.setdefault(prefix_at(wd_prefix[j]), msg_time[row])
    return times


def run(
    corpus: Sequence[CorpusBurst],
    config: Optional[InferenceConfig] = None,
) -> Fig8Result:
    """Compute the two learning-time distributions over a burst corpus."""
    records, unmatched = replay_corpus(
        corpus, SwiftConfig(inference=config or InferenceConfig())
    )
    first_record: Dict[int, ReplayRecord] = {}
    for record in records:
        first_record.setdefault(id(record.burst), record)
    swift_all: List[float] = []
    bgp_all: List[float] = []
    delays: List[float] = []
    without_prediction = 0

    for burst in corpus:
        withdrawal_times = _withdrawal_times(burst)
        if not withdrawal_times:
            continue
        record = first_record.get(id(burst))
        if record is not None:
            result = record.inference
            delays.append(result.burst_start - burst.start_time)
            times = learning_times(
                withdrawal_times,
                burst.start_time,
                result.timestamp,
                result.prediction.predicted_prefixes,
            )
        else:
            without_prediction += 1
            times = learning_times(withdrawal_times, burst.start_time, None, ())
        swift_all.extend(times.swift_seconds)
        bgp_all.extend(times.bgp_seconds)

    return Fig8Result(
        swift_seconds=swift_all,
        bgp_seconds=bgp_all,
        bursts_with_prediction=len(delays),
        bursts_without_prediction=without_prediction,
        detection_delays=delays,
        unmatched=unmatched,
    )


def format_result(result: Fig8Result) -> str:
    """Render the learning-time percentiles next to the paper's."""
    rows = [
        (
            "SWIFT",
            round(result.median(swift=True), 1),
            round(result.p75(swift=True), 1),
            2.0,
            9.0,
        ),
        (
            "BGP",
            round(result.median(swift=False), 1),
            round(result.p75(swift=False), 1),
            13.0,
            32.0,
        ),
    ]
    table = format_table(
        ["Curve", "median (s)", "p75 (s)", "paper median", "paper p75"],
        rows,
        title="Fig. 8 - learning time of withdrawals",
    )
    return (
        f"{table}\n"
        f"bursts with / without an accepted prediction: "
        f"{result.bursts_with_prediction} / {result.bursts_without_prediction}\n"
        f"median detection delay (detected start - first row): "
        f"{result.median_detection_delay():.2f} s\n"
        f"accepted inferences outside every corpus burst: {result.unmatched}"
    )
