"""Fig. 8 — learning-time CDF: SWIFT vs plain BGP.

For every withdrawal of every burst, the *learning time* is how long after
the burst start the router learns the prefix is affected: the withdrawal's
own arrival time for BGP, or the prediction time when SWIFT predicted it.
Paper medians: 2 s for SWIFT vs 13 s for BGP (9 s vs 32 s at the 75th
percentile).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.bgp.messages import Update
from repro.bgp.prefix import Prefix
from repro.core.inference import InferenceConfig
from repro.experiments.common import CorpusBurst, evaluate_burst
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

    def median(self, swift: bool = True) -> float:
        """Median learning time for the requested curve."""
        values = self.swift_seconds if swift else self.bgp_seconds
        return percentile(values, 0.5) if values else 0.0

    def p75(self, swift: bool = True) -> float:
        """75th-percentile learning time for the requested curve."""
        values = self.swift_seconds if swift else self.bgp_seconds
        return percentile(values, 0.75) if values else 0.0


def run(
    corpus: Sequence[CorpusBurst],
    config: Optional[InferenceConfig] = None,
) -> Fig8Result:
    """Compute the two learning-time distributions over a burst corpus."""
    config = config or InferenceConfig()
    swift_all: List[float] = []
    bgp_all: List[float] = []
    with_prediction = 0
    without_prediction = 0

    for burst in corpus:
        evaluation = evaluate_burst(burst, config=config)
        withdrawal_times: Dict[Prefix, float] = {}
        for message in burst.messages:
            if isinstance(message, Update):
                for prefix in message.withdrawals:
                    withdrawal_times.setdefault(prefix, message.timestamp)
        if not withdrawal_times:
            continue
        burst_start = burst.start_time
        if evaluation.made_prediction:
            with_prediction += 1
            result = evaluation.inference
            assert result is not None
            times = learning_times(
                withdrawal_times,
                burst_start,
                result.timestamp,
                result.prediction.predicted_prefixes,
            )
        else:
            without_prediction += 1
            times = learning_times(withdrawal_times, burst_start, None, ())
        swift_all.extend(times.swift_seconds)
        bgp_all.extend(times.bgp_seconds)

    return Fig8Result(
        swift_seconds=swift_all,
        bgp_seconds=bgp_all,
        bursts_with_prediction=with_prediction,
        bursts_without_prediction=without_prediction,
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
        f"{result.bursts_with_prediction} / {result.bursts_without_prediction}"
    )
