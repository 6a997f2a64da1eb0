"""Convergence metrics: learning times and downtime series.

* :func:`learning_times` reproduces Fig. 8: for each withdrawal of a burst,
  how long after the burst start the router *learns* it — at the withdrawal's
  own arrival time for plain BGP, or at the prediction time when SWIFT
  predicted the prefix.
* :func:`downtime_series` reproduces Fig. 9(a) / Table 1: given per-probe
  recovery times, the fraction of probes still blacked out over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.bgp.prefix import Prefix

__all__ = ["LearningTimeResult", "downtime_series", "learning_times"]


@dataclass(frozen=True)
class LearningTimeResult:
    """Per-burst learning times for BGP and for SWIFT."""

    bgp_seconds: Tuple[float, ...]
    swift_seconds: Tuple[float, ...]


def learning_times(
    withdrawal_times: Mapping[Prefix, float],
    burst_start: float,
    prediction_time: Optional[float],
    predicted_prefixes: Iterable[Prefix],
) -> LearningTimeResult:
    """Compute per-withdrawal learning times for BGP and SWIFT.

    Parameters
    ----------
    withdrawal_times:
        Arrival time of every withdrawal of the burst (prefix -> timestamp).
    burst_start:
        Timestamp of the first message of the burst.
    prediction_time:
        Timestamp at which SWIFT's accepted inference fired (``None`` when
        SWIFT made no prediction for this burst — e.g. the burst stayed below
        the triggering threshold — in which case SWIFT degenerates to BGP).
    predicted_prefixes:
        The prefixes covered by the accepted inference.
    """
    predicted = set(predicted_prefixes)
    bgp: List[float] = []
    swift: List[float] = []
    for prefix, timestamp in withdrawal_times.items():
        bgp_delay = max(0.0, timestamp - burst_start)
        bgp.append(bgp_delay)
        if prediction_time is not None and prefix in predicted:
            swift.append(max(0.0, min(prediction_time, timestamp) - burst_start))
        else:
            swift.append(bgp_delay)
    return LearningTimeResult(bgp_seconds=tuple(bgp), swift_seconds=tuple(swift))


def downtime_series(
    recovery_times: Sequence[float],
    failure_time: float = 0.0,
    horizon: Optional[float] = None,
    step: float = 1.0,
) -> List[Tuple[float, float]]:
    """Packet-loss percentage over time, from per-probe recovery times.

    Each probe is considered blacked out from ``failure_time`` until its
    recovery time; the returned series samples the fraction of probes still
    down every ``step`` seconds, which is exactly what Fig. 9(a) plots.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if not recovery_times:
        return [(failure_time, 0.0)]
    end = horizon if horizon is not None else max(recovery_times)
    series: List[Tuple[float, float]] = []
    current = failure_time
    total = len(recovery_times)
    while current <= end + step:
        down = sum(1 for recovery in recovery_times if recovery > current)
        series.append((current, 100.0 * down / total))
        current += step
    return series


def max_downtime(recovery_times: Sequence[float], failure_time: float = 0.0) -> float:
    """Downtime of the slowest probe (what Table 1 reports)."""
    if not recovery_times:
        return 0.0
    return max(recovery_times) - failure_time
