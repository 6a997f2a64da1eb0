"""Estimators the benchmark reports with, and the A/A arithmetic.

Every number ``bench/run.py`` prints goes through one of these:

* a throughput, cost or set-up metric is the **median over passes**
  (:func:`median`) — one pass is one fresh program state run over the same
  generated inputs;
* a latency metric takes, for each *deterministic event* (the same burst,
  churn round or segment recurs in every pass), the **median of that event
  across passes**, then a percentile over the events
  (:func:`event_percentiles`).  A stall that hits one pass moves one sample
  of one event, not the percentile;
* two sets of runs are compared by :func:`spread` (inter-quartile range as
  a share of the median, what the driver calls the spread) and
  :func:`worsening` (how much worse the second median is, signed by the
  metric's direction).

Stdlib only; nothing here imports the program under test.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

__all__ = [
    "MIN_SAMPLES_FOR_P90",
    "EventLatency",
    "event_percentiles",
    "median",
    "percentile",
    "quartiles",
    "spread",
    "worsening",
]

#: A 90th percentile needs ten samples beyond it to mean anything: below 100
#: samples (events x passes) it is still computed, because the result line
#: must carry every metric, but it is flagged as unsupported.
MIN_SAMPLES_FOR_P90 = 100


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], share: float) -> float:
    """Linear-interpolated percentile (``share`` in [0, 1]) of a sample.

    The inclusive definition: ``share=0`` is the minimum, ``share=1`` the
    maximum, and a one-element sample is its own every percentile.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= share <= 1.0:
        raise ValueError("share must be within [0, 1]")
    ordered = sorted(values)
    position = share * (len(ordered) - 1)
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(Q1, median, Q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    This is the exact rule the driver applies to its ten runs, so the A/A
    check reproduces its arithmetic.  A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    first, second, third = statistics.quantiles(values, n=4)
    return float(first), float(second), float(third)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one value)."""
    first, middle, third = quartiles(values)
    if middle == 0:
        return 0.0 if third == first else math.inf
    return (third - first) / abs(middle)


def worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the value ``second`` is *worse*.

    Positive means worse, negative better.  ``better`` is ``"lower"`` or
    ``"higher"``, as in ``BENCHMARK.json``.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if first == 0:
        return 0.0 if second == first else math.inf
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


class EventLatency(NamedTuple):
    """Percentiles of a latency metric over deterministic events."""

    p50: float
    p90: float
    #: Distinct events (each contributes its across-pass median once).
    events: int
    #: Events x passes: how many stopwatch readings stand behind the figures.
    samples: int
    #: False when ``samples`` is below :data:`MIN_SAMPLES_FOR_P90`.
    p90_supported: bool


def event_percentiles(
    passes: Sequence[Mapping[object, float]]
) -> Optional[EventLatency]:
    """Per-event median across passes, then p50 / p90 over the events.

    ``passes`` holds one ``{event id: latency}`` mapping per pass.  An event
    missing from some pass (it should not be: the inputs are identical)
    contributes the median of the passes that saw it.  Returns ``None`` when
    no pass recorded any event.
    """
    by_event: Dict[object, list] = {}
    for readings in passes:
        for event, latency in readings.items():
            by_event.setdefault(event, []).append(latency)
    if not by_event:
        return None
    medians = [median(readings) for readings in by_event.values()]
    samples = sum(len(readings) for readings in by_event.values())
    return EventLatency(
        p50=percentile(medians, 0.5),
        p90=percentile(medians, 0.9),
        events=len(medians),
        samples=samples,
        p90_supported=samples >= MIN_SAMPLES_FOR_P90,
    )
