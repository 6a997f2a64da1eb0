"""Distribution helpers: percentiles, CDFs and box statistics.

Used by every harness that reproduces a CDF (Fig. 2(b), Fig. 8), a box plot
(Fig. 2(a), Fig. 7) or a percentile table (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

__all__ = ["cdf_points", "percentile", "summarize", "DistributionSummary"]


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("cannot take the percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    lower = int(rank)
    upper = min(lower + 1, len(ordered) - 1)
    weight = rank - lower
    return float(ordered[lower] * (1 - weight) + ordered[upper] * weight)


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, cumulative fraction) points, sorted by value."""
    if not values:
        return []
    ordered = sorted(values)
    total = len(ordered)
    return [(value, (index + 1) / total) for index, value in enumerate(ordered)]


def fraction_above(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly above threshold."""
    if not values:
        return 0.0
    return sum(1 for value in values if value > threshold) / len(values)


@dataclass(frozen=True)
class DistributionSummary:
    """Box-plot style summary of one distribution."""

    count: int
    mean: float
    minimum: float
    p5: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float


def summarize(values: Sequence[float]) -> DistributionSummary:
    """Compute the box statistics the paper's box plots show (5/25/50/75/95)."""
    if not values:
        raise ValueError("cannot summarise an empty sequence")
    ordered = sorted(float(v) for v in values)
    return DistributionSummary(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        minimum=ordered[0],
        p5=percentile(ordered, 0.05),
        p25=percentile(ordered, 0.25),
        median=percentile(ordered, 0.50),
        p75=percentile(ordered, 0.75),
        p95=percentile(ordered, 0.95),
        maximum=ordered[-1],
    )
