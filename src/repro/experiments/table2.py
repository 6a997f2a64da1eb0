"""Table 2 — accuracy of the prediction of *future* withdrawals.

For every burst the paper reports, at several percentiles, the Correctly
Predicted Rate (share of future withdrawals that SWIFT rerouted ahead of
time), the FPR, and the absolute numbers of correctly / incorrectly predicted
prefixes — separately for small (2.5k–15k withdrawals) and large (>15k)
bursts, with the history model enabled.  Headline: CPR ≈ 89.5% at the median
for small bursts and ≈ 93% for large ones, with FPR below ~1% for most bursts.

The rows are a view over one router replay of the corpus
(:func:`~repro.experiments.common.replay_corpus`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.common import CorpusBurst, replay_corpus
from repro.metrics.classification import ClassificationCounts
from repro.metrics.distributions import percentile
from repro.metrics.tables import format_table

__all__ = ["Table2Result", "run", "format_result"]

_PERCENTILES = (0.10, 0.20, 0.30, 0.50, 0.70, 0.80, 0.90)


@dataclass
class Table2Result:
    """Per-percentile prediction statistics for small and large bursts; a
    class with no burst has empty percentile dicts."""

    small_cpr: Dict[float, float]
    small_fpr: Dict[float, float]
    small_cp: Dict[float, float]
    small_fp: Dict[float, float]
    large_cpr: Dict[float, float]
    large_fpr: Dict[float, float]
    large_cp: Dict[float, float]
    large_fp: Dict[float, float]
    small_count: int
    large_count: int
    #: Accepted inferences no corpus burst contains.
    unmatched: int

    def median_cpr(self, large: bool = False) -> Optional[float]:
        """Median CPR for the requested burst class; ``None`` when the class
        has no burst (its percentile dicts are empty)."""
        return (self.large_cpr if large else self.small_cpr).get(0.50)


def run(
    corpus: Sequence[CorpusBurst],
    config: Optional[InferenceConfig] = None,
    size_split: int = 15000,
) -> Table2Result:
    """Score the replayed withdrawal predictions over a burst corpus."""
    records, unmatched = replay_corpus(
        corpus, SwiftConfig(inference=config or InferenceConfig())
    )
    small: List[ClassificationCounts] = []
    large: List[ClassificationCounts] = []
    for record in records:
        bucket = large if record.burst.size > size_split else small
        bucket.append(record.prediction())

    def collect(counts: List[ClassificationCounts]):
        cprs = [c.tpr for c in counts]
        fprs = [c.fpr for c in counts]
        cps = [float(c.true_positives) for c in counts]
        fps = [float(c.false_positives) for c in counts]
        def per(values: List[float]) -> Dict[float, float]:
            return {p: percentile(values, p) for p in _PERCENTILES} if values else {}
        return per(cprs), per(fprs), per(cps), per(fps)

    small_cpr, small_fpr, small_cp, small_fp = collect(small)
    large_cpr, large_fpr, large_cp, large_fp = collect(large)
    return Table2Result(
        small_cpr=small_cpr,
        small_fpr=small_fpr,
        small_cp=small_cp,
        small_fp=small_fp,
        large_cpr=large_cpr,
        large_fpr=large_fpr,
        large_cp=large_cp,
        large_fp=large_fp,
        small_count=len(small),
        large_count=len(large),
        unmatched=unmatched,
    )


def format_result(result: Table2Result) -> str:
    """Render the two percentile tables of Table 2."""
    headers = ["metric"] + [f"{int(p * 100)}th" for p in _PERCENTILES]

    def rows_for(cpr, fpr, cp, fp):
        return [
            ["CPR %"] + [round(100 * cpr[p], 1) for p in _PERCENTILES],
            ["FPR %"] + [round(100 * fpr[p], 2) for p in _PERCENTILES],
            ["CP"] + [int(cp[p]) for p in _PERCENTILES],
            ["FP"] + [int(fp[p]) for p in _PERCENTILES],
        ]

    def table(size: str, title: str) -> str:
        count = getattr(result, f"{size}_count")
        title = f"Table 2 - {title}, n={count}"
        if not count:
            return f"{title}: no burst in this class"
        stats = (getattr(result, f"{size}_{stat}") for stat in ("cpr", "fpr", "cp", "fp"))
        return format_table(headers, rows_for(*stats), title=title)

    small_table = table("small", "small bursts (2.5k-15k)")
    large_table = table("large", "large bursts (>15k)")
    return (
        f"{small_table}\n\n{large_table}\n"
        "paper medians: CPR 89.5% (small) / 93.0% (large), FPR 0.22% / 0.60%\n"
        f"accepted inferences outside every corpus burst: {result.unmatched}"
    )
