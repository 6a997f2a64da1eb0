"""Fig. 6 — failure-localisation accuracy (TPR/FPR quadrants).

The paper evaluates every burst of at least 2.5k withdrawals: the prefixes
whose pre-burst path traverses the inferred links are compared against the
prefixes withdrawn over the whole burst.  Two variants are reported: the
inference run once after 2.5k withdrawals without the history model
(Fig. 6(a)) and the adaptive, history-driven variant (Fig. 6(b)).  Headline
numbers: with history ~85% of bursts land in the top-left quadrant (TPR high,
FPR low), ~5% in the top-right, ~10% in the bottom-left and none in the
bottom-right.

Each variant is one router replay of the corpus
(:func:`~repro.experiments.common.replay_corpus`); each point is one of its
records, scored against the burst that contains its detected start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.common import CorpusBurst, ReplayRecord, replay_corpus
from repro.metrics.quadrants import Quadrant, quadrant_shares
from repro.metrics.tables import format_table

__all__ = ["Fig6Result", "run", "format_result"]


@dataclass
class Fig6Result:
    """Quadrant shares for the two inference variants."""

    without_history: Dict[Quadrant, float]
    with_history: Dict[Quadrant, float]
    points_without_history: List[Tuple[float, float]]
    points_with_history: List[Tuple[float, float]]
    missed_with_history: int
    burst_count: int
    #: Accepted inferences no corpus burst contains, per variant.
    unmatched_without_history: int
    unmatched_with_history: int

    def bad_inference_share(self) -> float:
        """Share of bursts in the bottom-right quadrant (paper: 0 for both)."""
        return max(
            self.without_history.get(Quadrant.BOTTOM_RIGHT, 0.0),
            self.with_history.get(Quadrant.BOTTOM_RIGHT, 0.0),
        )


def _points(records: List[ReplayRecord]) -> List[Tuple[float, float]]:
    return [(c.tpr, c.fpr) for c in map(ReplayRecord.localisation, records)]


def run(corpus: Sequence[CorpusBurst]) -> Fig6Result:
    """Replay the corpus with both inference variants and bin the records."""
    without, unmatched_without = replay_corpus(
        corpus, SwiftConfig(inference=InferenceConfig.without_history())
    )
    with_history, unmatched_with = replay_corpus(corpus, SwiftConfig())
    points_without, points_with = _points(without), _points(with_history)
    return Fig6Result(
        without_history=quadrant_shares(points_without),
        with_history=quadrant_shares(points_with),
        points_without_history=points_without,
        points_with_history=points_with,
        missed_with_history=len(corpus) - len({id(r.burst) for r in with_history}),
        burst_count=len(corpus),
        unmatched_without_history=unmatched_without,
        unmatched_with_history=unmatched_with,
    )


def format_result(result: Fig6Result) -> str:
    """Render the quadrant shares next to the paper's headline numbers."""
    paper_without = {
        Quadrant.TOP_LEFT: 0.758,
        Quadrant.TOP_RIGHT: 0.119,
        Quadrant.BOTTOM_LEFT: 0.123,
        Quadrant.BOTTOM_RIGHT: 0.0,
    }
    paper_with = {
        Quadrant.TOP_LEFT: 0.851,
        Quadrant.TOP_RIGHT: 0.053,
        Quadrant.BOTTOM_LEFT: 0.096,
        Quadrant.BOTTOM_RIGHT: 0.0,
    }
    rows = []
    for quadrant in Quadrant:
        rows.append(
            (
                quadrant.value,
                round(result.without_history.get(quadrant, 0.0), 3),
                round(paper_without[quadrant], 3),
                round(result.with_history.get(quadrant, 0.0), 3),
                round(paper_with[quadrant], 3),
            )
        )
    table = format_table(
        ["Quadrant", "no-history", "paper", "history", "paper"],
        rows,
        title="Fig. 6 - localisation quadrant shares (TPR/FPR, 50% cut)",
    )
    return (
        f"{table}\n"
        f"bursts evaluated: {result.burst_count}, "
        f"missed with history (no accepted inference): {result.missed_with_history}\n"
        f"accepted inferences outside every corpus burst (no history / history): "
        f"{result.unmatched_without_history} / {result.unmatched_with_history}"
    )
