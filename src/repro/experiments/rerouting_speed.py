"""§6.5 — number of data-plane updates and rerouting speed.

When the inference fires after 2.5k withdrawals, the paper reports a median
of 4 inferred links (29 at the 90th percentile) and, with 16 backup
next-hops, a median of 64 data-plane rule updates — installable within
~130 ms given per-rule update times of 128–282 µs per entry.  This harness
reads, off a router replay of a burst corpus
(:func:`~repro.experiments.common.replay_corpus`), each accepted
inference's link count and the rules and modelled update latency of its
:class:`~repro.core.swifted_router.RerouteAction`.  The replay has one
backup next hop, the backup session
(:data:`~repro.experiments.month_replay.BACKUP_PEER_AS`), so a rule count
is the inferred links' encoded positions × 1, not × the paper's 16.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.core.encoding import EncoderConfig
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.dataplane.timing import FibUpdateTimingModel
from repro.experiments.common import CorpusBurst, replay_corpus
from repro.metrics.distributions import percentile
from repro.metrics.tables import format_table

__all__ = ["ReroutingSpeedResult", "run", "format_result"]


@dataclass
class ReroutingSpeedResult:
    """Distributions of inferred-link counts, rule counts and update times.

    ``bursts`` counts the accepted inferences a corpus burst contains,
    ``unmatched`` the others; ``rule_counts`` and ``update_seconds`` cover
    those that installed a rule, ``unencoded`` those that installed none.
    """

    inferred_link_counts: List[int]
    rule_counts: List[int]
    update_seconds: List[float]
    bursts: int
    unencoded: int
    unmatched: int

    def median_rules(self) -> float:
        """Median number of installed rules per reroute."""
        return _quantile(self.rule_counts, 0.5)

    def median_update_seconds(self) -> float:
        """Median modelled data-plane update latency."""
        return _quantile(self.update_seconds, 0.5)


def _quantile(values: Sequence[float], fraction: float) -> float:
    return percentile(values, fraction) if values else 0.0


def run(
    corpus: Sequence[CorpusBurst],
    inference_config: Optional[InferenceConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    timing: Optional[FibUpdateTimingModel] = None,
) -> ReroutingSpeedResult:
    """Read rule counts and reroute latencies off a replay of the corpus."""
    config = SwiftConfig(
        inference=inference_config or InferenceConfig(),
        encoder=encoder_config or EncoderConfig(),
        timing=timing
        or FibUpdateTimingModel(per_rule_seconds=205e-6, control_plane_overhead_seconds=0.0),
    )
    records, unmatched = replay_corpus(corpus, config)
    actions = [record.action for record in records if record.action is not None]
    return ReroutingSpeedResult(
        inferred_link_counts=[len(r.inference.inferred_links) for r in records],
        rule_counts=[action.rule_count for action in actions],
        update_seconds=[action.dataplane_update_seconds for action in actions],
        bursts=len(records),
        unencoded=len(records) - len(actions),
        unmatched=unmatched,
    )


def format_result(result: ReroutingSpeedResult) -> str:
    """Render the §6.5 summary."""
    rows = [
        (name, *(round(scale * _quantile(values, q), 1) for q in (0.5, 0.9)), paper)
        for name, values, scale, paper in (
            ("inferred links", result.inferred_link_counts, 1, "4 / 29"),
            ("rules installed", result.rule_counts, 1, "64 / 464"),
            ("update time (ms)", result.update_seconds, 1000, "~130 / -"),
        )
    ]
    table = format_table(
        ["Quantity", "median", "p90", "paper (median / p90)"],
        rows,
        title=f"Rerouting speed over {result.bursts} accepted inferences",
    )
    return (
        f"{table}\n"
        f"accepted inferences installing no rule: {result.unencoded}\n"
        f"accepted inferences outside every corpus burst: {result.unmatched}"
    )
