"""§6.5 — number of data-plane updates and rerouting speed.

When the inference fires after 2.5k withdrawals, the paper reports a median
of 4 inferred links (29 at the 90th percentile) and, with 16 backup
next-hops, a median of 64 data-plane rule updates — installable within
~130 ms given per-rule update times of 128–282 µs per entry.  This harness
measures, over a burst corpus, the number of inferred links, the number of
wildcard rules a SWIFTED router would install, and the modelled data-plane
update latency.  An accepted inference whose inferred links give no rule
installs nothing, as in :class:`~repro.core.swifted_router.SwiftedRouter`:
it is counted in :attr:`ReroutingSpeedResult.unencoded`, and the rule and
latency distributions cover only the bursts that install a rule.

Corpus bursts (:mod:`repro.experiments.common`) are views of their
session's columns — materialised once here, as the inference engine
consumes them — and bursts of a session share their RIB dict by identity,
which is what the per-RIB encoding memo below keys on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.encoding import EncodedTags, EncoderConfig, TagEncoder
from repro.core.inference import InferenceConfig
from repro.dataplane.timing import FibUpdateTimingModel
from repro.experiments.common import CorpusBurst, evaluate_burst
from repro.metrics.distributions import percentile
from repro.metrics.tables import format_table

__all__ = ["ReroutingSpeedResult", "run", "format_result"]


@dataclass
class ReroutingSpeedResult:
    """Distributions of inferred-link counts, rule counts and update times.

    ``bursts`` counts accepted inferences; ``rule_counts`` and
    ``update_seconds`` cover those that install a rule, and ``unencoded``
    those that install none (no inferred link is encoded at a position
    with a backup next-hop identifier).
    """

    inferred_link_counts: List[int]
    rule_counts: List[int]
    update_seconds: List[float]
    bursts: int
    unencoded: int

    def median_links(self) -> float:
        """Median number of inferred links per accepted inference."""
        return percentile([float(c) for c in self.inferred_link_counts], 0.5) if self.inferred_link_counts else 0.0

    def median_rules(self) -> float:
        """Median number of installed rules per reroute."""
        return percentile([float(c) for c in self.rule_counts], 0.5) if self.rule_counts else 0.0

    def median_update_seconds(self) -> float:
        """Median modelled data-plane update latency."""
        return percentile(self.update_seconds, 0.5) if self.update_seconds else 0.0


def run(
    corpus: Sequence[CorpusBurst],
    backup_next_hops: int = 16,
    inference_config: Optional[InferenceConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    timing: Optional[FibUpdateTimingModel] = None,
) -> ReroutingSpeedResult:
    """Measure rule counts and reroute latencies over a burst corpus.

    ``backup_next_hops`` models how many distinct backup next-hops the
    rerouted traffic is spread over (the paper's §6.5 uses 16); each inferred
    link contributes one rule per backup next-hop and per encoded position
    (:meth:`~repro.core.encoding.TagEncoder.reroute_rules`).  A burst whose
    links contribute none is counted in ``unencoded``, with no rule count.
    """
    inference_config = inference_config or InferenceConfig()
    encoder = TagEncoder(encoder_config or EncoderConfig())
    timing = timing or FibUpdateTimingModel(per_rule_seconds=205e-6,
                                            control_plane_overhead_seconds=0.0)

    link_counts: List[int] = []
    rule_counts: List[int] = []
    update_seconds: List[float] = []
    unencoded = 0
    synthetic_backups = {64500 + i: 1 for i in range(backup_next_hops)}
    # The encoding depends only on the session RIB, which corpus bursts of
    # the same session share by identity — encode each RIB once instead of
    # once per burst (ROADMAP perf idea #4).
    encoded_of_rib: Dict[int, EncodedTags] = {}
    for burst in corpus:
        evaluation = evaluate_burst(burst, config=inference_config)
        if not evaluation.made_prediction:
            continue
        result = evaluation.inference
        assert result is not None
        link_counts.append(len(result.inferred_links))
        rib_key = id(burst.rib)
        encoded = encoded_of_rib.get(rib_key)
        if encoded is None:
            encoded = encoded_of_rib[rib_key] = encoder.encode(dict(burst.rib))
        # One rule per (encoded position of the link, backup next-hop).
        rules = sum(
            len(encoder.reroute_rules(encoded, link, synthetic_backups))
            for link in result.inferred_links
        )
        if rules == 0:
            unencoded += 1
            continue
        rule_counts.append(rules)
        update_seconds.append(timing.rule_update_time(rules))

    return ReroutingSpeedResult(
        inferred_link_counts=link_counts,
        rule_counts=rule_counts,
        update_seconds=update_seconds,
        bursts=len(link_counts),
        unencoded=unencoded,
    )


def format_result(result: ReroutingSpeedResult) -> str:
    """Render the §6.5 summary."""
    link_p90 = (
        percentile([float(c) for c in result.inferred_link_counts], 0.9)
        if result.inferred_link_counts
        else 0.0
    )
    rule_p90 = (
        percentile([float(c) for c in result.rule_counts], 0.9)
        if result.rule_counts
        else 0.0
    )
    rows = [
        ("inferred links", round(result.median_links(), 1), round(link_p90, 1), "4 / 29"),
        ("rules installed", round(result.median_rules(), 1), round(rule_p90, 1), "64 / 464"),
        (
            "update time (ms)",
            round(1000 * result.median_update_seconds(), 1),
            round(
                1000 * (percentile(result.update_seconds, 0.9) if result.update_seconds else 0.0),
                1,
            ),
            "~130 / -",
        ),
    ]
    table = format_table(
        ["Quantity", "median", "p90", "paper (median / p90)"],
        rows,
        title=f"Rerouting speed over {result.bursts} accepted inferences",
    )
    return f"{table}\naccepted inferences installing no rule: {result.unencoded}"
