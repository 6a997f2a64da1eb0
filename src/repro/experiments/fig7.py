"""Fig. 7 — encoding performance vs bits allocated to the AS-path part.

For each burst, the *encoding performance* is the fraction of the predicted
prefixes that the pre-provisioned tags actually reroute.  The paper sweeps
13/18/23/28 bits and reports that 18 bits already reroute 98.7% of the
predicted prefixes in the median case (73.9% on average), and more for
large (>=10k) bursts.

Each bit budget is one router replay of the corpus with that encoder, and a
record's performance is the share of its predicted prefixes that its
reroute's rules match (:meth:`~repro.experiments.common.ReplayRecord.rerouted_share`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.encoding import EncoderConfig
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.common import CorpusBurst, ReplayRecord, replay_corpus
from repro.metrics.distributions import DistributionSummary, summarize
from repro.metrics.tables import format_table

__all__ = ["Fig7Result", "run", "format_result"]


@dataclass
class Fig7Result:
    """Encoding-performance distributions per bit budget; ``None`` for a
    class with no burst."""

    all_bursts: Dict[int, Optional[DistributionSummary]]
    large_bursts: Dict[int, Optional[DistributionSummary]]
    burst_count: int
    #: Accepted inferences no corpus burst contains (alike in every replay).
    unmatched: int

    def median_at(self, bits: int) -> Optional[float]:
        """Median encoding performance (all bursts) for a bit budget."""
        summary = self.all_bursts[bits]
        return None if summary is None else summary.median


def run(
    corpus: Sequence[CorpusBurst],
    bit_budgets: Sequence[int] = (13, 18, 23, 28),
    prefix_threshold: int = 1500,
    large_burst_size: int = 10000,
    inference_config: Optional[InferenceConfig] = None,
) -> Fig7Result:
    """Measure the encoding performance over a burst corpus."""
    inference_config = inference_config or InferenceConfig()
    per_bits_all: Dict[int, List[float]] = {bits: [] for bits in bit_budgets}
    per_bits_large: Dict[int, List[float]] = {bits: [] for bits in bit_budgets}
    records: List[ReplayRecord] = []
    unmatched = 0
    for bits in bit_budgets:
        encoder = EncoderConfig(path_bits=bits, prefix_threshold=prefix_threshold)
        records, unmatched = replay_corpus(
            corpus, SwiftConfig(inference=inference_config, encoder=encoder)
        )
        for record in records:
            share = record.rerouted_share()
            per_bits_all[bits].append(share)
            if record.burst.size >= large_burst_size:
                per_bits_large[bits].append(share)

    return Fig7Result(
        all_bursts=_summaries(per_bits_all),
        large_bursts=_summaries(per_bits_large),
        burst_count=len(records),
        unmatched=unmatched,
    )


def _summaries(per_bits: Dict[int, List[float]]) -> Dict[int, Optional[DistributionSummary]]:
    return {bits: summarize(values) if values else None for bits, values in per_bits.items()}


def format_result(result: Fig7Result) -> str:
    """Render the encoding-performance sweep; an empty class reads n=0."""

    def percent(summary: Optional[DistributionSummary], stat: str):
        return "n=0" if summary is None else round(100 * getattr(summary, stat), 1)

    rows = [
        (
            bits,
            percent(result.all_bursts[bits], "median"),
            percent(result.all_bursts[bits], "mean"),
            percent(result.large_bursts[bits], "mean"),
        )
        for bits in sorted(result.all_bursts)
    ]
    table = format_table(
        ["Path bits", "median % (all)", "mean % (all)", "mean % (>=10k)"],
        rows,
        title="Fig. 7 - encoding performance vs AS-path bit budget",
    )
    return (
        f"{table}\n"
        f"bursts with an accepted inference: {result.burst_count}\n"
        f"accepted inferences outside every corpus burst: {result.unmatched}\n"
        "paper at 18 bits: median 98.7%, mean 73.9% (84.0% for >=10k bursts)"
    )
