"""Shared plumbing for the experiment harnesses.

The real-trace experiments (Fig. 6, Table 2, Fig. 7, Fig. 8) all follow the
same recipe: take a burst and the pre-burst RIB of its session, run the SWIFT
inference engine over the burst's message stream, and score the accepted
inference against what the full burst eventually withdrew.  This module
factors that recipe out.  Its burst corpus is a filter of a synthetic
trace's bursts: :func:`burst_corpus` generates the trace,
:func:`cached_corpus` reads it through the trace cache, and each burst's
messages are a view of its session's rows.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import FrozenSet, List, Mapping, Optional, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.core.history import HistoryModel
from repro.core.inference import InferenceConfig, InferenceEngine, InferenceResult
from repro.metrics.classification import (
    ClassificationCounts,
    classify_inference,
    classify_prediction,
)
from repro.traces.columnar import ColumnarMessageView
from repro.traces.synthetic import (
    SyntheticTrace,
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    cached_trace,
)

__all__ = [
    "BurstEvaluation",
    "CorpusBurst",
    "burst_corpus",
    "cached_corpus",
    "evaluate_burst",
]


@dataclass(frozen=True)
class CorpusBurst:
    """One burst of the evaluation corpus, with its session RIB.

    ``messages`` is the burst's view of its session's rows.
    """

    peer_as: int
    messages: ColumnarMessageView
    rib: Mapping[Prefix, ASPath]
    withdrawn_prefixes: FrozenSet[Prefix]
    failed_link: Optional[Tuple[int, int]] = None

    @property
    def size(self) -> int:
        """Burst size in withdrawals (from the withdrawal bounds)."""
        return self.messages.withdrawal_count()

    @property
    def start_time(self) -> float:
        """Timestamp of the first burst message."""
        first = self.messages.first_timestamp
        return first if first is not None else 0.0


@dataclass
class BurstEvaluation:
    """The outcome of running SWIFT over one burst."""

    burst: CorpusBurst
    inference: Optional[InferenceResult]
    localisation: Optional[ClassificationCounts]
    prediction: Optional[ClassificationCounts]

    @property
    def made_prediction(self) -> bool:
        """Whether SWIFT accepted an inference for this burst."""
        return self.inference is not None

    @property
    def tpr(self) -> float:
        """Localisation TPR (0 when no inference was made)."""
        return self.localisation.tpr if self.localisation else 0.0

    @property
    def fpr(self) -> float:
        """Localisation FPR (0 when no inference was made)."""
        return self.localisation.fpr if self.localisation else 0.0

    @property
    def cpr(self) -> float:
        """Correctly Predicted Rate of future withdrawals."""
        return self.prediction.tpr if self.prediction else 0.0


def burst_corpus(
    peer_count: int = 12,
    duration_days: float = 30.0,
    min_table_size: int = 5000,
    max_table_size: int = 40000,
    min_burst_size: int = 2500,
    seed: int = 7,
    noise_rate_per_second: float = 0.0,
) -> List[CorpusBurst]:
    """Generate a corpus of bursts (with RIBs) for the §6 experiments.

    The defaults are a scaled-down version of the paper's dataset (1,802
    bursts above 1,500 withdrawals from 213 sessions): fewer sessions and
    smaller tables, same structural properties.  Background noise is disabled
    by default because the corpus carries each burst's messages individually.
    Every other argument is the :class:`SyntheticTraceConfig` field of the
    same name.
    """
    config = SyntheticTraceConfig(
        peer_count=peer_count,
        duration_days=duration_days,
        min_table_size=min_table_size,
        max_table_size=max_table_size,
        noise_rate_per_second=noise_rate_per_second,
        seed=seed,
    )
    return _corpus(SyntheticTraceGenerator(config).stream(), min_burst_size)


def cached_corpus(**kwargs) -> List[CorpusBurst]:
    """:func:`burst_corpus` over :func:`~repro.traces.synthetic.cached_trace`.

    Accepts the same keyword arguments.  The bursts are those of the cached
    trace of the same configuration, so a corpus is generated once and
    reloaded from its trace's cache entry after.  Used by the benchmark
    fixtures, where regenerating the corpus dominated session start-up time.
    """
    bound = inspect.signature(burst_corpus).bind(**kwargs)
    bound.apply_defaults()
    arguments = dict(bound.arguments)
    min_burst_size = arguments.pop("min_burst_size")
    return _corpus(cached_trace(SyntheticTraceConfig(**arguments)), min_burst_size)


def _corpus(trace: SyntheticTrace, min_burst_size: int) -> List[CorpusBurst]:
    """The trace's bursts of at least ``min_burst_size`` withdrawals.

    Bursts of the same session share one RIB dict *by identity*, which
    downstream per-RIB caches (e.g. the rerouting-speed encoder memo) rely
    on.
    """
    return [
        CorpusBurst(
            peer_as=burst.peer.peer_as,
            messages=burst.messages,
            rib=trace.rib_of(burst.peer.peer_as),
            withdrawn_prefixes=burst.withdrawn_prefixes | burst.noise_prefixes,
            failed_link=burst.failed_link,
        )
        for burst in trace.bursts
        if burst.size >= min_burst_size
    ]


def evaluate_burst(
    burst: CorpusBurst,
    config: Optional[InferenceConfig] = None,
    history: Optional[HistoryModel] = None,
) -> BurstEvaluation:
    """Run the inference engine over one burst and score the result."""
    engine = InferenceEngine(burst.rib, config=config, history=history)
    engine.process_batch(burst.messages)
    result = engine.accepted_inference
    if result is None:
        return BurstEvaluation(
            burst=burst, inference=None, localisation=None, prediction=None
        )
    session_prefixes = list(burst.rib.keys())
    localisation = classify_inference(
        predicted=result.prediction.predicted_prefixes,
        withdrawn_in_burst=burst.withdrawn_prefixes,
        session_prefixes=session_prefixes,
    )
    prediction = classify_prediction(
        predicted=result.prediction.predicted_prefixes,
        withdrawn_before_inference=result.prediction.already_withdrawn,
        withdrawn_in_burst=burst.withdrawn_prefixes,
        session_prefixes=session_prefixes,
    )
    return BurstEvaluation(
        burst=burst,
        inference=result,
        localisation=localisation,
        prediction=prediction,
    )
