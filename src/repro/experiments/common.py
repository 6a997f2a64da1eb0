"""Shared plumbing for the experiment harnesses.

The real-trace experiments (Fig. 6, Table 2, Fig. 7, Fig. 8) all follow the
same recipe: take a burst and the pre-burst RIB of its session, run the SWIFT
inference engine over the burst's message stream, and score the accepted
inference against what the full burst eventually withdrew.  This module
factors that recipe out, plus the construction of a reusable burst corpus
from the synthetic trace generator.
"""

from __future__ import annotations

import inspect
from array import array
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix
from repro.core.history import HistoryModel
from repro.core.inference import InferenceConfig, InferenceEngine, InferenceResult
from repro.metrics.classification import (
    ClassificationCounts,
    classify_inference,
    classify_prediction,
)
from repro.traces.columnar import (
    COLUMNAR_FORMAT_VERSION,
    ColumnarTrace,
    decode_rib,
    encode_rib,
)
from repro.traces.synthetic import (
    SyntheticBurst,
    SyntheticTrace,
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
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
    """One burst of the evaluation corpus, with its session RIB."""

    peer_as: int
    messages: Tuple[BGPMessage, ...]
    rib: Mapping[Prefix, ASPath]
    withdrawn_prefixes: FrozenSet[Prefix]
    failed_link: Optional[Tuple[int, int]] = None

    @property
    def size(self) -> int:
        """Burst size in withdrawals.

        Columnar-cached corpora answer from the withdrawal bounds without
        materialising messages.
        """
        counter = getattr(self.messages, "withdrawal_count", None)
        if counter is not None:
            return counter()
        return sum(
            len(m.withdrawals) for m in self.messages if isinstance(m, Update)
        )

    @property
    def start_time(self) -> float:
        """Timestamp of the first burst message."""
        if not len(self.messages):
            return 0.0
        first = getattr(self.messages, "first_timestamp", None)
        return first if first is not None else self.messages[0].timestamp


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
    """
    config = SyntheticTraceConfig(
        peer_count=peer_count,
        duration_days=duration_days,
        min_table_size=min_table_size,
        max_table_size=max_table_size,
        noise_rate_per_second=noise_rate_per_second,
        seed=seed,
    )
    trace = SyntheticTraceGenerator(config).generate()
    corpus: List[CorpusBurst] = []
    for burst in trace.bursts:
        if burst.size < min_burst_size:
            continue
        rib = trace.rib_of(burst.peer.peer_as)
        corpus.append(
            CorpusBurst(
                peer_as=burst.peer.peer_as,
                messages=tuple(burst.messages),
                rib=rib,
                withdrawn_prefixes=burst.withdrawn_prefixes | burst.noise_prefixes,
                failed_link=burst.failed_link,
            )
        )
    return corpus


def _encode_corpus(corpus: Sequence[CorpusBurst]) -> dict:
    """Encode a burst corpus as a columnar payload (see :func:`cached_corpus`)."""
    columns = ColumnarTrace()
    intern_prefix = columns.pool.intern_prefix
    ribs: Dict[int, Tuple] = {}
    rows = []
    for burst in corpus:
        if burst.peer_as not in ribs:
            ribs[burst.peer_as] = encode_rib(burst.rib, columns.pool)
        start = columns.message_count
        columns.extend(burst.messages)
        rows.append(
            (
                burst.peer_as,
                start,
                columns.message_count,
                array("I", map(intern_prefix, burst.withdrawn_prefixes)),
                burst.failed_link,
            )
        )
    return {"columns": columns.to_payload(), "ribs": ribs, "bursts": rows}


def _decode_corpus(payload: dict) -> List[CorpusBurst]:
    """Rebuild a corpus from columns: lazy message views, shared RIB dicts.

    Bursts of the same session share one decoded RIB dict *by identity*,
    which downstream per-RIB caches (e.g. the rerouting-speed encoder
    memo) rely on.
    """
    columns = ColumnarTrace.from_payload(payload["columns"])
    pool = columns.pool
    prefix_at = pool.prefix_at
    rib_of = {
        peer_as: decode_rib(prefix_column, path_column, pool)
        for peer_as, (prefix_column, path_column) in payload["ribs"].items()
    }
    return [
        CorpusBurst(
            peer_as=peer_as,
            messages=columns.view(range(start, stop)),
            rib=rib_of[peer_as],
            withdrawn_prefixes=frozenset(map(prefix_at, withdrawn)),
            failed_link=failed_link,
        )
        for peer_as, start, stop, withdrawn, failed_link in payload["bursts"]
    ]


def cached_corpus(**kwargs) -> List[CorpusBurst]:
    """Memoised :func:`burst_corpus`: generated once, reloaded from disk after.

    Accepts the same keyword arguments; the cache key is the *fully bound*
    parameter fingerprint — defaults included, so changing a default misses
    cleanly — plus the trace-cache and columnar format versions.  The
    persisted form is a columnar payload: reloads restore arrays and hand
    out lazy message views instead of unpickling the burst object graph.
    Used by the benchmark fixtures, where regenerating the corpus dominated
    session start-up time.
    """
    from repro.traces.trace_cache import fingerprint, load_or_build

    bound = inspect.signature(burst_corpus).bind(**kwargs)
    bound.apply_defaults()
    spec = fingerprint(dict(bound.arguments))
    return load_or_build(
        "corpus",
        spec,
        lambda: burst_corpus(**kwargs),
        format_version=COLUMNAR_FORMAT_VERSION,
        encode=_encode_corpus,
        decode=_decode_corpus,
    )


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
