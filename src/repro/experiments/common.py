"""Shared plumbing for the experiment harnesses: one router replay.

Fig. 6, Table 2, Fig. 7, Fig. 8 and §6.5 are views over one replay of a
burst corpus: :func:`session_replays` feeds each distinct session once
through :class:`~repro.experiments.month_replay.StreamReplayer` (table load,
backup session, ``provision()``, ``receive_columnar`` with the detector in
the loop) and records every accepted inference with the reroute it
installed.  A record belongs to the corpus burst whose rows contain its
detected start; ground truth only scores it.  The corpus is a filter of a
synthetic trace's bursts (:func:`burst_corpus`, or :func:`cached_corpus`
through the trace cache), each a view of its session's rows, so
``burst.messages.trace`` and ``burst.rib`` are the session a replay feeds.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.core.inference import InferenceResult
from repro.core.swifted_router import RerouteAction, SwiftConfig, SwiftedRouter
from repro.experiments.month_replay import StreamReplayer
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
    "CorpusBurst",
    "ReplayRecord",
    "burst_corpus",
    "cached_corpus",
    "replay_corpus",
    "session_replays",
    "trace_corpus",
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


@dataclass(frozen=True)
class ReplayRecord:
    """One accepted inference of a replay: the reroute it installed
    (``None`` when no rule), the corpus burst whose rows contain its
    detected start (``None`` when none does) and the router's stage-1 tags."""

    inference: InferenceResult
    action: Optional[RerouteAction]
    burst: Optional[CorpusBurst]
    stage1: Mapping[Prefix, int]

    def localisation(self) -> ClassificationCounts:
        """The prediction scored against the whole burst (Fig. 6)."""
        return classify_inference(
            predicted=self.inference.prediction.predicted_prefixes,
            withdrawn_in_burst=self.burst.withdrawn_prefixes,
            session_prefixes=self.burst.rib.keys(),
        )

    def prediction(self) -> ClassificationCounts:
        """The prediction scored against the later withdrawals (Table 2)."""
        prediction = self.inference.prediction
        return classify_prediction(
            predicted=prediction.predicted_prefixes,
            withdrawn_before_inference=prediction.already_withdrawn,
            withdrawn_in_burst=self.burst.withdrawn_prefixes,
            session_prefixes=self.burst.rib.keys(),
        )

    def rerouted_share(self) -> float:
        """Share of the predicted prefixes whose stage-1 tag matches one of
        the action's rules, the ones ``forward()`` moves (Fig. 7); an empty
        prediction misses nothing."""
        predicted = self.inference.prediction.predicted_prefixes
        if not predicted:
            return 1.0
        if self.action is None:
            return 0.0
        rules, tags = self.action.rules, self.stage1
        moved = sum(
            1
            for prefix in predicted
            if prefix in tags and any(rule.matches(tags[prefix]) for rule in rules)
        )
        return moved / len(predicted)


def session_replays(
    corpus: Sequence[CorpusBurst], swift_config: Optional[SwiftConfig] = None
) -> Iterator[Tuple[SwiftedRouter, List[ReplayRecord]]]:
    """Replay each distinct session of ``corpus`` once; yield its router
    and its records in arrival order."""
    sessions: Dict[int, List[CorpusBurst]] = {}
    for burst in corpus:
        sessions.setdefault(id(burst.messages.trace), []).append(burst)
    for bursts in sessions.values():
        first = bursts[0]
        replayer = StreamReplayer(first.rib, first.peer_as, swift_config=swift_config)
        # An accepted inference installs at most one action, at its own
        # timestamp and for its own links.
        actions = {
            (action.timestamp, action.inferred_links): action
            for action in replayer.feed(first.messages.trace)
        }
        router = replayer.router
        yield router, [
            ReplayRecord(
                result,
                actions.get((result.timestamp, result.inferred_links)),
                next((b for b in bursts if _contains(b, result.burst_start)), None),
                router.encoded_tags.tags,
            )
            for result in router.engine_for(first.peer_as).results
            if result.accepted
        ]


def _contains(burst: CorpusBurst, timestamp: float) -> bool:
    return burst.start_time <= timestamp <= burst.messages.last_timestamp


def replay_corpus(
    corpus: Sequence[CorpusBurst], swift_config: Optional[SwiftConfig] = None
) -> Tuple[List[ReplayRecord], int]:
    """The records of :func:`session_replays` a corpus burst contains, and
    the number no corpus burst contains (counted, never dropped)."""
    records = [record for _, session in session_replays(corpus, swift_config) for record in session]
    matched = [record for record in records if record.burst is not None]
    return matched, len(records) - len(matched)


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
    return trace_corpus(SyntheticTraceGenerator(config).stream(), min_burst_size)


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
    return trace_corpus(cached_trace(SyntheticTraceConfig(**arguments)), min_burst_size)


def trace_corpus(trace: SyntheticTrace, min_burst_size: int) -> List[CorpusBurst]:
    """The trace's bursts of at least ``min_burst_size`` withdrawals.

    Bursts of the same session share its RIB dict and its row columns *by
    identity*, which is how :func:`session_replays` finds a corpus's
    sessions.
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
