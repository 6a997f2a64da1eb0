"""The SWIFT inference engine (§4).

The engine consumes the BGP message stream of one peering session.  It
maintains a :class:`~repro.core.burst_detection.BurstDetector` and a
persistent :class:`~repro.core.fit_score.LinkPrefixIndex` — the session RIB
interned by AS path, one group of prefixes per distinct path — which it
updates incrementally as announcements stream in and as quiet-time
withdrawals age out.  The index is the engine's only copy of the session
RIB: :meth:`InferenceEngine.current_rib` reads it off the groups.  When a burst
starts, a :class:`~repro.core.fit_score.FitScoreCalculator` is overlaid on
the live index in O(1) (no RIB scan); at every triggering threshold it:

1. scores every candidate link and greedily aggregates links sharing an
   endpoint while the aggregate fit score does not decrease (§4.2,
   "SWIFT can infer concurrent link failures");
2. keeps every candidate (single link or aggregate) whose fit score equals
   the maximum — the conservative tie handling of §4.2;
3. predicts the affected prefixes as *all* prefixes whose current path
   traverses any inferred link (§3.1, conservative prediction), answered
   from the index as a union of the member sets of the path groups crossing
   the inferred links;
4. checks the prediction against the history model / triggering schedule and
   either emits the inference or waits for the next threshold (§4.2).

Every step of the burst hot path is therefore proportional to the burst's
footprint (withdrawn prefixes and their links), not to the RIB size — the
property that lets SWIFT answer within ~2 s of the burst start (§4, Fig. 9).

The engine is deliberately independent from the data-plane machinery so it
can be evaluated on traces (as in §6) without a router attached.  Messages
can be fed one at a time (:meth:`InferenceEngine.process_message`) or in
batches (:meth:`InferenceEngine.process_batch`), which routers and the
experiment drivers prefer to amortise per-message Python overhead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Deque, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.messages import BGPMessage, MessageType, Update
from repro.bgp.prefix import Prefix
from repro.core import kernels
from repro.core.burst_detection import BurstDetector, BurstDetectorConfig
from repro.core.fit_score import FitScoreCalculator, FitScoreConfig, LinkPrefixIndex, LinkScore
from repro.core.history import HistoryModel, TriggeringSchedule

__all__ = [
    "InferenceConfig",
    "InferenceEngine",
    "InferenceResult",
    "PrefixPrediction",
]

Link = Tuple[int, int]

#: Signature of a pluggable calculator factory: given the engine's current
#: RIB view it returns a fit-score calculator — the one substitution seam of
#: the engine (see :class:`InferenceEngine`).
CalculatorFactory = Callable[[Mapping[Prefix, ASPath]], FitScoreCalculator]


@dataclass(frozen=True)
class InferenceConfig:
    """All the knobs of the inference algorithm (paper defaults).

    ``kernel_backend`` names the column-kernel backend of the engine's hot
    loops (see :mod:`repro.core.kernels`): ``None``, ``"auto"`` and
    ``"stdlib"`` all select the one backend.
    """

    fit_score: FitScoreConfig = field(default_factory=FitScoreConfig)
    detector: BurstDetectorConfig = field(default_factory=BurstDetectorConfig)
    schedule: TriggeringSchedule = field(default_factory=TriggeringSchedule)
    use_history: bool = True
    max_aggregation_rounds: int = 8
    score_tolerance: float = 1e-9
    kernel_backend: Optional[str] = None

    @classmethod
    def without_history(cls) -> "InferenceConfig":
        """The history-less variant evaluated in Fig. 6(a)."""
        return cls(schedule=TriggeringSchedule.permissive(), use_history=False)


@dataclass(frozen=True)
class PrefixPrediction:
    """The set of prefixes SWIFT would reroute after an inference."""

    predicted_prefixes: FrozenSet[Prefix]
    already_withdrawn: FrozenSet[Prefix]

    @property
    def size(self) -> int:
        """Total number of predicted prefixes."""
        return len(self.predicted_prefixes)


@dataclass(frozen=True)
class InferenceResult:
    """One (accepted or rejected) inference."""

    timestamp: float
    withdrawals_seen: int
    inferred_links: Tuple[Link, ...]
    scores: Tuple[LinkScore, ...]
    prediction: PrefixPrediction
    accepted: bool
    burst_start: float

    @property
    def inference_delay(self) -> float:
        """Seconds elapsed between the burst start and this inference."""
        return max(0.0, self.timestamp - self.burst_start)


class InferenceEngine:
    """Per-session SWIFT inference.

    Parameters
    ----------
    rib:
        Pre-burst Adj-RIB-In snapshot (prefix -> AS path) of the session.
        The engine interns it into its per-path index once — O(RIB) — and
        maintains the index incrementally afterwards, so burst starts and
        triggering thresholds never rescan the RIB.  The engine keeps no
        copy of ``rib``: the index's path groups are its RIB view.
    config:
        Inference configuration; defaults to the paper's settings.
    history:
        Optional burst-size history used for plausibility checks; when absent
        the static triggering schedule alone gates acceptance.
    local_as / peer_as:
        When provided, the implicit first AS link between the local router
        and the session peer is also considered by the scoring.
    calculator_factory:
        The engine's single substitution seam: called with the engine's
        current RIB view (:meth:`current_rib`, built from the index's path
        groups) at every burst start, its product scores the burst
        instead of the O(1) overlay calculator.  The engine calls that
        product directly and never asks what it is, so it must implement the
        calculator protocol in full — ``record_withdrawals``,
        ``record_withdrawal_rows``, ``record_run``, ``record_update``,
        ``all_scores``, ``score_from_counts``, ``prefixes_via_links`` and
        ``withdrawn_within``, with :class:`FitScoreCalculator`'s signatures
        and return values — and ``record_update`` must also move the prefix
        in :attr:`index` (the default calculator does so by sharing it).
        ``tests/oracles/fit_score_reference.py`` is the worked example;
        production use leaves this unset.
    """

    def __init__(
        self,
        rib: Mapping[Prefix, ASPath],
        config: Optional[InferenceConfig] = None,
        history: Optional[HistoryModel] = None,
        local_as: Optional[int] = None,
        peer_as: Optional[int] = None,
        calculator_factory: Optional[CalculatorFactory] = None,
    ) -> None:
        self.config = config or InferenceConfig()
        self.history = history
        self._local_as = local_as
        self._peer_as = peer_as
        self._index = LinkPrefixIndex(rib, local_as=local_as, peer_as=peer_as)
        self._calculator_factory = calculator_factory
        self._kernel = kernels.get_backend(self.config.kernel_backend)
        self.detector = BurstDetector(self.config.detector, kernel=self._kernel)
        self._calculator: Optional[FitScoreCalculator] = None
        self._burst_start: Optional[float] = None
        self._withdrawals_in_burst = 0
        self._next_trigger: Optional[int] = self.config.schedule.first_trigger
        self.results: List[InferenceResult] = []
        self._accepted_result: Optional[InferenceResult] = None
        # Withdrawals received in the last detection window while quiet; they
        # belong to the burst once detection fires and are replayed then.
        self._recent_withdrawals: Deque[Tuple[float, Prefix]] = deque()

    # -- stream consumption ---------------------------------------------------

    def process_message(self, message: BGPMessage) -> Optional[InferenceResult]:
        """Feed one message; returns an accepted inference if one fires."""
        if not isinstance(message, Update):
            if message.type is MessageType.NOTIFICATION:
                self._reset_session(message.timestamp)
            return None
        timestamp = message.timestamp
        calculator = self._calculator
        accepted: Optional[InferenceResult] = None

        # Age the quiet-time withdrawal buffer on *every* message timestamp —
        # announcement-only traffic must also expire stale entries, otherwise
        # a later burst would replay them and backdate its start time.
        if calculator is None:
            self._expire_recent(timestamp)

        withdrawals = message.withdrawals
        if withdrawals:
            event = self.detector.observe_withdrawals(timestamp, len(withdrawals))
            if event is not None:
                if event.kind == "start":
                    # The buffered withdrawals of the detection window belong
                    # to the burst; _start_burst replays them into the
                    # calculator.
                    self._start_burst(event.timestamp)
                else:
                    # A withdrawal arriving after a long quiet gap: the old
                    # burst is over, and this withdrawal is quiet-time traffic
                    # (possibly the first sign of a *new* burst) — it must not
                    # be attributed to the stale calculator.
                    self._end_burst(event.timestamp)
                calculator = self._calculator
            if calculator is not None:
                self._withdrawals_in_burst += calculator.record_withdrawals(withdrawals)
                accepted = self._maybe_infer(timestamp)
            else:
                for prefix in withdrawals:
                    self._recent_withdrawals.append((timestamp, prefix))
        else:
            event = self.detector.observe_time(timestamp)
            if event is not None and event.kind == "end":
                self._end_burst(timestamp)
                calculator = None

        if message.announcements:
            # Keep the index (and so the RIB view) current; during a burst
            # the calculator follows the implicit withdrawals carried by path
            # changes and patches the index itself.
            apply = (
                calculator.record_update
                if calculator is not None
                else self._index.set_path
            )
            for announcement in message.announcements:
                apply(announcement.prefix, announcement.attributes.as_path)

        if calculator is not None and self.detector.state.value == "quiet":
            self._end_burst(timestamp)
        return accepted

    def process_batch(
        self, messages: Iterable[BGPMessage]
    ) -> List[InferenceResult]:
        """Feed a batch of messages; returns every accepted inference.

        Routers and experiment drivers should prefer this over per-message
        calls: the loop binds the hot method once and withdrawal-heavy
        UPDATEs inside are already recorded in bulk.  The messages are
        iterated exactly once, so lazy streams are fine.
        """
        accepted: List[InferenceResult] = []
        process = self.process_message
        for message in messages:
            result = process(message)
            if result is not None:
                accepted.append(result)
        return accepted

    def process_columnar_run(self, run) -> List[InferenceResult]:
        """Feed a same-peer columnar run straight from its columns.

        The column-native twin of :meth:`process_batch` over the run's
        materialised messages: identical :class:`InferenceResult` sequences,
        identical burst-boundary semantics (late-withdrawal buffering, "end"
        events, quiet-state flush), but no :class:`~repro.bgp.messages.Update`
        — nor any per-message tuple — is ever constructed.  Three layers make
        that possible:

        * the detector pre-scans the run
          (:meth:`~repro.core.burst_detection.BurstDetector.observe_run`) and
          reports every burst transition with its row index, so the engine
          walks the run as homogeneous *spans* between transitions;
        * quiet spans age the withdrawal buffer and patch the persistent
          index from the announcement columns (interned objects, shared with
          the index);
        * burst spans are recorded in bulk
          (:meth:`~repro.core.fit_score.FitScoreCalculator.record_run`), with
          the triggering thresholds located by bisect over the cumulative
          withdrawal-bound column — the engine only stops at rows where the
          per-message path would actually have run an inference.

        ``run`` is duck-typed (``trace``/``start``/``stop``, the interface
        documented in :mod:`repro.traces.columnar`).  Returns every accepted
        inference, like :meth:`process_batch`.

        A NOTIFICATION row resets the engine as :meth:`process_message` does,
        so the detector scans the rows on either side of it separately.
        """
        accepted: List[InferenceResult] = []
        trace, position, stop = run.trace, run.start, run.stop
        while True:
            try:
                reset = trace.msg_kind.index(3, position, stop)  # 3 = NOTIFICATION
            except ValueError:
                reset = stop
            window = SimpleNamespace(trace=trace, start=position, stop=reset)
            for row, event in self.detector.observe_run(window):
                self._columnar_span(run, position, row, accepted)
                self._columnar_event_row(run, row, event, accepted)
                position = row + 1
            self._columnar_span(run, position, reset, accepted)
            if reset == stop:
                return accepted
            self._reset_session(trace.msg_time[reset])
            position = reset + 1

    def apply_rib_delta(
        self, delta: Mapping[Prefix, Optional[ASPath]]
    ) -> None:
        """Patch the engine's RIB view from out-of-band route changes.

        Used by :meth:`repro.core.swifted_router.SwiftedRouter.provision` to
        keep a long-lived engine in sync with Adj-RIB-In mutations that did
        not flow through :meth:`process_message` (e.g. initial table loads):
        ``path=None`` removes the prefix, anything else (re)installs it.  The
        persistent index absorbs each entry in O(path length) — no rebuild.
        Re-provisioning is a quiet-time operation; applying a delta while a
        burst is being tracked would bypass the burst-local overlay.
        """
        index = self._index
        for prefix, path in delta.items():
            if path is None:
                index.remove_prefix(prefix)
            else:
                index.set_path(prefix, path)

    def flush_quiet_state(self) -> None:
        """Fold buffered quiet-time withdrawals into the index.

        Outside a burst, withdrawals sit in a detection-window buffer for up
        to ``window_seconds`` before they age out of the engine's index.
        Re-provisioning treats them as settled churn immediately — exactly
        the state a from-scratch rebuild from the Adj-RIB-In would observe —
        so a kept-alive engine stays interchangeable with a rebuilt one.
        No-op while a burst is being tracked.
        """
        if self._in_burst:
            return
        while self._recent_withdrawals:
            _, prefix = self._recent_withdrawals.popleft()
            self._index.remove_prefix(prefix)

    def force_inference(self, timestamp: float) -> Optional[InferenceResult]:
        """Run an inference now, bypassing the triggering schedule: the
        end-of-burst inference the simulation validation scores (§6.2.2).
        Returns ``None`` when no burst is being tracked."""
        if not self._in_burst:
            return None
        return self._run_inference(timestamp, accept_always=True)

    # -- state ------------------------------------------------------------------

    @property
    def _in_burst(self) -> bool:
        return self._calculator is not None

    @property
    def accepted_inference(self) -> Optional[InferenceResult]:
        """The first accepted inference of the current/most recent burst."""
        return self._accepted_result

    @property
    def withdrawals_in_current_burst(self) -> int:
        """Withdrawals counted since the current burst started."""
        return self._withdrawals_in_burst

    def current_rib(self) -> Dict[Prefix, ASPath]:
        """The engine's view of the session RIB (pre-burst + later updates),
        read off the index's path groups."""
        return self._index.paths()

    @property
    def index(self) -> LinkPrefixIndex:
        """The persistent per-path index maintained by this engine."""
        return self._index

    # -- internals ----------------------------------------------------------------

    def _expire_recent(self, now: float) -> None:
        """Drop buffered withdrawals older than the detection window.

        Once a buffered withdrawal has aged out without a burst starting it is
        treated as ordinary churn: the prefix is also removed from the
        engine's index so future bursts start from an accurate snapshot.
        """
        horizon = now - self.config.detector.window_seconds
        while self._recent_withdrawals and self._recent_withdrawals[0][0] < horizon:
            _, prefix = self._recent_withdrawals.popleft()
            self._index.remove_prefix(prefix)

    # -- columnar internals -------------------------------------------------

    def _fold_announcements(self, trace, a_low: int, a_high: int, apply) -> None:
        """Hand [a_low, a_high) of the announcement columns to ``apply``.

        The one decode-and-fold loop every columnar span shares (the per-row
        quiet loop keeps its own inlined copy for speed): each announcement's
        interned (prefix, AS path) pair is handed to ``apply``, which patches
        the persistent index: its ``set_path`` in quiet time, the burst
        calculator's
        :meth:`~repro.core.fit_score.FitScoreCalculator.record_update`
        in-burst (the implicit-withdrawal bookkeeping runs first, then the
        calculator moves the prefix in the index).
        """
        pool = trace.pool
        prefix_at = pool.prefix_at
        path_at = pool.path_at
        attr_path = pool.attr_path
        ann_prefix = trace.ann_prefix
        ann_attr = trace.ann_attr
        for index in range(a_low, a_high):
            apply(prefix_at(ann_prefix[index]), path_at(attr_path[ann_attr[index]]))

    def _columnar_span(
        self, run, lo: int, hi: int, accepted: List[InferenceResult]
    ) -> None:
        """Process rows [lo, hi) of ``run``, none of which transitions."""
        if hi <= lo:
            return
        if self._in_burst:
            self._burst_span(run, lo, hi, accepted)
        else:
            self._quiet_span(run, lo, hi)

    def _quiet_span(self, run, lo: int, hi: int) -> None:
        """Quiet-mode rows: buffer withdrawals, track announcements, age.

        Mirrors the quiet branches of :meth:`process_message` row by row;
        withdrawal-free spans over an empty buffer collapse into one pass
        over the announcement columns (buffer aging is a no-op and row
        boundaries only matter to it).
        """
        trace = run.trace
        wd_end = trace.wd_end
        ann_end = trace.ann_end
        w = wd_end[lo - 1] if lo else 0
        a = ann_end[lo - 1] if lo else 0
        if not self._recent_withdrawals and wd_end[hi - 1] == w:
            self._fold_announcements(trace, a, ann_end[hi - 1], self._index.set_path)
            return
        pool = trace.pool
        prefix_at = pool.prefix_at
        path_at = pool.path_at
        attr_path = pool.attr_path
        ann_prefix = trace.ann_prefix
        ann_attr = trace.ann_attr
        set_path = self._index.set_path
        kinds = trace.msg_kind
        times = trace.msg_time
        wd_prefix = trace.wd_prefix
        buffered = self._recent_withdrawals
        buffered_pop = buffered.popleft
        buffered_append = buffered.append
        remove_prefix = self._index.remove_prefix
        window_seconds = self.config.detector.window_seconds
        last_wd = wd_end[hi - 1]
        for row in range(lo, hi):
            w_high = wd_end[row]
            a_high = ann_end[row]
            if kinds[row] != 0:
                w = w_high
                a = a_high
                continue
            timestamp = times[row]
            if buffered:
                # Inlined _expire_recent: the buffer ages on every quiet
                # UPDATE timestamp, expired prefixes leave the index.
                horizon = timestamp - window_seconds
                while buffered and buffered[0][0] < horizon:
                    _, prefix = buffered_pop()
                    remove_prefix(prefix)
            elif w == last_wd:
                # Buffer drained and no withdrawals left in the span: the
                # remaining rows are pure announcement traffic — fold them
                # in one pass over the announcement columns.
                self._fold_announcements(trace, a, ann_end[hi - 1], set_path)
                return
            while w < w_high:
                buffered_append((timestamp, prefix_at(wd_prefix[w])))
                w += 1
            while a < a_high:
                set_path(prefix_at(ann_prefix[a]), path_at(attr_path[ann_attr[a]]))
                a += 1

    def _burst_span(
        self, run, lo: int, hi: int, accepted: List[InferenceResult]
    ) -> None:
        """In-burst rows: bulk-record between triggering thresholds.

        The per-message path runs :meth:`_maybe_infer` after every
        withdrawal-bearing message, but the call is a no-op until the burst
        counter reaches the next trigger — and the counter's trajectory is
        pure column arithmetic (``wd_end`` deltas).  So the span is recorded
        in slices: bisect the cumulative bound column for the row where the
        counter crosses the trigger, bulk-record up to and including it, run
        the inference there, repeat.  Once an inference is accepted (or the
        schedule is exhausted) the rest of the span records in one call.
        """
        trace = run.trace
        pool = trace.pool
        wd_end = trace.wd_end
        ann_end = trace.ann_end
        times = trace.msg_time
        kernel = self._kernel
        position = lo
        while position < hi:
            if self._accepted_result is not None or self._next_trigger is None:
                self._withdrawals_in_burst += self._calculator.record_run(run, position, hi)
                return
            base = wd_end[position - 1] if position else 0
            needed = self._next_trigger - self._withdrawals_in_burst
            if needed > 0:
                row = kernel.find_crossing(wd_end, base + needed, position, hi)
            else:
                # Defensive: the schedule guarantees needed > 0 after every
                # inference, but an externally mutated trigger still stops
                # at the next withdrawal-bearing row, as per-message would.
                row = kernel.next_positive_row(wd_end, base, position, hi)
            if row >= hi:
                self._withdrawals_in_burst += self._calculator.record_run(run, position, hi)
                return
            # The trigger row itself replays the per-message order exactly:
            # its withdrawals are recorded, the inference runs, and only
            # then its announcements land — process_message applies a
            # message's announcements *after* the withdrawal branch's
            # trigger check, and an announcement clearing a withdrawal on
            # the trigger row must not be visible to the inference.
            self._withdrawals_in_burst += self._calculator.record_run(run, position, row)
            w_low = wd_end[row - 1] if row else 0
            self._withdrawals_in_burst += self._calculator.record_withdrawal_rows(
                pool, trace.wd_prefix, w_low, wd_end[row]
            )
            result = self._maybe_infer(times[row])
            if result is not None:
                accepted.append(result)
            self._fold_announcements(
                trace,
                ann_end[row - 1] if row else 0,
                ann_end[row],
                self._calculator.record_update,
            )
            position = row + 1

    def _columnar_event_row(
        self, run, row: int, event, accepted: List[InferenceResult]
    ) -> None:
        """Process the one row where the detector reported a transition.

        Replays the corresponding branch of :meth:`process_message`: a
        "start" row ages the quiet buffer, opens the burst (replaying the
        buffer), records its own withdrawals and runs the first trigger
        check; an "end" row tears the burst down and attributes its own
        withdrawals to quiet time.  Announcements on the row land wherever
        the new mode puts them.
        """
        trace = run.trace
        prefix_at = trace.pool.prefix_at
        wd_end = trace.wd_end
        ann_end = trace.ann_end
        timestamp = trace.msg_time[row]
        w_low = wd_end[row - 1] if row else 0
        w_high = wd_end[row]
        a_low = ann_end[row - 1] if row else 0
        a_high = ann_end[row]
        if not self._in_burst:
            self._expire_recent(timestamp)
        if event.kind == "start":
            self._start_burst(event.timestamp)
            if w_high > w_low:
                self._withdrawals_in_burst += self._calculator.record_withdrawal_rows(
                    trace.pool, trace.wd_prefix, w_low, w_high
                )
                result = self._maybe_infer(timestamp)
                if result is not None:
                    accepted.append(result)
            self._fold_announcements(
                trace, a_low, a_high, self._calculator.record_update
            )
        else:
            self._end_burst(event.timestamp)
            buffered = self._recent_withdrawals
            wd_prefix = trace.wd_prefix
            for index in range(w_low, w_high):
                buffered.append((timestamp, prefix_at(wd_prefix[index])))
            self._fold_announcements(trace, a_low, a_high, self._index.set_path)

    def _reset_session(self, timestamp: float) -> None:
        """A NOTIFICATION: the peer holds no routes, so the engine starts empty.

        Any tracked burst ends without an inference, the quiet-time buffer
        and the detector are reset, and the index (and so the RIB view) is
        emptied: what an engine rebuilt from the peer's Adj-RIB-In would hold.
        """
        self._end_burst(timestamp)
        self.detector.reset()
        self._index = LinkPrefixIndex(local_as=self._local_as, peer_as=self._peer_as)

    def _start_burst(self, timestamp: float) -> None:
        if self._calculator_factory is not None:
            self._calculator = self._calculator_factory(self.current_rib())
        else:
            # O(1): overlay the live index instead of rescanning the RIB.
            self._calculator = FitScoreCalculator.from_index(
                self._index, config=self.config.fit_score
            )
        self._burst_start = (
            self._recent_withdrawals[0][0] if self._recent_withdrawals else timestamp
        )
        self._withdrawals_in_burst = 0
        self._next_trigger = self.config.schedule.first_trigger
        self._accepted_result = None
        # Replay the withdrawals of the detection window: they are part of the
        # burst even though they arrived before the detector fired.
        if self._recent_withdrawals:
            replay = [prefix for _, prefix in self._recent_withdrawals]
            self._recent_withdrawals.clear()
            self._withdrawals_in_burst += self._calculator.record_withdrawals(replay)

    def _end_burst(self, timestamp: float) -> None:
        if self.history is not None and self._withdrawals_in_burst > 0:
            self.history.record_burst(self._withdrawals_in_burst)
        self._calculator = None
        self._burst_start = None
        self._withdrawals_in_burst = 0
        self._next_trigger = self.config.schedule.first_trigger
        self._recent_withdrawals.clear()

    def _maybe_infer(self, timestamp: float) -> Optional[InferenceResult]:
        if self._accepted_result is not None:
            return None
        if self._next_trigger is None:
            return None
        if self._withdrawals_in_burst < self._next_trigger:
            return None
        result = self._run_inference(timestamp, accept_always=False)
        if result is not None and result.accepted:
            return result
        self._next_trigger = self.config.schedule.next_trigger_after(
            self._withdrawals_in_burst
        )
        return None

    def _run_inference(
        self, timestamp: float, accept_always: bool
    ) -> Optional[InferenceResult]:
        assert self._calculator is not None and self._burst_start is not None
        calculator = self._calculator
        scores = calculator.all_scores()
        if not scores:
            return None

        inferred_links, best_scores = self._aggregate(calculator, scores)
        predicted = calculator.prefixes_via_links(inferred_links)
        prediction = PrefixPrediction(
            predicted_prefixes=predicted,
            already_withdrawn=calculator.withdrawn_within(predicted),
        )

        accepted = accept_always or self._accept(prediction)
        result = InferenceResult(
            timestamp=timestamp,
            withdrawals_seen=self._withdrawals_in_burst,
            inferred_links=tuple(sorted(inferred_links)),
            scores=tuple(best_scores),
            prediction=prediction,
            accepted=accepted,
            burst_start=self._burst_start,
        )
        self.results.append(result)
        if accepted and self._accepted_result is None:
            self._accepted_result = result
        return result

    def _accept(self, prediction: PrefixPrediction) -> bool:
        received = self._withdrawals_in_burst
        predicted = prediction.size
        if not self.config.schedule.accepts(received, predicted):
            return False
        if self.config.use_history and self.history is not None and len(self.history):
            # The schedule already encodes coarse plausibility; the history
            # adds a session-specific check for outlandish predictions.
            if predicted > received and not self.history.is_plausible(predicted):
                return False
        return True

    def _aggregate(
        self, calculator: FitScoreCalculator, scores: Sequence[LinkScore]
    ) -> Tuple[List[Link], List[LinkScore]]:
        """Greedy aggregation of links sharing an endpoint (§4.2).

        Starting from the best-scoring link, links are merged (best first) as
        long as they share a common endpoint with the current aggregate and
        the aggregate fit score *strictly increases* ("until the FS for all
        the aggregated links does not increase anymore", §4.2).  All
        candidates (single links or aggregates) whose score ties with the
        maximum are returned.

        The aggregate is scored incrementally: the per-link W/P counts are
        already on each candidate's :class:`LinkScore`, so each trial adds
        them to running sums instead of re-summing the whole set via
        :meth:`FitScoreCalculator.score_set` — O(1) per considered link
        instead of O(aggregate size) (ROADMAP perf idea #5).  The arithmetic
        is identical to :meth:`score_set` on distinct canonical links.
        """
        best_single = scores[0]
        tolerance = self.config.score_tolerance
        score_from_counts = calculator.score_from_counts

        aggregate_links: List[Link] = [best_single.links[0]]
        aggregate_score = best_single
        aggregate_withdrawn = best_single.withdrawn_count
        aggregate_routed = best_single.still_routed_count
        common_endpoints: Set[int] = set(best_single.links[0])
        rounds = 0
        for candidate in scores[1:]:
            if rounds >= self.config.max_aggregation_rounds:
                break
            link = candidate.links[0]
            shared = common_endpoints & set(link)
            if not shared:
                continue
            trial_links = aggregate_links + [link]
            trial_score = score_from_counts(
                trial_links,
                aggregate_withdrawn + candidate.withdrawn_count,
                aggregate_routed + candidate.still_routed_count,
            )
            if trial_score.fit_score > aggregate_score.fit_score + tolerance:
                aggregate_links = trial_links
                aggregate_score = trial_score
                aggregate_withdrawn = trial_score.withdrawn_count
                aggregate_routed = trial_score.still_routed_count
                common_endpoints = shared
                rounds += 1

        # Conservative tie handling: return every single link whose fit score
        # ties with the best observed score.
        best_value = max(aggregate_score.fit_score, best_single.fit_score)
        tied = [
            score.links[0]
            for score in scores
            if score.fit_score + tolerance >= best_value
        ]
        inferred: List[Link] = list(dict.fromkeys(aggregate_links + tied))
        reported: List[LinkScore] = [aggregate_score] if len(aggregate_links) > 1 else []
        reported.extend(
            score for score in scores if score.links[0] in set(inferred)
        )
        return inferred, reported
