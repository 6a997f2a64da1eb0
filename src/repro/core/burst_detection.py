"""Burst detection (§2.2.1, §4.1): the one definition of a burst.

"SWIFT monitors the received input stream of BGP messages, looking for
significant increases in the frequency of withdrawals.  It classifies a set
of messages as the beginning of a burst when such frequency (say, number of
withdrawals per 10 seconds) in the input stream is higher than the 99.99th
percentile recorded in the recent history (e.g., during the previous month)."

§2.2.1 measures bursts the same way: "a 10 s sliding window: a burst starts
(resp. stops) when the number of withdrawals contained in the window is
above (resp. below) a given threshold", 1,500 and 9 withdrawals.

:class:`BurstDetector` keeps that sliding window and reports burst start /
end transitions, on the per-message path and on the column path
(:meth:`BurstDetector.observe_run`) alike.  A burst ends when its window
drains: the ``end`` event fires on the row that observes the drain, and is
stamped with the burst's last withdrawal plus ``window_seconds``, capped by
that row's timestamp — the observing row is not part of the burst.
:func:`extract_bursts` is the offline measurement (Fig. 2) over the same
detector, so the run-time and measurement paths share one definition.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace
from typing import Deque, List, NamedTuple, Optional, Tuple

from repro.core import kernels

__all__ = [
    "Burst",
    "BurstDetector",
    "BurstDetectorConfig",
    "BurstEvent",
    "BurstState",
    "extract_bursts",
]


class BurstState(Enum):
    """Whether the detector currently believes a burst is in progress."""

    QUIET = "quiet"
    BURSTING = "bursting"


@dataclass(frozen=True)
class BurstEvent:
    """A state transition reported by the detector."""

    kind: str  # "start" or "end"
    timestamp: float
    withdrawals_in_window: int


@dataclass(frozen=True)
class BurstDetectorConfig:
    """Detection thresholds.

    ``start_threshold`` is the number of withdrawals per window above which a
    burst starts; the paper uses the 99.99th percentile of the recent history,
    which over its dataset equals 1,500 withdrawals per 10 s.  ``stop_threshold``
    (9, the 90th percentile) ends the burst.
    """

    window_seconds: float = 10.0
    start_threshold: int = 1500
    stop_threshold: int = 9

    def __post_init__(self) -> None:
        if self.window_seconds <= 0:
            raise ValueError("window_seconds must be positive")
        if self.start_threshold <= 0:
            raise ValueError("start_threshold must be positive")
        if self.stop_threshold < 0:
            raise ValueError("stop_threshold must be non-negative")
        if self.stop_threshold >= self.start_threshold:
            raise ValueError("stop_threshold must be below start_threshold")


class BurstDetector:
    """Sliding-window withdrawal-rate detector."""

    def __init__(
        self,
        config: Optional[BurstDetectorConfig] = None,
        kernel=None,
    ) -> None:
        self.config = config or BurstDetectorConfig()
        self._kernel = kernel if kernel is not None else kernels.default_backend()
        self._window: Deque[Tuple[float, int]] = deque()
        self._in_window = 0
        self.state = BurstState.QUIET
        self.current_burst_start: Optional[float] = None
        # Timestamp of the current burst's last withdrawal (stamps its end).
        self._last_withdrawal: Optional[float] = None
        self.events: List[BurstEvent] = []

    # -- feeding ------------------------------------------------------------

    def observe_withdrawals(self, timestamp: float, count: int = 1) -> Optional[BurstEvent]:
        """Record ``count`` withdrawals at ``timestamp``; return a transition if any."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._window.append((timestamp, count))
        self._in_window += count
        self._expire(timestamp)
        event = self._transition(timestamp)
        if self.state is BurstState.BURSTING:
            self._last_withdrawal = timestamp
        return event

    def observe_time(self, timestamp: float) -> Optional[BurstEvent]:
        """Advance time without new withdrawals (lets quiet periods end bursts)."""
        self._expire(timestamp)
        return self._transition(timestamp)

    def observe_run(self, run) -> List[Tuple[int, BurstEvent]]:
        """Feed a columnar run; return ``(message index, event)`` transitions.

        Equivalent to calling :meth:`observe_withdrawals` for every UPDATE
        row of the run that carries withdrawals and :meth:`observe_time` for
        every other UPDATE row, in row order — the contract the inference
        engine's per-message path lives by — but driven by window arithmetic
        over the run's raw columns: a quiet detector cannot transition on a
        zero-count observation, so quiet stretches are skipped with one
        bisect over the cumulative withdrawal-bound column instead of a call
        per row.  Non-UPDATE rows are ignored; the inference engine resets
        the detector at a NOTIFICATION, so it never passes a run that
        crosses a NOTIFICATION row.

        ``run`` is duck-typed (no import of the traces layer): it must carry
        ``trace``/``start``/``stop``, the interface documented in
        :mod:`repro.traces.columnar`.  The detector's state (sliding window,
        ``events`` log, ``current_burst_start``) ends up exactly as after
        the per-message calls.

        The scan itself is a kernel
        (:func:`repro.core.kernels.stdlib.detector_scan`): the kernel walks
        the raw columns and reports the transitions plus the final window
        state; this method folds them back into detector state and
        :class:`BurstEvent` objects.
        """
        trace = run.trace
        config = self.config
        (
            transitions,
            self._in_window,
            bursting,
            self._last_withdrawal,
        ) = self._kernel.detector_scan(
            trace.msg_time,
            trace.msg_kind,
            trace.wd_end,
            run.start,
            run.stop,
            self._window,
            self._in_window,
            self.state is BurstState.BURSTING,
            self._last_withdrawal,
            config.window_seconds,
            config.start_threshold,
            config.stop_threshold,
        )
        events: List[Tuple[int, BurstEvent]] = []
        for row, kind, timestamp, count, burst_start in transitions:
            event = BurstEvent(kind, timestamp, count)
            self.events.append(event)
            events.append((row, event))
            self.current_burst_start = burst_start if kind == "start" else None
        self.state = BurstState.BURSTING if bursting else BurstState.QUIET
        return events

    # -- queries ------------------------------------------------------------

    @property
    def withdrawals_in_window(self) -> int:
        """Withdrawals currently inside the sliding window."""
        return self._in_window

    @property
    def is_bursting(self) -> bool:
        """True while a burst is in progress."""
        return self.state == BurstState.BURSTING

    def reset(self) -> None:
        """Forget all state (used when a session resets)."""
        self._window.clear()
        self._in_window = 0
        self.state = BurstState.QUIET
        self.current_burst_start = None
        self._last_withdrawal = None

    # -- internals ------------------------------------------------------------

    def _expire(self, now: float) -> None:
        horizon = now - self.config.window_seconds
        while self._window and self._window[0][0] < horizon:
            _, count = self._window.popleft()
            self._in_window -= count

    def _transition(self, timestamp: float) -> Optional[BurstEvent]:
        if self.state == BurstState.QUIET and self._in_window >= self.config.start_threshold:
            self.state = BurstState.BURSTING
            start = self._window[0][0] if self._window else timestamp
            self.current_burst_start = start
            event = BurstEvent("start", timestamp, self._in_window)
            self.events.append(event)
            return event
        if self.state == BurstState.BURSTING and self._in_window <= self.config.stop_threshold:
            self.state = BurstState.QUIET
            self.current_burst_start = None
            # The window drained after the burst's last withdrawal; the row
            # observing that is not part of the burst.
            end = min(self._last_withdrawal + self.config.window_seconds, timestamp)
            event = BurstEvent("end", end, self._in_window)
            self.events.append(event)
            return event
        return None


class Burst(NamedTuple):
    """One burst measured by :func:`extract_bursts`.

    ``first_row`` and ``last_row`` are the trace rows of the burst's first
    and last withdrawal; ``size`` counts the withdrawals from one to the
    other and ``duration`` is the time between them (§2.2.1).
    """

    first_row: int
    last_row: int
    start_time: float
    duration: float
    size: int


def extract_bursts(
    trace, config: Optional[BurstDetectorConfig] = None
) -> List[Burst]:
    """Every burst of one session's columnar trace, in time order.

    Runs :meth:`BurstDetector.observe_run` over the trace, resetting the
    detector at NOTIFICATION rows as the inference engine does, and pairs
    each start event with its end event.  A burst starts at the oldest
    withdrawal in the window that started it (never before the row that
    ended the previous burst) and ends at its last withdrawal before the row
    that observed the end; a burst still open at a reset or at the end of
    the trace closes at its last withdrawal.  ``trace`` is duck-typed: the
    ``msg_time`` / ``msg_kind`` / ``wd_end`` columns of a
    :class:`~repro.traces.columnar.ColumnarTrace` holding one session.
    """
    detector = BurstDetector(config)
    window_seconds = detector.config.window_seconds
    times, wd_end = trace.msg_time, trace.wd_end
    bursts: List[Burst] = []

    def close(first: int, stop: int) -> None:
        last = bisect_left(wd_end, wd_end[stop - 1], first, stop)
        size = wd_end[last] - (wd_end[first - 1] if first else 0)
        bursts.append(
            Burst(first, last, times[first], times[last] - times[first], size)
        )

    position, total = 0, len(times)
    while position < total:
        try:
            reset = trace.msg_kind.index(3, position, total)  # 3 = NOTIFICATION
        except ValueError:
            reset = total
        floor, first = position, None
        run = SimpleNamespace(trace=trace, start=position, stop=reset)
        for row, event in detector.observe_run(run):
            if event.kind == "start":
                first = bisect_left(times, times[row] - window_seconds, floor, row)
                base = wd_end[first - 1] if first else 0
                first = bisect_right(wd_end, base, first, row)
            else:
                close(first, row)
                floor, first = row, None
        if first is not None:
            close(first, reset)
        detector.reset()
        position = reset + 1
    return bursts
