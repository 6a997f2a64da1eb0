"""On-line burst detection (§4.1).

"SWIFT monitors the received input stream of BGP messages, looking for
significant increases in the frequency of withdrawals.  It classifies a set
of messages as the beginning of a burst when such frequency (say, number of
withdrawals per 10 seconds) in the input stream is higher than the 99.99th
percentile recorded in the recent history (e.g., during the previous month)."

:class:`BurstDetector` keeps a sliding window of recent withdrawals, compares
the in-window count against a threshold (either given explicitly or learnt
from history), and tracks burst start / end transitions.  The end of a burst
uses the lower stop threshold of §2.2.1 so that the two detection paths
(measurement and run-time) share one definition.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, List, Optional, Tuple

from repro.core import kernels

__all__ = ["BurstDetector", "BurstDetectorConfig", "BurstEvent", "BurstState"]


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
        self.events: List[BurstEvent] = []

    # -- feeding ------------------------------------------------------------

    def observe_withdrawals(self, timestamp: float, count: int = 1) -> Optional[BurstEvent]:
        """Record ``count`` withdrawals at ``timestamp``; return a transition if any."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._window.append((timestamp, count))
        self._in_window += count
        self._expire(timestamp)
        return self._transition(timestamp)

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
        transitions, self._in_window, bursting = self._kernel.detector_scan(
            trace.msg_time,
            trace.msg_kind,
            trace.wd_end,
            run.start,
            run.stop,
            self._window,
            self._in_window,
            self.state is BurstState.BURSTING,
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
            event = BurstEvent("end", timestamp, self._in_window)
            self.events.append(event)
            return event
        return None
