"""The column kernels: bisect-based loops over raw trace columns.

Extracted from :meth:`BurstDetector.observe_run`, the engine's trigger
location and :meth:`ColumnarTrace.iter_batches`.  Standard library only.

Kernel contract (see ``src/repro/core/README.md``): kernels read immutable
column views (any buffer-backed integer/float sequence honouring the
run-column contract of ``src/repro/traces/README.md``) and return plain row
indices, counts and Python scalars.  They never touch an interning table —
materialising interned objects is the caller's job.  The one piece of
mutable state a kernel owns is the detector's sliding-window deque (passed
in, left in exactly the state the per-message path would produce).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Deque, List, Optional, Tuple

__all__ = [
    "NAME",
    "detector_scan",
    "find_crossing",
    "next_positive_row",
    "run_boundaries",
]

#: Backend name, recorded in benchmark payloads.
NAME = "stdlib"


# -- burst detection ---------------------------------------------------------

def detector_scan(
    times,
    kinds,
    wd_end,
    start: int,
    stop: int,
    window: Deque[Tuple[float, int]],
    in_window: int,
    bursting: bool,
    last_withdrawal: Optional[float],
    window_seconds: float,
    start_threshold: int,
    stop_threshold: int,
) -> Tuple[
    List[Tuple[int, str, float, int, Optional[float]]], int, bool, Optional[float]
]:
    """Sliding-window scan of one run; the detector's hot loop.

    Walks rows ``[start, stop)`` of the (whole-trace cumulative) columns
    exactly as the per-message detector would: a quiet detector skips
    straight to the next withdrawal-bearing row with one bisect, a bursting
    one observes every UPDATE row.  ``window`` (time-ordered ``(timestamp,
    count)`` entries) is mutated in place and left exactly as per-message
    calls would leave it; ``in_window``/``bursting`` and ``last_withdrawal``
    (the current burst's last withdrawal timestamp) are the scalar state.

    Returns ``(transitions, in_window, bursting, last_withdrawal)`` where
    each transition is ``(row, kind, timestamp, count_in_window,
    burst_start)`` — ``kind`` is ``"start"`` or ``"end"`` and
    ``burst_start`` (the window's oldest surviving timestamp) is only
    meaningful on ``"start"``.  An ``"end"`` is stamped with the burst's
    last withdrawal plus ``window_seconds``, capped by its row's timestamp.
    """
    transitions: List[Tuple[int, str, float, int, Optional[float]]] = []
    window_append = window.append
    window_pop = window.popleft
    index = start
    cursor = wd_end[start - 1] if start else 0
    while index < stop:
        if not bursting:
            # Skip straight to the next withdrawal-bearing row.  Rows in
            # between only expire window entries, which the bisect makes
            # implicit: expiry is monotone in the timestamp, so deferring
            # it to the next observation leaves identical window state.
            row = bisect_right(wd_end, cursor, index, stop)
            if row >= stop:
                # Trailing quiet rows: expire through the last UPDATE
                # timestamp so the window state matches the per-message
                # path at the run boundary.
                if window:
                    last = stop - 1
                    while last >= index and kinds[last] != 0:
                        last -= 1
                    if last >= index:
                        horizon = times[last] - window_seconds
                        while window and window[0][0] < horizon:
                            in_window -= window_pop()[1]
                break
            timestamp = times[row]
            count = wd_end[row] - cursor
            window_append((timestamp, count))
            in_window += count
            horizon = timestamp - window_seconds
            while window and window[0][0] < horizon:
                in_window -= window_pop()[1]
            cursor = wd_end[row]
            if in_window >= start_threshold:
                bursting = True
                burst_start = window[0][0] if window else timestamp
                transitions.append((row, "start", timestamp, in_window, burst_start))
                last_withdrawal = timestamp
            index = row + 1
        else:
            # Bursting: per-row window arithmetic, inlined — the end
            # transition may fire on any UPDATE row, so every row is
            # observed, but without per-row method dispatch.
            while index < stop:
                high = wd_end[index]
                if kinds[index] != 0:
                    cursor = high
                    index += 1
                    continue
                timestamp = times[index]
                count = high - cursor
                if count:
                    window_append((timestamp, count))
                    in_window += count
                horizon = timestamp - window_seconds
                while window and window[0][0] < horizon:
                    in_window -= window_pop()[1]
                cursor = high
                index += 1
                if in_window <= stop_threshold:
                    bursting = False
                    end = min(last_withdrawal + window_seconds, timestamp)
                    transitions.append((index - 1, "end", end, in_window, None))
                    break
                if count:
                    last_withdrawal = timestamp
    return transitions, in_window, bursting, last_withdrawal


# -- trigger location --------------------------------------------------------

def find_crossing(cumulative, value: int, lo: int, hi: int) -> int:
    """First row in ``[lo, hi)`` whose cumulative bound reaches ``value``."""
    return bisect_left(cumulative, value, lo, hi)


def next_positive_row(cumulative, base: int, lo: int, hi: int) -> int:
    """First row in ``[lo, hi)`` whose cumulative bound exceeds ``base``."""
    return bisect_right(cumulative, base, lo, hi)


# -- run segmentation --------------------------------------------------------

def run_boundaries(
    peers, total: int, max_run: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Consecutive same-peer windows ``(start, stop)`` over ``peers``.

    ``max_run`` caps window length, exactly as
    :meth:`~repro.traces.columnar.ColumnarTrace.iter_batches` documents.
    """
    boundaries: List[Tuple[int, int]] = []
    append = boundaries.append
    start = 0
    while start < total:
        peer = peers[start]
        stop = start + 1
        if max_run is None:
            while stop < total and peers[stop] == peer:
                stop += 1
        else:
            limit = min(total, start + max_run)
            while stop < limit and peers[stop] == peer:
                stop += 1
        append((start, stop))
        start = stop
    return boundaries
