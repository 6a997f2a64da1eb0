"""The stdlib kernel backend: the original bisect/Counter hot loops.

Extracted verbatim from :meth:`BurstDetector.observe_run`, the
:meth:`FitScoreCalculator.record_run` fast path, the engine's span walking
and :meth:`ColumnarTrace.iter_batches` — this module is the *parity
reference* every other backend is checked against — the one reference
twin that ships in the package, because it is also the only backend that
runs where numpy is absent.  It is always importable (no third-party
dependencies) and is what :func:`repro.core.kernels.get_backend` falls back
to when numpy is absent.

Kernel contract (see ``src/repro/core/README.md``): kernels read immutable
column views (any buffer-backed integer/float sequence honouring the
run-column contract of ``src/repro/traces/README.md``) and return plain row
indices, counts and Python scalars.  They never touch an interning table —
materialising interned objects is the caller's job.  The one piece of
mutable state a kernel owns is the detector's sliding-window deque (passed
in, left in exactly the state the per-message path would produce) and the
opaque seen-row masks handed back by :func:`new_seen_mask`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Deque, List, Optional, Tuple

__all__ = [
    "NAME",
    "VECTORISED",
    "detector_scan",
    "event_rows",
    "find_crossing",
    "flatten_rows",
    "fresh_candidate_rows",
    "last_update_row",
    "next_positive_row",
    "new_seen_mask",
    "run_boundaries",
]

#: Backend name, recorded in benchmark payloads and test ids.
NAME = "stdlib"

#: Whether the backend pays off on whole-run array arithmetic.  The callers
#: use this to keep their original dense row loops (which this module's
#: functions mirror) when the backend cannot beat them.
VECTORISED = False


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
    window_seconds: float,
    start_threshold: int,
    stop_threshold: int,
) -> Tuple[List[Tuple[int, str, float, int, Optional[float]]], int, bool]:
    """Sliding-window scan of one run; the detector's hot loop.

    Walks rows ``[start, stop)`` of the (whole-trace cumulative) columns
    exactly as the per-message detector would: a quiet detector skips
    straight to the next withdrawal-bearing row with one bisect, a bursting
    one observes every UPDATE row.  ``window`` (time-ordered ``(timestamp,
    count)`` entries) is mutated in place and left exactly as per-message
    calls would leave it; ``in_window``/``bursting`` are the scalar state.

    Returns ``(transitions, in_window, bursting)`` where each transition is
    ``(row, kind, timestamp, count_in_window, burst_start)`` — ``kind`` is
    ``"start"`` or ``"end"`` and ``burst_start`` (the window's oldest
    surviving timestamp) is only meaningful on ``"start"``.
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
                if high > cursor:
                    window_append((timestamp, high - cursor))
                    in_window += high - cursor
                horizon = timestamp - window_seconds
                while window and window[0][0] < horizon:
                    in_window -= window_pop()[1]
                cursor = high
                index += 1
                if in_window <= stop_threshold:
                    bursting = False
                    transitions.append((index - 1, "end", timestamp, in_window, None))
                    break
    return transitions, in_window, bursting


# -- fit-score folds ---------------------------------------------------------

def new_seen_mask(size: int):
    """An opaque per-burst seen-row mask; this backend never uses one."""
    return None


def fresh_candidate_rows(mask, wd_prefix, lo: int, hi: int) -> List[int]:
    """Deduplicated prefix rows of the withdrawal window ``[lo, hi)``.

    Returns the distinct entries of ``wd_prefix[lo:hi]`` not already marked
    in ``mask``, marking them; callers re-check the returned candidates
    against their (authoritative) seen *sets*, so the mask is purely a
    negative cache.  With this backend's ``mask is None`` the dedup is a
    plain first-occurrence pass.
    """
    seen_rows = set()
    seen_add = seen_rows.add
    ordered: List[int] = []
    append = ordered.append
    for row in wd_prefix[lo:hi]:
        if row not in seen_rows:
            seen_add(row)
            append(row)
    return ordered


def flatten_rows(batches) -> List[int]:
    """Concatenate row-index batches into one plain Python int list."""
    if len(batches) == 1:
        return list(batches[0])
    flat: List[int] = []
    for batch in batches:
        flat.extend(batch)
    return flat


# -- span walking ------------------------------------------------------------

def event_rows(kinds, wd_end, ann_end, lo: int, hi: int) -> List[int]:
    """Rows of ``[lo, hi)`` carrying withdrawals or announcements."""
    rows: List[int] = []
    append = rows.append
    w = wd_end[lo - 1] if lo else 0
    a = ann_end[lo - 1] if lo else 0
    for row in range(lo, hi):
        w_high = wd_end[row]
        a_high = ann_end[row]
        if w_high > w or a_high > a:
            append(row)
            w = w_high
            a = a_high
    return rows


def last_update_row(kinds, lo: int, hi: int) -> Optional[int]:
    """The last row of ``[lo, hi)`` with kind byte 0, or ``None``."""
    for row in range(hi - 1, lo - 1, -1):
        if kinds[row] == 0:
            return row
    return None


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
