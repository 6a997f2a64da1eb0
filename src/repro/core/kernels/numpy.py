"""The numpy kernel backend: whole-run array arithmetic over column views.

Each kernel wraps the caller's column buffers in zero-copy
``np.frombuffer`` views (the stdlib ``array`` columns of
:mod:`repro.traces.columnar` export the buffer protocol directly) and
replaces the per-row Python loop with ``np.cumsum`` / ``np.searchsorted`` /
``np.bincount`` / boolean-mask passes.  Views are strictly call-local —
holding one across a call would pin the underlying buffer and break column
writers (``array.append`` raises ``BufferError`` while exports are live) —
and every return value is plain Python (row-index lists, ints, floats), so
no numpy object ever escapes into engine state.

Parity with :mod:`repro.core.kernels.stdlib` is element-for-element on
contract-honouring columns (see the run-column contract in
``src/repro/traces/README.md``; in particular non-UPDATE rows carry no
prefixes) — asserted by ``tests/test_kernels.py`` including degenerate and
fuzzed runs, and byte-for-byte on replay signatures by
``tests/test_columnar_inference.py``.  Short inputs delegate to the stdlib
reference (same results, no array-setup overhead), so the backend never
loses on run-fragmented traces.

numpy is optional: importing this module without numpy leaves
``AVAILABLE = False`` and :func:`repro.core.kernels.get_backend` falls back
to stdlib.
"""

from __future__ import annotations

from typing import Deque, List, Optional, Tuple

from repro.core.kernels import stdlib as _stdlib

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised via tests/test_kernels_numpy_absent.py
    np = None

__all__ = [
    "AVAILABLE",
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

#: Whether numpy imported; the selection seam checks this before offering
#: the backend.
AVAILABLE = np is not None

NAME = "numpy"
VECTORISED = True

#: Below this many rows the array setup costs more than the row loop it
#: replaces; delegate to the (identical-result) stdlib reference.
_SMALL = 48

_F64 = None if np is None else np.float64
_U32 = None if np is None else np.uint32
_U8 = None if np is None else np.uint8
_I64 = None if np is None else np.int64


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
    """Vectorised twin of :func:`repro.core.kernels.stdlib.detector_scan`.

    The key observation: which entries the sliding window holds at row
    ``r`` is *state-independent*.  Appended entries are exactly the
    ``(timestamp, count)`` pairs of withdrawal-bearing UPDATE rows — a
    quiet detector observes precisely those rows, a bursting one observes
    every UPDATE row but appends nothing for zero counts — and expiry
    (strict ``<`` against ``timestamp - window_seconds``) is monotone, so
    deferring it is unobservable.  The whole run's window sums therefore
    come from one ``cumsum`` + ``searchsorted`` pass (plus a suffix-sum fix
    for the carried-in deque), and the only sequential part left is the
    alternating quiet/bursting walk over the two transition masks, which
    touches O(transitions) rows instead of O(rows).
    """
    if stop - start < _SMALL:
        return _stdlib.detector_scan(
            times, kinds, wd_end, start, stop, window, in_window, bursting,
            window_seconds, start_threshold, stop_threshold,
        )
    t = np.frombuffer(times, _F64)[start:stop]
    k = np.frombuffer(kinds, _U8)[start:stop]
    we = np.frombuffer(wd_end, _U32)
    upd = k == 0
    upd_idx = np.flatnonzero(upd)
    if upd_idx.size == 0:
        # No UPDATE rows: the per-message path would not observe anything.
        return [], in_window, bursting
    cursor0 = int(we[start - 1]) if start else 0
    counts = np.diff(we[start:stop].astype(_I64), prepend=cursor0)
    counts[~upd] = 0
    positive_idx = np.flatnonzero(counts > 0)

    # Window sum after observing row r: carried-in entries surviving the
    # horizon t[r] - window_seconds, plus in-run entries [left[r], r].
    horizons = t - window_seconds
    csum0 = np.concatenate(([0], np.cumsum(counts)))
    left = np.searchsorted(t, horizons, side="left")
    win = csum0[1:] - csum0[left]
    ct = cc = cpre = None
    if window:
        ct = np.fromiter((entry[0] for entry in window), _F64, len(window))
        cc = np.fromiter((entry[1] for entry in window), _I64, len(window))
        cpre = np.concatenate(([0], np.cumsum(cc)))
        cpos = np.searchsorted(ct, horizons, side="left")
        win = win + (cpre[-1] - cpre[cpos])

    # A quiet detector can only transition on an observation (a
    # withdrawal-bearing row); a bursting one checks after every UPDATE row.
    starts = np.flatnonzero((counts > 0) & (win >= start_threshold))
    ends = np.flatnonzero(upd & (win <= stop_threshold))

    transitions: List[Tuple[int, str, float, int, Optional[float]]] = []
    pos = 0
    while True:
        if not bursting:
            i = int(np.searchsorted(starts, pos, side="left"))
            if i == starts.size:
                break
            p = int(starts[i])
            # burst_start: the window's oldest surviving entry at p — the
            # carry head if any survives, else the first surviving
            # withdrawal-bearing row (p itself qualifies, so one exists).
            burst_start = None
            if window:
                j = int(np.searchsorted(ct, horizons[p], side="left"))
                if j < ct.size:
                    burst_start = float(ct[j])
            if burst_start is None:
                j = int(np.searchsorted(positive_idx, left[p], side="left"))
                burst_start = float(t[positive_idx[j]])
            transitions.append(
                (start + p, "start", float(t[p]), int(win[p]), burst_start)
            )
            bursting = True
        else:
            i = int(np.searchsorted(ends, pos, side="left"))
            if i == ends.size:
                break
            p = int(ends[i])
            transitions.append((start + p, "end", float(t[p]), int(win[p]), None))
            bursting = False
        pos = p + 1

    # Final deque state: expire through the last UPDATE row's horizon (the
    # last row the per-message path observes), keep surviving carry entries
    # (original tuples, bit-exact) plus surviving in-run appends.
    final_horizon = float(t[upd_idx[-1]]) - window_seconds
    in_window = 0
    entries: List[Tuple[float, int]] = []
    if window:
        j = int(np.searchsorted(ct, final_horizon, side="left"))
        if j < len(window):
            entries.extend(list(window)[j:])
            in_window += int(cpre[-1] - cpre[j])
    surviving = positive_idx[t[positive_idx] >= final_horizon]
    if surviving.size:
        surviving_counts = counts[surviving]
        entries.extend(
            zip(t[surviving].tolist(), surviving_counts.tolist())
        )
        in_window += int(surviving_counts.sum())
    window.clear()
    window.extend(entries)
    return transitions, in_window, bursting


# -- fit-score folds ---------------------------------------------------------

def new_seen_mask(size: int):
    """A per-burst boolean mask over the pool's prefix rows."""
    return np.zeros(size, dtype=np.bool_)


def fresh_candidate_rows(mask, wd_prefix, lo: int, hi: int):
    """Distinct not-yet-marked prefix rows of ``wd_prefix[lo:hi]``.

    One gather + boolean-scatter pass: rows already marked in ``mask``
    (previously folded by this burst) are dropped at array speed, the rest
    are deduplicated through a scratch mask (no sort), marked, and returned
    sorted — as a numpy index array, which stays in array space until the
    caller's deferred fold flattens it (:func:`flatten_rows`).
    """
    sel = np.frombuffer(wd_prefix, _U32)[lo:hi]
    fresh = sel[~mask[sel]]
    if fresh.size == 0:
        return []
    scratch = np.zeros(mask.shape[0], dtype=np.bool_)
    scratch[fresh] = True
    result = np.flatnonzero(scratch)
    mask[result] = True
    return result


def flatten_rows(batches) -> List[int]:
    """Concatenate row-index batches into one plain Python int list.

    The deferred fit-score fold accumulates the per-window results of
    :func:`fresh_candidate_rows` and flattens them only when a query
    actually materialises the burst state; batches are this backend's
    index arrays, so the flatten is one ``concatenate`` + ``tolist``.
    """
    if len(batches) == 1:
        only = batches[0]
        return only.tolist() if isinstance(only, np.ndarray) else list(only)
    return np.concatenate([np.asarray(batch, _I64) for batch in batches]).tolist()


# -- span walking ------------------------------------------------------------

def _increment_mask(wd_end, ann_end, lo: int, hi: int):
    we = np.frombuffer(wd_end, _U32)
    ae = np.frombuffer(ann_end, _U32)
    w = we[lo:hi]
    a = ae[lo:hi]
    if lo:
        return (w > we[lo - 1 : hi - 1]) | (a > ae[lo - 1 : hi - 1])
    mask = np.empty(hi - lo, dtype=np.bool_)
    mask[0] = bool(w[0]) or bool(a[0])
    if hi - lo > 1:
        np.greater(w[1:], w[:-1], out=mask[1:])
        mask[1:] |= a[1:] > a[:-1]
    return mask


def event_rows(kinds, wd_end, ann_end, lo: int, hi: int) -> List[int]:
    """Rows of ``[lo, hi)`` carrying withdrawals or announcements."""
    if hi - lo < _SMALL:
        return _stdlib.event_rows(kinds, wd_end, ann_end, lo, hi)
    mask = _increment_mask(wd_end, ann_end, lo, hi)
    return (np.flatnonzero(mask) + lo).tolist()


def last_update_row(kinds, lo: int, hi: int) -> Optional[int]:
    """The last row of ``[lo, hi)`` with kind byte 0, or ``None``."""
    if hi <= lo:
        return None
    if kinds[hi - 1] == 0:  # the overwhelmingly common case
        return hi - 1
    if hi - lo < _SMALL:
        return _stdlib.last_update_row(kinds, lo, hi)
    upd = np.flatnonzero(np.frombuffer(kinds, _U8)[lo:hi] == 0)
    if upd.size == 0:
        return None
    return int(upd[-1]) + lo


def find_crossing(cumulative, value: int, lo: int, hi: int) -> int:
    """First row in ``[lo, hi)`` whose cumulative bound reaches ``value``."""
    if hi - lo < _SMALL:
        return _stdlib.find_crossing(cumulative, value, lo, hi)
    view = np.frombuffer(cumulative, _U32)
    return lo + int(np.searchsorted(view[lo:hi], value, side="left"))


def next_positive_row(cumulative, base: int, lo: int, hi: int) -> int:
    """First row in ``[lo, hi)`` whose cumulative bound exceeds ``base``."""
    if hi - lo < _SMALL:
        return _stdlib.next_positive_row(cumulative, base, lo, hi)
    view = np.frombuffer(cumulative, _U32)
    return lo + int(np.searchsorted(view[lo:hi], base, side="right"))


# -- run segmentation --------------------------------------------------------

def run_boundaries(
    peers, total: int, max_run: Optional[int] = None
) -> List[Tuple[int, int]]:
    """Consecutive same-peer windows via one vectorised neighbour compare."""
    if total < _SMALL:
        return _stdlib.run_boundaries(peers, total, max_run)
    view = np.frombuffer(peers, _I64)[:total]
    breaks = (np.flatnonzero(view[1:] != view[:-1]) + 1).tolist()
    edges = [0] + breaks + [total]
    boundaries: List[Tuple[int, int]] = []
    append = boundaries.append
    for seg_start, seg_stop in zip(edges, edges[1:]):
        if max_run is None or seg_stop - seg_start <= max_run:
            append((seg_start, seg_stop))
        else:
            for cut in range(seg_start, seg_stop, max_run):
                append((cut, min(cut + max_run, seg_stop)))
    return boundaries
