"""Kernel-backend parity: stdlib reference vs numpy vectorised kernels.

Every kernel of :mod:`repro.core.kernels` is checked element-for-element
across backends on degenerate column shapes (empty run, single-row run,
all-withdrawal run, repeated identical timestamps, a burst window ending
exactly on the last row) and on randomized fuzz traces sized to cross the
numpy backend's small-input delegation threshold.  The detector kernel is
additionally checked against the per-message :class:`BurstDetector` — the
semantics both backends must reproduce, window deque included.
"""

import random
from collections import deque

import pytest

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import KeepAlive, Update
from repro.bgp.prefix import prefix_block
from repro.core import kernels
from repro.core.burst_detection import BurstDetector, BurstDetectorConfig
from repro.traces.columnar import ColumnarTrace

pytestmark = pytest.mark.kernels

NUMPY_ABSENT = "numpy" not in kernels.available_backends()

requires_numpy = pytest.mark.skipif(
    NUMPY_ABSENT, reason="numpy kernel backend not importable"
)

PREFIXES = prefix_block("10.0.0.0/24", 64)
ATTRS = PathAttributes(as_path=ASPath([2, 5, 6]), next_hop=2, local_pref=100)


def _trace(messages):
    return ColumnarTrace.from_messages(messages)


def _withdraw(timestamp, prefixes):
    return Update(timestamp=timestamp, peer_as=2, withdrawals=tuple(prefixes))


def _announce(timestamp, prefix):
    return Update.announce(timestamp, 2, prefix, ATTRS)


def _fuzz_messages(rng, count):
    """A random single-peer message stream with every row shape mixed in."""
    messages = []
    timestamp = 0.0
    for _ in range(count):
        timestamp += rng.choice([0.0, 0.0, 0.1, 0.5, 2.0, 11.0])
        roll = rng.random()
        if roll < 0.45:
            n = rng.randint(1, 4)
            messages.append(
                _withdraw(timestamp, rng.sample(PREFIXES, n))
            )
        elif roll < 0.7:
            messages.append(_announce(timestamp, rng.choice(PREFIXES)))
        elif roll < 0.8:
            n = rng.randint(1, 3)
            messages.append(
                Update(
                    timestamp=timestamp,
                    peer_as=2,
                    withdrawals=tuple(rng.sample(PREFIXES, n)),
                    announcements=(
                        Update.announce(
                            timestamp, 2, rng.choice(PREFIXES), ATTRS
                        ).announcements
                    ),
                )
            )
        elif roll < 0.9:
            messages.append(Update(timestamp=timestamp, peer_as=2))
        else:
            messages.append(KeepAlive(timestamp=timestamp, peer_as=2))
    return messages


DEGENERATE_STREAMS = {
    "empty": [],
    "single_row": [_withdraw(0.0, PREFIXES[:1])],
    "single_announcement": [_announce(0.0, PREFIXES[0])],
    "all_withdrawals": [
        _withdraw(float(i) * 0.5, [PREFIXES[i % len(PREFIXES)]]) for i in range(80)
    ],
    "identical_timestamps": [
        _withdraw(5.0, [PREFIXES[i % len(PREFIXES)]]) for i in range(60)
    ],
    # Burst starts, then quiet rows walk the window sum down so the burst
    # ends exactly on the last row of the trace.
    "window_ends_on_last_row": (
        [_withdraw(float(i) * 0.01, PREFIXES[:2]) for i in range(10)]
        + [_announce(30.0 + float(i), PREFIXES[0]) for i in range(5)]
        + [_withdraw(40.0, PREFIXES[:1])]
    ),
}

DETECTOR_CONFIGS = [
    BurstDetectorConfig(window_seconds=10.0, start_threshold=10, stop_threshold=2),
    BurstDetectorConfig(window_seconds=2.0, start_threshold=4, stop_threshold=0),
]


def _reference_detector_feed(messages, config):
    """Per-message reference: the behaviour observe_run must reproduce."""
    detector = BurstDetector(config, kernel=kernels.get_backend("stdlib"))
    events = []
    for index, message in enumerate(messages):
        if not isinstance(message, Update):
            continue
        if message.withdrawals:
            event = detector.observe_withdrawals(
                message.timestamp, len(message.withdrawals)
            )
        else:
            event = detector.observe_time(message.timestamp)
        if event is not None:
            events.append((index, event))
    return detector, events


def _run_detector(trace, config, backend, splits):
    detector = BurstDetector(config, kernel=backend)
    events = []
    position = 0
    total = len(trace.msg_time)
    for stop in list(splits) + [total]:
        stop = min(stop, total)
        if stop <= position:
            continue
        run = _Window(trace, position, stop)
        events.extend(detector.observe_run(run))
        position = stop
    return detector, events


class _Window:
    """Minimal duck-typed run: trace + row window."""

    def __init__(self, trace, start, stop):
        self.trace = trace
        self.start = start
        self.stop = stop


def _detector_state(detector):
    return (
        list(detector._window),
        detector._in_window,
        detector.state,
        detector.current_burst_start,
        detector.events,
    )


@pytest.mark.parametrize("name", sorted(DEGENERATE_STREAMS))
@pytest.mark.parametrize("config", DETECTOR_CONFIGS, ids=["w10", "w2"])
def test_detector_scan_degenerate_parity(name, config):
    messages = DEGENERATE_STREAMS[name]
    trace = _trace(messages)
    reference, expected_events = _reference_detector_feed(messages, config)
    for backend_name in kernels.available_backends():
        backend = kernels.get_backend(backend_name)
        detector, events = _run_detector(trace, config, backend, splits=[])
        assert events == expected_events, (name, backend_name)
        assert _detector_state(detector) == _detector_state(reference), (
            name,
            backend_name,
        )


@pytest.mark.parametrize("count", [0, 1, 2, 30, 47, 48, 49, 200, 400])
def test_detector_scan_fuzz_parity(count):
    for seed in range(6):
        rng = random.Random(1000 * count + seed)
        messages = _fuzz_messages(rng, count)
        trace = _trace(messages)
        config = rng.choice(DETECTOR_CONFIGS)
        splits = (
            sorted(rng.sample(range(count), min(count, rng.randint(0, 3))))
            if count
            else []
        )
        reference, expected_events = _reference_detector_feed(messages, config)
        for backend_name in kernels.available_backends():
            backend = kernels.get_backend(backend_name)
            detector, events = _run_detector(trace, config, backend, splits)
            assert events == expected_events, (count, seed, backend_name)
            assert _detector_state(detector) == _detector_state(reference), (
                count,
                seed,
                backend_name,
            )


def _column_windows(total, rng, samples=4):
    windows = [(0, total), (0, 0), (total, total)]
    if total:
        windows.append((0, 1))
        windows.append((total - 1, total))
    for _ in range(samples):
        lo = rng.randint(0, total)
        hi = rng.randint(lo, total)
        windows.append((lo, hi))
    return windows


@requires_numpy
@pytest.mark.parametrize("count", [0, 1, 30, 48, 120, 300])
def test_span_kernels_cross_backend_parity(count):
    stdlib = kernels.get_backend("stdlib")
    vectorised = kernels.get_backend("numpy")
    for seed in range(4):
        rng = random.Random(31 * count + seed)
        trace = _trace(_fuzz_messages(rng, count))
        total = len(trace.msg_time)
        kinds, wd_end, ann_end = trace.msg_kind, trace.wd_end, trace.ann_end
        for lo, hi in _column_windows(total, rng):
            assert stdlib.event_rows(kinds, wd_end, ann_end, lo, hi) == (
                vectorised.event_rows(kinds, wd_end, ann_end, lo, hi)
            )
            assert stdlib.last_update_row(kinds, lo, hi) == (
                vectorised.last_update_row(kinds, lo, hi)
            )
            if hi > lo:
                base = wd_end[lo - 1] if lo else 0
                span = wd_end[hi - 1] - base
                for value in {base, base + 1, base + span, base + span + 5}:
                    assert stdlib.find_crossing(wd_end, value, lo, hi) == (
                        vectorised.find_crossing(wd_end, value, lo, hi)
                    )
                    assert stdlib.next_positive_row(wd_end, value, lo, hi) == (
                        vectorised.next_positive_row(wd_end, value, lo, hi)
                    )


@requires_numpy
@pytest.mark.parametrize("count", [0, 1, 47, 48, 200])
def test_run_boundaries_cross_backend_parity(count):
    stdlib = kernels.get_backend("stdlib")
    vectorised = kernels.get_backend("numpy")
    for seed in range(4):
        rng = random.Random(77 * count + seed)
        messages = _fuzz_messages(rng, count)
        # Multi-peer stream: re-stamp peers to create runs.
        messages = [
            type(message)(
                **{
                    **{
                        field: getattr(message, field)
                        for field in ("timestamp", "announcements", "withdrawals")
                        if hasattr(message, field)
                    },
                    "peer_as": rng.choice([2, 3, 4]),
                }
            )
            if isinstance(message, Update)
            else message
            for message in messages
        ]
        trace = _trace(messages)
        peers = trace.msg_peer
        total = len(peers)
        for max_run in (None, 1, 7, 1000):
            assert stdlib.run_boundaries(peers, total, max_run) == (
                vectorised.run_boundaries(peers, total, max_run)
            ), (count, seed, max_run)


@requires_numpy
def test_fresh_candidate_rows_cross_backend_sets():
    """Backends may order candidates differently; the *sets* must match.

    The numpy mask is a negative cache: a row it returns once must never be
    returned again, and the stdlib reference (mask-less) deduplicates only
    within one call — so cross-call semantics are checked per backend.
    """
    stdlib = kernels.get_backend("stdlib")
    vectorised = kernels.get_backend("numpy")
    rng = random.Random(5)
    for count in (1, 30, 100, 300):
        messages = [
            _withdraw(float(i), rng.sample(PREFIXES, rng.randint(1, 5)))
            for i in range(count)
        ]
        trace = _trace(messages)
        wd_prefix = trace.wd_prefix
        total = len(wd_prefix)
        cut = total // 2
        mask = vectorised.new_seen_mask(trace.pool.prefix_count)
        first_np = vectorised.fresh_candidate_rows(mask, wd_prefix, 0, cut)
        first_py = stdlib.fresh_candidate_rows(None, wd_prefix, 0, cut)
        assert set(first_np) == set(first_py)
        assert len(first_np) == len(set(first_np))
        # Second window: rows already returned must not reappear (numpy),
        # while the mask-less stdlib reference re-reports them.
        second_np = vectorised.fresh_candidate_rows(mask, wd_prefix, cut, total)
        assert not (set(second_np) & set(first_np))
        second_py = stdlib.fresh_candidate_rows(None, wd_prefix, cut, total)
        assert set(first_np) | set(second_np) == set(first_py) | set(second_py)


def test_backend_selection_seam():
    assert kernels.get_backend("stdlib").NAME == "stdlib"
    assert kernels.get_backend(None) is kernels.default_backend()
    assert kernels.get_backend("auto") is kernels.default_backend()
    with pytest.raises(ValueError):
        kernels.get_backend("simd")
    names = kernels.available_backends()
    assert names[-1] == "stdlib"
    if NUMPY_ABSENT:
        assert kernels.numpy_version() == "absent"
        with pytest.raises(RuntimeError):
            kernels.get_backend("numpy")
    else:
        assert names[0] == "numpy"
        assert kernels.get_backend("numpy").VECTORISED
        assert kernels.numpy_version() not in ("", "absent")


def test_detector_scan_leaves_plain_python_state():
    """No numpy scalar may leak into detector state (pickling, equality)."""
    messages = DEGENERATE_STREAMS["all_withdrawals"]
    trace = _trace(messages)
    config = DETECTOR_CONFIGS[0]
    for backend_name in kernels.available_backends():
        detector, events = _run_detector(
            trace, config, kernels.get_backend(backend_name), splits=[]
        )
        for timestamp, count in detector._window:
            assert type(timestamp) is float
            assert type(count) is int
        for _, event in events:
            assert type(event.timestamp) is float
            assert type(event.withdrawals_in_window) is int
