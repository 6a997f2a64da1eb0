"""Column-kernel checks: the detector scan against per-message detection.

The detector kernel behind :meth:`BurstDetector.observe_run` is checked
against the per-message :class:`BurstDetector` — window deque, state and
event log (end timestamps included) — on degenerate column shapes (empty
run, single-row run, all-withdrawal run, repeated identical timestamps, a
burst window ending exactly on the last row, a lone withdrawal long after a
burst, a burst followed only by announcements) and on randomized fuzz
traces split into runs at random rows.  The trigger-location and run-segmentation kernels are
checked against linear-scan definitions on the same fuzz traces.  Every
kernel call in those checks goes through :data:`CHECKED`, which asserts
that the kernel left its column arguments unchanged: kernels read columns,
and only the detector's ``window`` deque is theirs to change.  The
backend-selection seam the benchmarks rely on is pinned here too, at every
entry point that takes a backend name or module.
"""

import random
from itertools import groupby
from types import SimpleNamespace

import pytest

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import KeepAlive, Update
from repro.bgp.prefix import prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.core import SwiftConfig, SwiftedRouter, kernels
from repro.core.burst_detection import BurstDetector, BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.experiments.month_replay import replay_stream
from repro.traces.columnar import ColumnarTrace

PREFIXES = prefix_block("10.0.0.0/24", 64)
ATTRS = PathAttributes(as_path=ASPath([2, 5, 6]), next_hop=2, local_pref=100)


def _column_checked(kernel, columns):
    """``kernel``, asserting that its first ``columns`` arguments survive."""

    def checked(*args):
        before = [list(column) for column in args[:columns]]
        result = kernel(*args)
        assert [list(column) for column in args[:columns]] == before, kernel.__name__
        return result

    return checked


_BACKEND = kernels.default_backend()
#: The kernels, each asserting that no call writes a column argument.
CHECKED = SimpleNamespace(
    detector_scan=_column_checked(_BACKEND.detector_scan, 3),
    find_crossing=_column_checked(_BACKEND.find_crossing, 1),
    next_positive_row=_column_checked(_BACKEND.next_positive_row, 1),
    run_boundaries=_column_checked(_BACKEND.run_boundaries, 1),
)


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
    # A burst, then one withdrawal long after it: the end is stamped at the
    # window's drain, and the late withdrawal is not part of the burst.
    "lone_withdrawal_after_gap": (
        [_withdraw(float(i) * 0.05, PREFIXES[i : i + 1]) for i in range(20)]
        + [_withdraw(1000.0, PREFIXES[:1])]
    ),
    # A burst followed only by announcement rows, which observe the drain.
    "burst_then_announcements": (
        [_withdraw(float(i) * 0.05, PREFIXES[i : i + 1]) for i in range(20)]
        + [_announce(5.0 + 7.0 * i, PREFIXES[0]) for i in range(5)]
    ),
}

DETECTOR_CONFIGS = [
    BurstDetectorConfig(window_seconds=10.0, start_threshold=10, stop_threshold=2),
    BurstDetectorConfig(window_seconds=2.0, start_threshold=4, stop_threshold=0),
]


def _reference_detector_feed(messages, config):
    """Per-message reference: the behaviour observe_run must reproduce."""
    detector = BurstDetector(config)
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


def _run_detector(trace, config, splits, kernel=CHECKED):
    detector = BurstDetector(config, kernel=kernel)
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
        detector._last_withdrawal,
        detector.events,
    )


@pytest.mark.parametrize("name", sorted(DEGENERATE_STREAMS))
@pytest.mark.parametrize("config", DETECTOR_CONFIGS, ids=["w10", "w2"])
def test_detector_scan_degenerate_parity(name, config):
    messages = DEGENERATE_STREAMS[name]
    trace = _trace(messages)
    reference, expected_events = _reference_detector_feed(messages, config)
    detector, events = _run_detector(trace, config, splits=[])
    assert events == expected_events, name
    assert _detector_state(detector) == _detector_state(reference), name


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
        detector, events = _run_detector(trace, config, splits)
        assert events == expected_events, (count, seed)
        assert _detector_state(detector) == _detector_state(reference), (count, seed)


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


def _first_row(cumulative, lo, hi, predicate):
    """Linear-scan definition: first row in ``[lo, hi)`` meeting ``predicate``."""
    for row in range(lo, hi):
        if predicate(cumulative[row]):
            return row
    return hi


@pytest.mark.parametrize("count", [0, 1, 30, 48, 120, 300])
def test_trigger_kernels_match_linear_scan(count):
    for seed in range(4):
        rng = random.Random(31 * count + seed)
        trace = _trace(_fuzz_messages(rng, count))
        total = len(trace.msg_time)
        for cumulative in (trace.wd_end, trace.ann_end):
            for lo, hi in _column_windows(total, rng):
                base = cumulative[lo - 1] if lo else 0
                span = (cumulative[hi - 1] - base) if hi > lo else 0
                for value in {base, base + 1, base + span, base + span + 5}:
                    assert CHECKED.find_crossing(
                        cumulative, value, lo, hi
                    ) == _first_row(cumulative, lo, hi, lambda c: c >= value), (
                        count, seed, lo, hi, value
                    )
                    assert CHECKED.next_positive_row(
                        cumulative, value, lo, hi
                    ) == _first_row(cumulative, lo, hi, lambda c: c > value), (
                        count, seed, lo, hi, value
                    )


def _linear_split(peers, max_run):
    """Same-peer groups, each cut into pieces of at most ``max_run`` rows."""
    windows = []
    start = 0
    for _, group in groupby(peers):
        stop = start + len(list(group))
        step = max_run or (stop - start)
        for piece in range(start, stop, step):
            windows.append((piece, min(piece + step, stop)))
        start = stop
    return windows


@pytest.mark.parametrize("count", [0, 1, 47, 48, 200])
def test_run_boundaries_match_linear_split(count):
    for seed in range(4):
        rng = random.Random(77 * count + seed)
        # Multi-peer stream: re-stamp peers to create runs.
        messages = [
            Update(
                timestamp=message.timestamp,
                peer_as=rng.choice([2, 3, 4]),
                withdrawals=message.withdrawals,
                announcements=message.announcements,
            )
            if isinstance(message, Update)
            else message
            for message in _fuzz_messages(rng, count)
        ]
        peers = _trace(messages).msg_peer
        total = len(peers)
        for max_run in (None, 1, 7, 1000):
            assert CHECKED.run_boundaries(peers, total, max_run) == (
                _linear_split(list(peers), max_run)
            ), (count, seed, max_run)


def test_backend_selection_seam():
    """What the benchmark harness calls: one backend under every name."""
    backend = kernels.default_backend()
    assert backend.NAME == "stdlib"
    assert kernels.get_backend(None) is backend
    assert kernels.get_backend("auto") is backend
    assert kernels.get_backend("stdlib") is backend
    with pytest.raises(ValueError):
        kernels.get_backend("numpy")
    assert kernels.numpy_version() == "absent"


# -- the backend knob at each entry point the benchmarks drive ---------------

_SEAM_PREFIXES = prefix_block("60.0.0.0/24", 300)


def _seam_burst(reannounce=True):
    """A withdrawal burst on peer 2, re-announcements on peer 4 if asked."""
    burst = [
        _withdraw(10.0 + i * 0.001, [prefix])
        for i, prefix in enumerate(_SEAM_PREFIXES[:250])
    ]
    if reannounce:
        attrs = PathAttributes(as_path=ASPath([4, 8, 6]), next_hop=4, local_pref=150)
        burst.extend(
            Update.announce(10.05 + i * 0.001, 4, prefix, attrs)
            for i, prefix in enumerate(_SEAM_PREFIXES[:20])
        )
        burst.sort(key=lambda message: message.timestamp)
    return _trace(burst)


def _seam_iter_batches(name):
    trace = _seam_burst()
    kernel = kernels.get_backend(name) if name else None
    return [(run.start, run.stop) for run in trace.iter_batches(max_run=64, kernel=kernel)]


def _seam_burst_detector(name):
    config = BurstDetectorConfig(start_threshold=100, stop_threshold=1)
    kernel = kernels.get_backend(name) if name else None
    detector, events = _run_detector(_seam_burst(), config, splits=[64, 128], kernel=kernel)
    return events, _detector_state(detector)


def _seam_speaker(name):
    speaker = BGPSpeaker(1)
    for peer in (2, 4):
        speaker.add_peer(peer)
    speaker.receive_columnar(
        _trace([_announce(1.0, prefix) for prefix in _SEAM_PREFIXES])
    )
    kernel = kernels.get_backend(name) if name else None
    changes = speaker.receive_columnar(_seam_burst(), kernel=kernel)
    return [(change.prefix, change.is_loss_of_reachability) for change in changes]


def _seam_router(name):
    config = SwiftConfig(
        inference=InferenceConfig(
            detector=BurstDetectorConfig(start_threshold=100, stop_threshold=1),
            schedule=TriggeringSchedule(steps=((200, 10 ** 6),), unconditional_after=200),
            kernel_backend=name,
        ),
        encoder=EncoderConfig(prefix_threshold=50),
    )
    router = SwiftedRouter(1, config)
    for peer, path, local_pref in ((2, [2, 5, 6], 200), (3, [3, 6], 100), (4, [4, 5, 6], 150)):
        router.add_peer(peer)
        router.load_initial_routes(
            peer, {prefix: ASPath(path) for prefix in _SEAM_PREFIXES}, local_pref=local_pref
        )
    router.provision()
    kernel = kernels.get_backend(name) if name else None
    actions = router.receive_columnar(_seam_burst(), kernel=kernel)
    assert actions, "the burst must trigger a reroute"
    return [(action.inferred_links, action.rerouted_prefixes) for action in actions]


def _seam_replay_stream(name):
    rib = {prefix: ASPath([2, 5, 6]) for prefix in _SEAM_PREFIXES}
    return replay_stream(
        _seam_burst(reannounce=False), rib, peer_as=2, collect_events=True,
        kernel_backend=name,
    ).signature()


SEAM_ENTRY_POINTS = {
    "iter_batches": _seam_iter_batches,
    "burst_detector": _seam_burst_detector,
    "speaker_receive_columnar": _seam_speaker,
    "router_inference_config": _seam_router,
    "replay_stream": _seam_replay_stream,
}


@pytest.mark.parametrize("entry", sorted(SEAM_ENTRY_POINTS))
def test_backend_knob_entry_point(entry):
    """Naming the one backend changes nothing; any other name is refused."""
    run = SEAM_ENTRY_POINTS[entry]
    default = run(None)
    assert run("stdlib") == default
    assert run("auto") == default
    with pytest.raises(ValueError):
        run("numpy")


def test_detector_scan_leaves_plain_python_state():
    """Detector state holds plain floats and ints (pickling, equality)."""
    messages = DEGENERATE_STREAMS["all_withdrawals"]
    trace = _trace(messages)
    detector, events = _run_detector(trace, DETECTOR_CONFIGS[0], splits=[])
    for timestamp, count in detector._window:
        assert type(timestamp) is float
        assert type(count) is int
    for _, event in events:
        assert type(event.timestamp) is float
        assert type(event.withdrawals_in_window) is int
