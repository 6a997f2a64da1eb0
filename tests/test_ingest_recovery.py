"""Crash-mid-roll recovery: the ``kill -9`` matrix.

Each scenario launches the daemon as a *subprocess*
(``tests/_ingest_runner.py``) with a seeded kill fault placed at one of
the ingest durability sites — mid-append, or inside each of the three
roll phases the crash windows of
``src/repro/ingest/segments.py`` document — lets it die hard
(``os._exit(3)``, no finally blocks, the moral equivalent of ``kill -9``),
and then asserts the recovery contract *twice*:

1. immediately after the crash, :func:`repro.ingest.recover_feed` +
   :func:`repro.ingest.open_tail` reconstruct **exactly** the offline
   ingest of the feed's first ``next_offset`` lines — message-for-message,
   no loss, no duplicates — and never fewer rows than the run's last
   acknowledged (post-fsync) count;
2. a clean restart resumes from the checkpoint and completes: the final
   dataset equals the offline ingest of the whole feed, and every sealed
   segment's CRC and byte count verify against the manifest.

:meth:`repro.ingest.Manifest.verify` runs after every kill as well.  Two
in-process tests at the end pin the file rules of the roll's crash windows
directly: an orphan ``.sealed`` file and a sealed segment's stale log are
both deleted by :func:`repro.ingest.recover_feed`.

The fault placements are seeded (``after=K`` occurrence offsets), so each
run of the matrix kills the daemon at the same deterministic points.
"""

import io
import os
import subprocess
import sys

import pytest

import _ingest_runner as runner

from repro.ingest import (
    Manifest,
    SegmentWriter,
    SyntheticFeed,
    iter_feed_windows,
    open_tail,
    recover_feed,
)
from repro.traces.columnar_store import SegmentAppendLog
from repro.traces.mrt import TraceReader
from repro.traces.validation import ValidationReport

pytestmark = pytest.mark.ingest

_TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
_RUNNER = os.path.join(_TESTS_DIR, "_ingest_runner.py")
_SRC = os.path.join(_TESTS_DIR, "..", "src")


def _feed_lines(peer_as):
    return [line for _, line in SyntheticFeed(runner.CORPUS, peer_as).connect()]


def _offline_messages(lines):
    text = "".join(line + "\n" for line in lines)
    trace = TraceReader(io.StringIO(text)).read_columnar(
        report=ValidationReport(lenient=True)
    )
    return trace.to_messages()


@pytest.fixture(scope="module")
def corpus():
    """name -> (lines, offline messages) for every feed of the runner corpus."""
    expected = {}
    for peer_as in runner.corpus_peers():
        lines = _feed_lines(peer_as)
        expected[f"peer-{peer_as}"] = (lines, _offline_messages(lines))
    return expected


def _run_daemon(root, faults_text=None, seed=0, timeout=60):
    env = os.environ.copy()
    env["PYTHONPATH"] = _SRC
    env["REPRO_TRACE_CACHE"] = "off"
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULT_SEED", None)
    if faults_text is not None:
        env["REPRO_FAULTS"] = faults_text
        env["REPRO_FAULT_SEED"] = str(seed)
    completed = subprocess.run(
        [sys.executable, _RUNNER, root],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    acks = {}
    done = None
    for line in completed.stdout.splitlines():
        parts = line.split()
        if parts[:1] == ["ACK"] and len(parts) == 4:
            acks[parts[1]] = (int(parts[2]), int(parts[3]))
        elif parts[:1] == ["DONE"] and len(parts) == 2:
            done = int(parts[1])
    return completed, acks, done


def _recovered_state(root, name):
    """(rows recovered, resume offset, recovered messages) after a crash.

    Read-only reconstruction: sealed windows off their one-frame files
    plus the open tail replayed from the append log's valid frames — the
    exact state a restarted daemon resumes from.
    """
    manifest = Manifest.load(root)
    state = manifest.feed_state(name)
    messages = []
    for window in iter_feed_windows(root, name, manifest):
        messages.extend(window.to_messages())
    next_offset = state["next_offset"]
    payloads, _ = _scan_open_log(root, name, state)
    for payload in payloads:
        next_offset = payload["offset"]
    return len(messages), next_offset, messages


def _scan_open_log(root, name, state):
    from repro.ingest.segments import _log_name

    return SegmentAppendLog.scan(
        os.path.join(root, name, _log_name(state["open_seq"]))
    )


_KILL_MATRIX = [
    pytest.param("kill@segment.append;after=2", id="mid-append-early"),
    pytest.param("kill@segment.append;after=9", id="mid-append-late"),
    pytest.param("kill@segment.roll;match=*:start", id="roll-before-seal"),
    pytest.param("kill@segment.roll;match=*:sealed", id="roll-before-manifest"),
    pytest.param("kill@segment.roll;match=*:manifest", id="roll-before-retire"),
    pytest.param("kill@feed.read;after=150", id="mid-read"),
]


@pytest.mark.parametrize("faults_text", _KILL_MATRIX)
def test_kill_then_restart_recovers_exactly(tmp_path, corpus, faults_text):
    root = str(tmp_path)

    crashed, acks, done = _run_daemon(root, faults_text=faults_text, seed=7)
    assert crashed.returncode == 3, (
        f"expected the injected kill to fire (stdout={crashed.stdout!r}, "
        f"stderr={crashed.stderr!r})"
    )
    assert done is None

    # -- contract 1: post-crash recovery is exact ----------------------------
    # Whatever the manifest vouches for at the kill is bit-exact on disk.
    Manifest.load(root).verify()
    for name, (lines, offline) in corpus.items():
        rows, next_offset, recovered = _recovered_state(root, name)
        acked_rows, acked_offset = acks.get(name, (0, 0))
        # Durability: everything acknowledged before the kill survived it.
        assert rows >= acked_rows
        assert next_offset >= acked_offset
        # Exactness: the recovered rows are precisely the offline ingest of
        # the first next_offset feed lines — no loss, no duplicates.
        assert recovered == _offline_messages(lines[:next_offset])

    # -- contract 2: a clean restart completes from the checkpoint -----------
    finished, _, done = _run_daemon(root)
    assert finished.returncode == 0, finished.stderr
    assert done == sum(len(offline) for _, offline in corpus.values())

    manifest = Manifest.load(root)
    for name, (lines, offline) in corpus.items():
        final = []
        for window in iter_feed_windows(root, name, manifest):
            final.extend(window.to_messages())
        assert final == offline
        state = manifest.feed_state(name)
        assert state["complete"] is True
        assert state["next_offset"] == len(lines)
        assert open_tail(root, name, manifest).message_count == 0
    # Every sealed segment's bytes and CRC verify against the manifest.
    assert manifest.verify() >= 2


def test_double_kill_then_restart(tmp_path, corpus):
    """Two successive crashes at different sites still recover exactly."""
    root = str(tmp_path)
    first, _, _ = _run_daemon(root, faults_text="kill@segment.append;after=4", seed=3)
    assert first.returncode == 3
    second, _, _ = _run_daemon(
        root, faults_text="kill@segment.roll;match=*:sealed", seed=3
    )
    # The second kill may not fire if the remaining work rolls fewer times;
    # either way the final clean run must converge to the offline dataset.
    assert second.returncode in (0, 3)

    finished, _, done = _run_daemon(root)
    assert finished.returncode == 0, finished.stderr
    assert done == sum(len(offline) for _, offline in corpus.values())
    manifest = Manifest.load(root)
    for name, (_, offline) in corpus.items():
        final = []
        for window in iter_feed_windows(root, name, manifest):
            final.extend(window.to_messages())
        assert final == offline
    manifest.verify()


# -- the crash-window rules, in process ----------------------------------------


def _two_segments_and_an_open_tail(root, name):
    """Seal two segments of a runner feed, then flush a few more lines."""
    lines = _feed_lines(runner.corpus_peers()[0])[:25]
    writer = SegmentWriter(root, name, Manifest.load(root))
    for offset, line in enumerate(lines):
        writer.add_line(offset, line)
        if offset in (9, 19):
            writer.roll()
    writer.flush()
    writer.close()
    return lines


def test_recovery_deletes_a_sealed_file_the_manifest_never_recorded(tmp_path):
    # Died between the sealed write and the manifest checkpoint.
    root, name = str(tmp_path), "feed"
    lines = _two_segments_and_an_open_tail(root, name)
    orphan = os.path.join(root, name, "seg-00002.sealed")
    with open(orphan, "wb") as handle:
        handle.write(b"unacknowledged")
    manifest = Manifest.load(root)
    recovery = recover_feed(root, name, manifest)
    assert not os.path.exists(orphan)
    assert recovery.open_seq == 2 and recovery.open_lines == lines[20:]
    assert manifest.verify() == 2


def test_recovery_deletes_the_log_of_a_sealed_segment(tmp_path):
    # Died between the manifest checkpoint and the log unlink.
    root, name = str(tmp_path), "feed"
    lines = _two_segments_and_an_open_tail(root, name)
    stale = os.path.join(root, name, "seg-00001.log")
    with SegmentAppendLog(stale) as log:
        log.append({"lines": lines[10:20], "offset": 20, "last_time": None})
        log.sync()
    recovery = recover_feed(root, name, Manifest.load(root))
    assert not os.path.exists(stale)
    assert recovery.sealed_rows == len(_offline_messages(lines[:20]))
    assert recovery.open_lines == lines[20:]
