"""Fault-injection matrix: self-healing fleet replay, checksummed store,
quarantining cache and validated ingestion.

Crosses the injected failure modes {worker crash, hard worker kill, worker
hang, IO error, corrupted blob, malformed rows} with {strict, lenient}
handling and asserts the recovery contract: retried runs stay
byte-identical to fault-free ones, degraded runs name exactly their
casualties, damaged blobs are quarantined and rebuilt, and malformed rows
are rejected (strict) or counted-and-skipped (lenient).  An end-to-end
subprocess test arms the harness purely through ``REPRO_FAULTS`` /
``REPRO_FAULT_SEED`` and proves a faulted fleet replay exits cleanly — no
hang, no zombie workers.
"""

import logging
import os
import pickle
import subprocess
import sys
import textwrap

import pytest

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.prefix import Prefix, prefix_block
from repro.replay.fleet import (
    FailedSession,
    FleetReplayError,
    RetryPolicy,
    SessionJob,
    replay_jobs,
)
from repro.testing.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    corrupt_file,
)
from repro.traces import columnar_store, trace_cache
from repro.traces.columnar import ColumnarTrace
from repro.traces.mrt import TraceReader, TraceRecord, records_to_columnar
from repro.traces.validation import TraceValidationError, ValidationReport

pytestmark = pytest.mark.faults


def _make_trace(peer_as: int, messages: int = 6) -> ColumnarTrace:
    """A tiny deterministic single-session stream."""
    trace = ColumnarTrace()
    attributes = PathAttributes(as_path=ASPath([peer_as, 5, 6]), next_hop=peer_as)
    prefixes = prefix_block(f"10.{peer_as % 200}.0.0/24", messages)
    for index, prefix in enumerate(prefixes):
        trace.announce(float(index), peer_as, prefix, attributes)
    trace.withdraw(float(messages), peer_as, prefixes[0])
    return trace


def _make_jobs(peer_ases) -> list:
    return [
        SessionJob.from_stream(peer_as, _make_trace(peer_as), {})
        for peer_as in peer_ases
    ]


def _signature(result) -> bytes:
    return pickle.dumps(result.signature())


@pytest.fixture(scope="module")
def jobs():
    return _make_jobs([11, 12, 13])


@pytest.fixture(scope="module")
def baseline(jobs):
    """The fault-free sequential run every recovery test compares against."""
    return replay_jobs(jobs, workers=1, swifted=False)


class TestWorkerSizing:
    @pytest.mark.parametrize("workers", [0, -1, -7])
    def test_non_positive_workers_raise(self, workers):
        with pytest.raises(ValueError, match="positive integer"):
            replay_jobs([], workers=workers)

    @pytest.mark.parametrize("workers", [True, False, 2.0, "2"])
    def test_non_integer_workers_raise(self, workers):
        with pytest.raises(ValueError, match="positive integer"):
            replay_jobs([], workers=workers)


class TestFaultPlanConfig:
    def test_plan_round_trips_through_environment(self):
        plan = FaultPlan(
            seed=42,
            specs=(
                FaultSpec("kill", "fleet.worker", times=2, match="session:1[12]"),
                FaultSpec("hang", "fleet.worker", hang_seconds=7.5),
                FaultSpec("corrupt", "cache.write", rate=0.5),
            ),
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown", "fleet.worker")
        with pytest.raises(ValueError, match="malformed fault spec"):
            FaultSpec.from_text("no-site-here")

    def test_rate_selects_the_same_keys_everywhere(self):
        plan = FaultPlan(seed=9, specs=(FaultSpec("crash", "fleet.worker", rate=0.5),))
        picks = [
            FaultInjector(plan).check("fleet.worker", key=f"session:{peer}", attempt=0)
            is not None
            for peer in range(40)
        ]
        # Deterministic and non-trivial: some keys selected, some spared,
        # identically for every fresh injector (i.e. every process).
        assert any(picks) and not all(picks)
        repeat = [
            FaultInjector(plan).check("fleet.worker", key=f"session:{peer}", attempt=0)
            is not None
            for peer in range(40)
        ]
        assert repeat == picks


class TestCrashRecovery:
    def test_pool_crash_is_retried_to_byte_identical_result(self, jobs, baseline):
        plan = FaultPlan(
            specs=(FaultSpec("crash", "fleet.worker", times=1, match="session:11"),)
        )
        result = replay_jobs(jobs, workers=2, swifted=False, fault_plan=plan)
        assert result.retries >= 1
        assert not result.degraded
        assert _signature(result) == _signature(baseline)

    def test_inline_crash_is_retried_to_byte_identical_result(self, jobs, baseline):
        plan = FaultPlan(
            specs=(FaultSpec("crash", "fleet.worker", times=1, match="session:12"),)
        )
        result = replay_jobs(jobs, workers=1, swifted=False, fault_plan=plan)
        assert result.retries == 1
        assert _signature(result) == _signature(baseline)

    def test_inline_kill_downgrades_instead_of_exiting_this_process(self, jobs):
        # ``kill`` outside a supervised pool worker must not take the test
        # process down; with an unretryable spec it degrades instead.
        plan = FaultPlan(
            specs=(FaultSpec("kill", "fleet.worker", times=99, match="session:11"),)
        )
        result = replay_jobs(
            jobs, workers=1, swifted=False, strict=False, fault_plan=plan
        )
        assert [failed.peer_as for failed in result.failed_sessions] == [11]

    def test_strict_raises_after_exhausted_attempts(self, jobs):
        plan = FaultPlan(specs=(FaultSpec("crash", "fleet.worker", times=99),))
        with pytest.raises(FleetReplayError, match="failed after"):
            replay_jobs(jobs, workers=1, swifted=False, fault_plan=plan)
        with pytest.raises(FleetReplayError, match="failed after"):
            replay_jobs(jobs, workers=2, swifted=False, fault_plan=plan)


class TestHardFailureRecovery:
    def test_killed_workers_break_the_pool_and_jobs_are_resubmitted(
        self, jobs, baseline
    ):
        # The acceptance scenario: a seeded injector hard-kills 2 of N
        # workers; the driver rebuilds the pool, resubmits, and the final
        # signature is byte-identical to the fault-free sequential run.
        plan = FaultPlan(
            seed=7,
            specs=(FaultSpec("kill", "fleet.worker", times=1, match="session:1[12]"),),
        )
        result = replay_jobs(jobs, workers=2, swifted=False, fault_plan=plan)
        assert result.pool_restarts >= 1
        assert result.retries >= 1
        assert not result.degraded
        assert _signature(result) == _signature(baseline)

    def test_hung_worker_is_reclaimed_within_the_timeout(self, jobs, baseline):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "hang", "fleet.worker", times=1, match="session:11", hang_seconds=25.0
                ),
            )
        )
        result = replay_jobs(
            jobs, workers=2, swifted=False, fault_plan=plan, timeout=2.0
        )
        # Reclaiming a hung worker kills its process, so the pool restarts
        # and the job retries — far faster than the 25 s injected sleep
        # (the suite's duration budget would catch a driver that waited).
        assert result.pool_restarts >= 1
        assert result.retries >= 1
        assert not result.degraded
        assert _signature(result) == _signature(baseline)


class TestGracefulDegradation:
    def test_lenient_run_names_exactly_the_failed_sessions(self, jobs, baseline):
        plan = FaultPlan(
            specs=(FaultSpec("crash", "fleet.worker", times=99, match="session:12"),)
        )
        result = replay_jobs(
            jobs, workers=2, swifted=False, strict=False, fault_plan=plan
        )
        assert result.degraded
        assert [failed.peer_as for failed in result.failed_sessions] == [12]
        assert result.failed_sessions[0].attempts == RetryPolicy().max_attempts
        assert [session.peer_as for session in result.sessions] == [11, 13]
        # A degraded signature carries an explicit marker naming the
        # casualties — it can never pass for the complete run.
        assert _signature(result) != _signature(baseline)
        assert result.signature()[1] == ("degraded", (12,))

    def test_failed_session_records_the_error(self, jobs):
        plan = FaultPlan(specs=(FaultSpec("crash", "fleet.worker", times=99),))
        result = replay_jobs(
            jobs, workers=1, swifted=False, strict=False, fault_plan=plan
        )
        assert len(result.failed_sessions) == len(jobs)
        for failed in result.failed_sessions:
            assert isinstance(failed, FailedSession)
            assert "injected crash" in failed.error


class TestStoreIntegrity:
    def _write(self, path):
        trace = _make_trace(11)
        columnar_store.write_trace(path, trace)
        return trace

    def test_flipped_column_byte_fails_the_crc(self, tmp_path):
        path = str(tmp_path / "trace.cols")
        self._write(path)
        corrupt_file(path, offset=os.path.getsize(path) - 1)
        with pytest.raises(columnar_store.CorruptColumnStoreError, match="checksum"):
            columnar_store.read_trace(path)

    def test_flipped_header_byte_fails_at_open(self, tmp_path):
        path = str(tmp_path / "trace.cols")
        self._write(path)
        corrupt_file(path, offset=40)  # inside the pickled header
        with pytest.raises(columnar_store.CorruptColumnStoreError):
            columnar_store.ColumnarTraceFile(path)

    def test_truncated_blob_fails_at_open(self, tmp_path):
        path = str(tmp_path / "trace.cols")
        self._write(path)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 8)
        with pytest.raises(columnar_store.CorruptColumnStoreError, match="truncated"):
            columnar_store.ColumnarTraceFile(path)

    def test_v1_blob_is_rejected(self, tmp_path):
        # v2 predates the ingest segments, so a v1 layout can only be
        # damage (or a foreign file): it raises the typed error.
        path = str(tmp_path / "trace.cols")
        self._write(path)
        with open(path, "r+b") as handle:
            handle.seek(8)  # the u32 store version after the magic
            handle.write((1).to_bytes(4, "little"))
        with pytest.raises(columnar_store.CorruptColumnStoreError, match="v1"):
            columnar_store.read_trace(path)

    def test_newer_store_version_is_rejected(self, tmp_path):
        path = str(tmp_path / "trace.cols")
        self._write(path)
        with open(path, "r+b") as handle:
            handle.seek(8)
            handle.write((3).to_bytes(4, "little"))
        with pytest.raises(columnar_store.CorruptColumnStoreError, match="v3"):
            columnar_store.ColumnarTraceFile(path)

    def test_v2_round_trip_is_lossless(self, tmp_path):
        path = str(tmp_path / "trace.cols")
        original = self._write(path)
        assert columnar_store.read_trace(path).to_payload() == original.to_payload()


class TestCacheQuarantine:
    def _load(self, builds):
        def builder():
            builds.append(1)
            return _make_trace(11)

        return trace_cache.load_or_build(
            "faults-test",
            "spec",
            builder,
            format_version=1,
            encode=ColumnarTrace.to_payload,
            decode=ColumnarTrace.from_payload,
        )

    def test_corrupt_blob_is_quarantined_rebuilt_and_logged_once(
        self, tmp_path, monkeypatch, caplog
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        builds = []
        first = self._load(builds)
        assert builds == [1]
        path = trace_cache.cache_path_for("faults-test", "spec", format_version=1)
        corrupt_file(path, offset=os.path.getsize(path) - 1)
        with caplog.at_level(logging.WARNING, logger="repro.traces.trace_cache"):
            second = self._load(builds)
            third = self._load(builds)
        assert builds == [1, 1], "corruption must be a miss exactly once"
        assert os.path.exists(path + ".corrupt"), "bad blob kept for post-mortem"
        assert second.to_payload() == first.to_payload()
        assert third.to_payload() == first.to_payload()
        warnings = [r for r in caplog.records if "quarantined" in r.getMessage()]
        assert len(warnings) == 1, "quarantine must log once per entry"

    def test_truncated_blob_is_treated_as_a_miss(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        builds = []
        self._load(builds)
        path = trace_cache.cache_path_for("faults-test", "spec", format_version=1)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 4)
        self._load(builds)
        assert builds == [1, 1]
        assert os.path.exists(path), "entry rebuilt under the original name"

    def test_injected_write_corruption_heals_on_the_next_load(
        self, tmp_path, monkeypatch
    ):
        # Arm the harness through the environment only: the cache.write
        # hook corrupts the first written blob; the next load detects it,
        # quarantines and rebuilds a clean one.
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FAULTS", "corrupt@cache.write;times=1")
        monkeypatch.setenv("REPRO_FAULT_SEED", "5")
        builds = []
        self._load(builds)
        second = self._load(builds)
        assert builds == [1, 1]
        path = trace_cache.cache_path_for("faults-test", "spec", format_version=1)
        assert os.path.exists(path + ".corrupt")
        assert second.to_payload() == _make_trace(11).to_payload()
        third = self._load(builds)
        assert builds == [1, 1], "the healed entry must serve as a hit"
        assert third.to_payload() == second.to_payload()

    def test_injected_write_io_error_degrades_to_uncached(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setenv("REPRO_FAULTS", "io_error@cache.write;times=99")
        builds = []
        value = self._load(builds)
        self._load(builds)
        assert builds == [1, 1], "failed writes degrade to rebuild-per-load"
        assert value.to_payload() == _make_trace(11).to_payload()
        path = trace_cache.cache_path_for("faults-test", "spec", format_version=1)
        assert not os.path.exists(path)


    def test_flipped_byte_in_a_corpus_array_buffer_is_quarantined(
        self, tmp_path, monkeypatch, caplog
    ):
        # A cached corpus entry holds its columns as raw array buffers; one
        # flipped byte inside the timestamp column must fail the entry's
        # checksum — not reload as a corpus with one wrong timestamp.
        import functools
        from array import array

        from repro.experiments import common

        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "cache"))
        builds = []

        @functools.wraps(common.burst_corpus)
        def counting(**kwargs):
            builds.append(1)
            return _burst_corpus(**kwargs)

        _burst_corpus = common.burst_corpus
        monkeypatch.setattr(common, "burst_corpus", counting)
        kwargs = dict(
            peer_count=3,
            duration_days=6,
            min_table_size=2000,
            max_table_size=4000,
            min_burst_size=200,
            seed=5,
        )
        generated = common.cached_corpus(**kwargs)
        assert generated and builds == [1]
        (entry,) = (tmp_path / "cache").iterdir()
        times = array(
            "d", [m.timestamp for burst in generated for m in burst.messages]
        ).tobytes()
        data = entry.read_bytes()
        start = data.find(times)
        assert start >= 0, "the timestamp column is stored as one raw buffer"
        corrupt_file(str(entry), offset=start + len(times) // 2)

        with caplog.at_level(logging.WARNING, logger="repro.traces.trace_cache"):
            reloaded = common.cached_corpus(**kwargs)
        assert builds == [1, 1], "a damaged entry is rebuilt, not served"
        assert os.path.exists(str(entry) + ".corrupt")
        assert [list(burst.messages) for burst in reloaded] == [
            list(burst.messages) for burst in generated
        ]
        assert any("quarantined" in r.getMessage() for r in caplog.records)
        common.cached_corpus(**kwargs)
        assert builds == [1, 1], "the rebuilt entry serves as a hit"


class TestIngestionValidation:
    def test_malformed_lines_raise_typed_errors(self):
        for line in ("garbage", "A|x|2|10.0.0.0/24|2 5 6", "A|1.0|2||", "Z|1.0|2||"):
            with pytest.raises(TraceValidationError) as caught:
                TraceRecord.from_line(line)
            assert caught.value.reason == "malformed-line"

    def test_lenient_reader_counts_and_skips_bad_lines(self, tmp_path):
        good = [
            TraceRecord("A", 1.0, 2, Prefix.from_string("10.0.0.0/24"), ASPath([2, 6])),
            TraceRecord("W", 2.0, 2, Prefix.from_string("10.0.0.0/24")),
        ]
        path = tmp_path / "dump.txt"
        path.write_text(
            "\n".join([good[0].to_line(), "garbage", good[1].to_line(), "A|x|2||"])
            + "\n"
        )
        report = ValidationReport(lenient=True)
        records = list(TraceReader(str(path), report=report))
        assert [record.type for record in records] == ["A", "W"]
        assert report.skipped["malformed-line"] == 2
        assert "garbage" in report.examples["malformed-line"]
        # Strict reader: same file, first bad line raises.
        with pytest.raises(TraceValidationError):
            list(TraceReader(str(path)))

    def test_records_to_columnar_rejects_non_monotone_timestamps(self):
        prefix = Prefix.from_string("10.0.0.0/24")
        records = [
            TraceRecord("A", 5.0, 2, prefix, ASPath([2, 6])),
            TraceRecord("A", 1.0, 2, prefix, ASPath([2, 6])),
        ]
        with pytest.raises(TraceValidationError, match="non-monotone"):
            records_to_columnar(records)
        report = ValidationReport(lenient=True)
        trace = records_to_columnar(records, report=report)
        assert trace.message_count == 1
        assert report.skipped["non-monotone-timestamp"] == 1

    def test_records_to_columnar_rejects_non_positive_peers(self):
        record = TraceRecord("W", 1.0, 0, Prefix.from_string("10.0.0.0/24"))
        with pytest.raises(TraceValidationError, match="invalid-peer"):
            records_to_columnar([record])
        report = ValidationReport(lenient=True)
        assert records_to_columnar([record], report=report).message_count == 0

    def test_payload_with_unknown_kind_byte(self):
        payload = _make_trace(11).to_payload()
        tampered = bytearray(payload["msg_kind"])
        tampered[2] = 9
        payload["msg_kind"] = bytes(tampered)
        with pytest.raises(TraceValidationError, match="unknown-kind"):
            ColumnarTrace.from_payload(payload, validate="strict")
        report = ValidationReport(lenient=True)
        trace = ColumnarTrace.from_payload(payload, validate="lenient", report=report)
        assert report.skipped["unknown-kind"] == 1
        assert trace.message_count == _make_trace(11).message_count - 1

    def test_out_of_range_intern_id_detected(self):
        trace = _make_trace(11)
        trace.ann_attr[0] = 10_000
        with pytest.raises(TraceValidationError, match="out-of-range-intern-id"):
            trace.validated()
        lenient = trace.validated(lenient=True)
        assert lenient.message_count == trace.message_count - 1

    def test_inconsistent_bounds_detected_and_dropped(self):
        trace = _make_trace(11)
        trace.wd_end[0] = 999
        with pytest.raises(TraceValidationError, match="inconsistent-bounds"):
            trace.validated()
        report = ValidationReport(lenient=True)
        lenient = trace.validated(lenient=True, report=report)
        assert report.skipped["inconsistent-bounds"] == 1
        assert lenient.message_count == trace.message_count - 1

    def test_lenient_drop_preserves_the_surviving_rows_exactly(self):
        trace = _make_trace(11)
        tampered = _make_trace(11)
        tampered.msg_peer[3] = -5
        survived = tampered.validated(lenient=True)
        kept = [
            message
            for index, message in enumerate(trace.to_messages())
            if index != 3
        ]
        assert survived.to_messages() == kept

    def test_clean_trace_validates_to_itself(self):
        trace = _make_trace(11)
        report = ValidationReport(lenient=True)
        assert trace.validated(lenient=True, report=report) is trace
        assert report.clean and report.checked == trace.message_count

    def test_fleet_worker_validates_payloads_when_asked(self, jobs):
        bad_payload = _make_trace(14).to_payload()
        tampered = bytearray(bad_payload["msg_kind"])
        tampered[1] = 200
        bad_payload["msg_kind"] = bytes(tampered)
        bad_job = SessionJob(
            peer_as=14, payload=bad_payload, rib_prefix=b"", rib_path=b""
        )
        with pytest.raises(FleetReplayError):
            replay_jobs([bad_job], workers=1, swifted=False, validate="strict", retry=0)
        lenient = replay_jobs([bad_job], workers=1, swifted=False, validate="lenient")
        assert lenient.sessions[0].message_count == _make_trace(14).message_count - 1
        with pytest.raises(ValueError, match="validate"):
            replay_jobs([], validate="sometimes")


_E2E_SCRIPT = textwrap.dedent(
    """
    from repro.bgp.attributes import ASPath, PathAttributes
    from repro.bgp.prefix import prefix_block
    from repro.replay.fleet import SessionJob, replay_jobs
    from repro.traces.columnar import ColumnarTrace

    def make_job(peer_as):
        trace = ColumnarTrace()
        attributes = PathAttributes(as_path=ASPath([peer_as, 5, 6]), next_hop=peer_as)
        for index, prefix in enumerate(prefix_block("10.%d.0.0/24" % peer_as, 5)):
            trace.announce(float(index), peer_as, prefix, attributes)
        return SessionJob.from_stream(peer_as, trace, {})

    jobs = [make_job(peer_as) for peer_as in (11, 12, 13)]
    result = replay_jobs(jobs, workers=2, swifted=False, strict=False, timeout=2.0)
    assert result.session_count == 3, result.failed_sessions
    assert not result.degraded, result.failed_sessions
    assert result.retries >= 1, "the environment plan must have fired"
    print("fault-e2e OK retries=%d restarts=%d" % (result.retries, result.pool_restarts))
    """
)


def test_environment_armed_fleet_replay_exits_cleanly():
    """End-to-end: REPRO_FAULTS alone kills/hangs workers; the run degrades
    gracefully, exits 0 within the deadline and leaves no zombie workers
    (a clean interpreter exit joins every pool process)."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env["PYTHONPATH"] = src
    env["REPRO_FAULTS"] = (
        "kill@fleet.worker;times=1;match=session:11,"
        "hang@fleet.worker;times=1;match=session:12;hang=30"
    )
    env["REPRO_FAULT_SEED"] = "3"
    env["REPRO_TRACE_CACHE"] = "off"
    completed = subprocess.run(
        [sys.executable, "-c", _E2E_SCRIPT],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr or completed.stdout
    assert "fault-e2e OK" in completed.stdout
