"""Fault-injection matrix: the harness itself, checksummed sealed segments,
quarantining cache and validated ingestion.

Crosses the injected failure modes {IO error, corrupted blob, malformed
rows} with {strict, lenient} handling and asserts the recovery contract:
damaged blobs are quarantined and rebuilt, and malformed rows are rejected
(strict) or counted-and-skipped (lenient).  The harness tests pin the plan
grammar, the seeded key selection, the ``after`` / ``times`` windows, what
each kind does when it fires (with ``kill`` / ``hang`` downgraded outside a
supervised process), ``corrupt_file`` and the ambient injector.
"""

import logging
import os
import time

import pytest

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.prefix import Prefix, prefix_block
from repro.testing import faults
from repro.testing.faults import (
    FAULTS_ENV,
    SEED_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    corrupt_file,
)
from repro.ingest import IngestManifestError, Manifest, SegmentWriter, iter_feed_windows
from repro.traces import columnar_store, trace_cache
from repro.traces.columnar import ColumnarTrace
from repro.traces.mrt import (
    TraceReader,
    TraceRecord,
    messages_to_records,
    records_to_columnar,
)
from repro.traces.validation import TraceValidationError, ValidationReport
from repro.util.atomic import write_atomic

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


class TestFaultPlanConfig:
    def test_plan_round_trips_through_environment(self):
        plan = FaultPlan(
            seed=42,
            specs=(
                FaultSpec("kill", "segment.append", times=2, match="feed:1[12]"),
                FaultSpec("hang", "feed.read", hang_seconds=7.5),
                FaultSpec("corrupt", "cache.write", rate=0.5),
            ),
        )
        assert FaultPlan.from_env(plan.to_env()) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("meltdown", "segment.append")
        with pytest.raises(ValueError, match="malformed fault spec"):
            FaultSpec.from_text("no-site-here")

    def test_rate_selects_the_same_keys_everywhere(self):
        plan = FaultPlan(seed=9, specs=(FaultSpec("crash", "segment.append", rate=0.5),))
        picks = [
            FaultInjector(plan).check("segment.append", key=f"feed:{segment}")
            is not None
            for segment in range(40)
        ]
        # Deterministic and non-trivial: some keys selected, some spared,
        # identically for every fresh injector (i.e. every process).
        assert any(picks) and not all(picks)
        repeat = [
            FaultInjector(plan).check("segment.append", key=f"feed:{segment}")
            is not None
            for segment in range(40)
        ]
        assert repeat == picks

    @pytest.mark.parametrize(
        "text",
        [
            "crash@segment.roll",
            "io_error@store.read;times=3",
            "crash@segment.roll;rate=0.5",
            "kill@segment.append;match=feed-1:*;after=2",
            "hang@feed.read;hang=7.5",
        ],
    )
    def test_spec_text_round_trips(self, text):
        spec = FaultSpec.from_text(text)
        assert spec.to_text() == text
        assert FaultSpec.from_text(spec.to_text()) == spec

    def test_plan_text_splits_on_commas_and_skips_blank_specs(self):
        plan = FaultPlan.from_text(
            " crash@segment.roll;rate=0.5 , ,io_error@store.read;times=2", seed=3
        )
        assert plan == FaultPlan(
            seed=3,
            specs=(
                FaultSpec("crash", "segment.roll", rate=0.5),
                FaultSpec("io_error", "store.read", times=2),
            ),
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("crash@segment.roll;times", "malformed fault field"),
            ("crash@segment.roll;colour=red", "unknown fault field"),
            ("@segment.roll", "malformed fault spec"),
            ("crash@", "malformed fault spec"),
        ],
        ids=["field-without-value", "unknown-field", "no-kind", "no-site"],
    )
    def test_malformed_text_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            FaultSpec.from_text(text)

    def test_environment_without_a_plan_configures_nothing(self):
        assert FaultPlan.from_env({}) is None
        assert FaultPlan.from_env({FAULTS_ENV: "", SEED_ENV: "4"}) is None
        plan = FaultPlan.from_env({FAULTS_ENV: "crash@segment.roll", SEED_ENV: ""})
        assert plan == FaultPlan(seed=0, specs=(FaultSpec("crash", "segment.roll"),))

    def test_rate_selection_depends_on_the_seed(self):
        def picks(seed):
            plan = FaultPlan(
                seed=seed, specs=(FaultSpec("crash", "segment.append", rate=0.5),)
            )
            injector = FaultInjector(plan)
            return [
                injector.check("segment.append", key=f"feed:{segment}")
                is not None
                for segment in range(40)
            ]

        assert picks(9) != picks(10)

    def test_zero_rate_never_fires(self):
        plan = FaultPlan(specs=(FaultSpec("crash", "segment.append", rate=0.0),))
        injector = FaultInjector(plan)
        assert all(
            injector.check("segment.append", key=f"feed:{segment}") is None
            for segment in range(40)
        )


class TestInjectorCheck:
    def test_after_and_times_window_is_counted_per_key(self):
        spec = FaultSpec("crash", "segment.append", times=2, after=1)
        injector = FaultInjector(FaultPlan(specs=(spec,)))
        first = [injector.check("segment.append", key="feed:0") for _ in range(5)]
        assert first == [None, spec, spec, None, None]
        # Another key has its own counter: the same window opens for it.
        second = [injector.check("segment.append", key="feed:1") for _ in range(5)]
        assert second == [None, spec, spec, None, None]

    def test_site_and_match_are_fnmatch_patterns(self):
        spec = FaultSpec("crash", "segment.*", times=99, match="feed-1:*")
        injector = FaultInjector(FaultPlan(specs=(spec,)))
        assert injector.check("segment.roll", key="feed-1:3:start") is spec
        assert injector.check("segment.append", key="feed-1:0") is spec
        assert injector.check("segment.append", key="feed-2:0") is None
        assert injector.check("feed.read", key="feed-1") is None

    def test_first_armed_spec_wins(self):
        crash = FaultSpec("crash", "segment.append", times=99)
        io_error = FaultSpec("io_error", "segment.append", times=99)
        injector = FaultInjector(FaultPlan(specs=(crash, io_error)))
        assert injector.check("segment.append", key="feed:0") is crash

    def test_an_exhausted_spec_falls_through_to_the_next(self):
        crash = FaultSpec("crash", "segment.append")
        io_error = FaultSpec("io_error", "segment.append", times=99)
        injector = FaultInjector(FaultPlan(specs=(crash, io_error)))
        assert injector.check("segment.append", key="feed:0") is crash
        assert injector.check("segment.append", key="feed:0") is io_error


class TestInjectorFire:
    @pytest.mark.parametrize(
        "spec",
        [
            FaultSpec("kill", "segment.append", times=99),
            FaultSpec("hang", "feed.read", times=99, hang_seconds=30.0),
        ],
        ids=["kill", "hang"],
    )
    def test_inline_kill_downgrades_instead_of_exiting_this_process(self, spec):
        # ``kill`` / ``hang`` outside a supervised worker must neither take
        # the test process down nor sleep: both raise instead.
        injector = FaultInjector(FaultPlan(specs=(spec,)))
        begin = time.monotonic()
        with pytest.raises(InjectedFault, match="outside a supervised process"):
            injector.fire(spec.site, key="feed:11", in_worker=False)
        assert time.monotonic() - begin < 5.0

    def test_nothing_armed_returns_none(self):
        injector = FaultInjector(FaultPlan(specs=(FaultSpec("crash", "segment.roll"),)))
        assert injector.fire("segment.append", key="feed:0") is None

    def test_crash_raises_an_injected_fault(self):
        injector = FaultInjector(FaultPlan(specs=(FaultSpec("crash", "segment.append"),)))
        with pytest.raises(InjectedFault, match="injected crash") as caught:
            injector.fire("segment.append", key="feed:0")
        assert not isinstance(caught.value, OSError)

    def test_io_error_is_an_oserror(self):
        injector = FaultInjector(FaultPlan(specs=(FaultSpec("io_error", "store.read"),)))
        with pytest.raises(InjectedIOError) as caught:
            injector.fire("store.read", key="seg-00000.sealed")
        assert isinstance(caught.value, OSError)
        assert isinstance(caught.value, InjectedFault)

    def test_corrupt_hands_the_spec_to_the_caller(self):
        spec = FaultSpec("corrupt", "cache.write")
        injector = FaultInjector(FaultPlan(specs=(spec,)))
        assert injector.fire("cache.write", key="entry") is spec
        assert injector.fire("cache.write", key="entry") is None


class TestCorruptFile:
    def test_seeded_offset_is_stable_and_flips_exactly_one_byte(self, tmp_path):
        original = bytes(range(256)) * 4
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path in paths:
            path.write_bytes(original)
        offsets = [corrupt_file(str(path), seed=5) for path in paths]
        assert offsets[0] == offsets[1]
        damaged = paths[0].read_bytes()
        assert damaged == paths[1].read_bytes()
        diff = [i for i, (a, b) in enumerate(zip(original, damaged)) if a != b]
        assert diff == [offsets[0]]
        assert damaged[offsets[0]] == original[offsets[0]] ^ 0xFF

    def test_explicit_offset_is_honoured(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00" * 16)
        assert corrupt_file(str(path), offset=3) == 3
        assert path.read_bytes() == b"\x00" * 3 + b"\xff" + b"\x00" * 12

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            corrupt_file(str(path))


class TestAmbientInjector:
    @pytest.fixture(autouse=True)
    def _disarmed(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        monkeypatch.delenv(SEED_ENV, raising=False)
        faults.install_injector(None)
        yield
        faults.install_injector(None)

    def test_idle_harness_has_no_injector(self, monkeypatch):
        assert faults.active_injector() is None
        monkeypatch.setenv(FAULTS_ENV, "")
        assert faults.active_injector() is None

    def test_environment_injector_is_reused_while_the_plan_is_unchanged(
        self, monkeypatch
    ):
        monkeypatch.setenv(FAULTS_ENV, "kill@segment.append;after=1")
        monkeypatch.setenv(SEED_ENV, "4")
        injector = faults.active_injector()
        assert injector is not None
        assert injector.plan == FaultPlan.from_text("kill@segment.append;after=1", seed=4)
        # One injector per plan value, so occurrence counters persist
        # across hook calls within the process.
        assert faults.active_injector() is injector
        monkeypatch.setenv(SEED_ENV, "5")
        rebuilt = faults.active_injector()
        assert rebuilt is not injector and rebuilt.plan.seed == 5

    def test_installed_injector_wins_over_the_environment(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "crash@segment.roll")
        installed = FaultInjector(FaultPlan(specs=(FaultSpec("hang", "feed.read"),)))
        faults.install_injector(installed)
        assert faults.active_injector() is installed
        faults.install_injector(None)
        assert faults.active_injector().plan == FaultPlan.from_text("crash@segment.roll")


def _sealed_segment(root: str, rows: int = 20):
    """Ingest ``rows`` feed lines into one sealed segment under ``root``.

    Returns the segment's path and the manifest that vouches for it.
    """
    records = messages_to_records(_make_trace(11, messages=rows - 1).to_messages())
    writer = SegmentWriter(root, "feed", Manifest.load(root))
    for offset, record in enumerate(records):
        writer.add_line(offset, record.to_line())
    entry = writer.roll()
    writer.close()
    assert entry is not None and entry["rows"] == rows
    return os.path.join(root, "feed", entry["file"]), Manifest.load(root)


class TestStoreIntegrity:
    """A sealed segment is one append-log frame; any damage is caught."""

    def test_round_trip_is_lossless(self, tmp_path):
        path = str(tmp_path / "trace.sealed")
        original = _make_trace(11)
        write_atomic(path, lambda temp_path: columnar_store.write_trace(temp_path, original))
        assert columnar_store.read_trace(path).to_payload() == original.to_payload()

    def test_every_flipped_bit_and_truncation_is_caught(self, tmp_path):
        path, manifest = _sealed_segment(str(tmp_path))
        assert manifest.verify() == 1
        with open(path, "rb") as handle:
            original = handle.read()
        damaged = [
            original[:offset] + bytes((original[offset] ^ (1 << offset % 8),))
            + original[offset + 1 :]
            for offset in range(len(original))
        ]
        damaged.extend(original[:length] for length in range(len(original)))
        for data in damaged:
            with open(path, "wb") as handle:
                handle.write(data)
            with pytest.raises(columnar_store.CorruptColumnStoreError):
                columnar_store.read_trace(path)
            with pytest.raises(IngestManifestError):
                manifest.verify()

    @pytest.mark.parametrize(
        "extra",
        [b"\0" * 5, b"RPROSEGL"],
        ids=["trailing-bytes", "trailing-magic"],
    )
    def test_bytes_after_the_frame_are_rejected(self, tmp_path, extra):
        path, manifest = _sealed_segment(str(tmp_path))
        with open(path, "ab") as handle:
            handle.write(extra)
        with pytest.raises(columnar_store.CorruptColumnStoreError):
            columnar_store.read_trace(path)
        with pytest.raises(IngestManifestError, match="bytes"):
            manifest.verify()

    def test_a_second_frame_is_rejected(self, tmp_path):
        path, _ = _sealed_segment(str(tmp_path))
        with columnar_store.SegmentAppendLog(path) as log:
            log.append(_make_trace(12).to_payload())
            log.sync()
        with pytest.raises(columnar_store.CorruptColumnStoreError, match="one valid frame"):
            columnar_store.read_trace(path)

    def test_single_frame_file_is_an_append_log_of_one_frame(self, tmp_path):
        # One layout: write_frame's bytes are exactly what the append log
        # writes for the same payload, so scan reads either.
        payload = _make_trace(11).to_payload()
        written = tmp_path / "written.sealed"
        columnar_store.write_frame(str(written), payload)
        appended = tmp_path / "appended.log"
        with columnar_store.SegmentAppendLog(str(appended)) as log:
            log.append(payload)
            log.sync()
        assert written.read_bytes() == appended.read_bytes()
        assert columnar_store.read_frame(str(appended)) == payload

    def test_foreign_columnar_format_is_stale_not_corrupt(self, tmp_path):
        # The frame is intact, the payload is from another schema: a plain
        # ValueError, so the trace cache rebuilds instead of quarantining.
        path = str(tmp_path / "stale.sealed")
        payload = dict(_make_trace(11).to_payload(), format=-1)
        columnar_store.write_frame(path, payload)
        with pytest.raises(ValueError, match="format") as caught:
            columnar_store.read_trace(path)
        assert not isinstance(caught.value, columnar_store.CorruptColumnStoreError)

    def test_foreign_log_version_is_rejected(self, tmp_path):
        path, _ = _sealed_segment(str(tmp_path))
        with open(path, "r+b") as handle:
            handle.seek(8)  # the u32 log version after the magic
            handle.write((columnar_store.LOG_VERSION + 1).to_bytes(4, "little"))
        with pytest.raises(columnar_store.CorruptColumnStoreError, match="segment log v2"):
            columnar_store.read_trace(path)

    def test_row_count_mismatch_fails_verify(self, tmp_path):
        _, manifest = _sealed_segment(str(tmp_path))
        manifest.feed_state("feed")["sealed"][0]["rows"] += 1
        with pytest.raises(IngestManifestError, match="20 rows, manifest records 21"):
            manifest.verify()

    def test_missing_segment_fails_verify(self, tmp_path):
        path, manifest = _sealed_segment(str(tmp_path))
        os.unlink(path)
        with pytest.raises(IngestManifestError, match="unreadable"):
            manifest.verify()

    def test_store_read_fault_fires_on_a_sealed_segment(self, tmp_path):
        root = str(tmp_path)
        path, _ = _sealed_segment(root)
        assert len(list(iter_feed_windows(root, "feed"))) == 1
        spec = FaultSpec("io_error", "store.read", match=os.path.basename(path))
        faults.install_injector(FaultInjector(FaultPlan(specs=(spec,))))
        try:
            with pytest.raises(InjectedFault, match="store.read"):
                list(iter_feed_windows(root, "feed"))
        finally:
            faults.install_injector(None)

    def test_store_read_fault_is_keyed_by_the_file_name(self, tmp_path):
        root = str(tmp_path)
        _sealed_segment(root)
        spec = FaultSpec("io_error", "store.read", match="seg-00001.sealed")
        faults.install_injector(FaultInjector(FaultPlan(specs=(spec,))))
        try:
            assert len(list(iter_feed_windows(root, "feed"))) == 1
        finally:
            faults.install_injector(None)


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
