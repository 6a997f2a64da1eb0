"""Trace-cache regressions: fingerprint safety and temp-file hygiene.

Two silent failure modes are pinned down here:

* ``fingerprint`` falling back to a default ``repr`` that embeds the
  object's memory address would mint a different cache key every process —
  a permanent miss that regenerates minutes-long traces while looking like
  a working cache.  Such configurations must fail loudly instead.
* an interrupted cache writer (``KeyboardInterrupt`` mid-write,
  a builder/encoder crash, an unlink that itself fails) used to orphan
  ``.tmp`` files in ``.trace_cache/`` forever; writes now clean up on any
  exception and both the write path and ``clear_cache`` sweep stale
  leftovers.

Each entry is one CRC-checked frame; ``TestEntryDamage`` pins down which
damage is quarantined and which only costs a rebuild.
"""

import os
import time

import pytest

from repro.traces.columnar_store import SegmentAppendLog
from repro.traces.trace_cache import (
    cache_path_for,
    clear_cache,
    fingerprint,
    load_or_build,
)


def _cached(kind, spec, builder):
    """``load_or_build`` for a value that is its own payload."""
    return load_or_build(kind, spec, builder, None, _same, _same)


def _same(value):
    return value


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    directory = tmp_path / "cache"
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(directory))
    return directory


class _Opaque:
    """A config field with the default (address-bearing) repr."""


class _Deterministic:
    """A config field whose repr is stable across processes."""

    def __init__(self, value):
        self.value = value

    def __repr__(self):
        return f"_Deterministic({self.value!r})"


class TestFingerprint:
    def test_address_bearing_repr_raises_instead_of_thrashing(self):
        with pytest.raises(TypeError, match="memory address"):
            fingerprint(_Opaque())

    def test_address_bearing_repr_nested_in_config_raises(self):
        with pytest.raises(TypeError, match="memory address"):
            fingerprint({"detector": _Opaque()})
        with pytest.raises(TypeError, match="memory address"):
            fingerprint([1, (_Opaque(),)])

    def test_function_repr_raises(self):
        with pytest.raises(TypeError, match="memory address"):
            fingerprint(lambda: None)

    def test_deterministic_custom_repr_is_allowed(self):
        assert fingerprint(_Deterministic(7)) == "_Deterministic(7)"

    def test_string_containing_address_text_is_not_rejected(self):
        # Only the repr fallback is screened; user strings are data.
        assert fingerprint("<built at 0xdeadbeef>") == repr("<built at 0xdeadbeef>")

    def test_mixed_type_dict_keys_do_not_raise(self):
        # sorted() over {1, "a"} raises TypeError; fingerprint must not.
        rendered = fingerprint({1: "x", "a": 2, (3, 4): None})
        assert fingerprint({"a": 2, (3, 4): None, 1: "x"}) == rendered

    def test_mixed_type_sets_do_not_raise(self):
        assert fingerprint({1, "a"}) == fingerprint({"a", 1})

    def test_config_with_opaque_field_fails_loudly_not_silently(self, cache_dir):
        """The regression scenario: a config holding an address-repr object."""
        calls = []

        def build():
            calls.append(1)
            return "value"

        with pytest.raises(TypeError, match="memory address"):
            _cached("trace", fingerprint({"cfg": _Opaque()}), build)
        assert not calls, "the builder must not run for an unfingerprintable config"


class _ExplodesMidPickle:
    """Pickling this object raises after the dump has started writing."""

    def __reduce__(self):
        raise RuntimeError("interrupted mid-write")


class TestTempFileHygiene:
    def _tmp_files(self, cache_dir):
        if not cache_dir.is_dir():
            return []
        return [name for name in os.listdir(cache_dir) if name.endswith(".tmp")]

    def test_failed_write_leaves_no_tmp_file(self, cache_dir):
        value = _cached("kind", "spec", lambda: _ExplodesMidPickle())
        assert isinstance(value, _ExplodesMidPickle)  # building still succeeds
        assert self._tmp_files(cache_dir) == []

    def test_failed_write_after_successful_one_keeps_good_entry(self, cache_dir):
        _cached("kind", "good", lambda: 41)
        _cached("kind", "bad", lambda: _ExplodesMidPickle())
        assert self._tmp_files(cache_dir) == []
        assert _cached("kind", "good", lambda: pytest.fail("cache miss")) == 41

    def test_interrupt_mid_write_cleans_up(self, cache_dir, monkeypatch):
        """KeyboardInterrupt escapes load_or_build but not before cleanup."""

        def explode(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.traces.trace_cache.write_frame", explode)
        with pytest.raises(KeyboardInterrupt):
            _cached("kind", "spec", lambda: 1)
        assert self._tmp_files(cache_dir) == []

    def test_write_path_sweeps_stale_tmp_litter(self, cache_dir):
        cache_dir.mkdir(parents=True)
        stale = cache_dir / "orphan-123.tmp"
        stale.write_bytes(b"leftover")
        ancient = time.time() - 7200
        os.utime(stale, (ancient, ancient))
        fresh = cache_dir / "live-writer.tmp"
        fresh.write_bytes(b"in flight")

        _cached("kind", "spec", lambda: 1)

        assert not stale.exists(), "hour-old orphans are swept on the next write"
        assert fresh.exists(), "young temp files may belong to a live writer"

    def test_clear_cache_removes_entries_tmp_and_quarantined_files(self, cache_dir):
        cache_dir.mkdir(parents=True)
        (cache_dir / "orphan.tmp").write_bytes(b"x")
        (cache_dir / "entry.pkl").write_bytes(b"x")
        (cache_dir / "entry.pkl.corrupt").write_bytes(b"x")
        assert clear_cache() == 3
        assert os.listdir(cache_dir) == []


class TestCachePaths:
    def test_one_entry_layout(self, cache_dir):
        path = cache_path_for("stream", "spec", format_version=1)
        assert path.endswith(".pkl")
        assert os.path.dirname(path) == str(cache_dir)

    def test_roundtrip_through_the_framed_layout(self, cache_dir):
        assert _cached("k", "s", lambda: {"a": 1}) == {"a": 1}
        assert _cached("k", "s", lambda: pytest.fail("miss")) == {"a": 1}
        payloads, valid_end = SegmentAppendLog.scan(cache_path_for("k", "s"))
        assert payloads == [{"a": 1}]
        assert valid_end == os.path.getsize(cache_path_for("k", "s"))

    def test_format_version_is_part_of_the_key(self, cache_dir):
        assert cache_path_for("k", "s", format_version=1) != cache_path_for(
            "k", "s", format_version=2
        )

    def test_disabled_cache_builds_every_time_and_writes_nothing(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_TRACE_CACHE", "off")
        builds = []

        def build():
            builds.append(1)
            return {"a": 1}

        assert cache_path_for("k", "s") is None
        assert _cached("k", "s", build) == {"a": 1}
        assert _cached("k", "s", build) == {"a": 1}
        assert builds == [1, 1]
        assert os.listdir(tmp_path) == []


class TestEntryDamage:
    """Whatever is wrong with an entry, a load never serves it half-read:
    damage to the frame is quarantined, a payload the decoder refuses is
    rebuilt in place, and an encoder failure only costs the caching."""

    def _entry(self, cache_dir):
        _cached("k", "s", lambda: {"a": 1})
        return cache_path_for("k", "s")

    def _reload(self, builds):
        def build():
            builds.append(1)
            return {"a": 1}

        return _cached("k", "s", build)

    def test_trailing_bytes_after_the_frame_are_quarantined(self, cache_dir):
        path = self._entry(cache_dir)
        with open(path, "ab") as handle:
            handle.write(b"\0" * 5)
        builds = []
        assert self._reload(builds) == {"a": 1}
        assert builds == [1]
        assert os.path.exists(path + ".corrupt")
        assert self._reload(builds) == {"a": 1} and builds == [1]

    def test_second_frame_is_quarantined(self, cache_dir):
        path = self._entry(cache_dir)
        with SegmentAppendLog(path) as log:
            log.append({"a": 2})
        builds = []
        assert self._reload(builds) == {"a": 1}
        assert builds == [1]
        assert os.path.exists(path + ".corrupt")

    def test_empty_entry_is_quarantined(self, cache_dir):
        path = self._entry(cache_dir)
        open(path, "wb").close()
        builds = []
        assert self._reload(builds) == {"a": 1}
        assert builds == [1]
        assert os.path.exists(path + ".corrupt")

    def test_payload_the_decoder_refuses_is_rebuilt_not_quarantined(self, cache_dir):
        path = self._entry(cache_dir)
        builds = []

        def refuse(payload):
            raise ValueError("stale payload format")

        def build():
            builds.append(1)
            return {"a": 1}

        assert load_or_build("k", "s", build, None, _same, refuse) == {"a": 1}
        assert builds == [1]
        assert not os.path.exists(path + ".corrupt")
        assert self._reload(builds) == {"a": 1} and builds == [1]

    def test_encoder_failure_degrades_to_uncached(self, cache_dir):
        def explode(value):
            raise RuntimeError("cannot encode")

        assert load_or_build("k", "s", lambda: 7, None, explode, _same) == 7
        assert not os.path.exists(cache_path_for("k", "s"))
        assert not cache_dir.exists() or not [
            name for name in os.listdir(cache_dir) if name.endswith(".tmp")
        ]
