"""Every ``BENCH_*.json`` payload carries the environment stamp.

:func:`conftest.record` is the one writer of the tracked artifacts, and it
merges :func:`conftest.bench_env` into each payload, so numbers recorded on
different hosts stay comparable by construction.
"""

import json

import pytest

from conftest import bench_env, record


@pytest.mark.analysis
def test_record_stamps_every_payload(tmp_path):
    path = tmp_path / "BENCH_example.json"
    record(str(path), "example.first", {"seconds": 1.5})
    record(str(path), "example.second", {"seconds": 2.5})
    data = json.loads(path.read_text())
    assert sorted(data) == ["example.first", "example.second"]
    for key, seconds in (("example.first", 1.5), ("example.second", 2.5)):
        assert data[key] == {"seconds": seconds, **bench_env()}
    assert set(bench_env()) == {"cpus"}
