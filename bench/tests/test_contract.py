"""``BENCHMARK.json`` against what the runner prints, and against the limits
the benchmark contract puts on the file."""

import json
import os
import re
import subprocess
import sys

from bench import harness, layers
from bench.workloads import GATED, WORKLOADS

ROOT = harness.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_the_file_has_exactly_the_contract_keys():
    document = contract()
    assert set(document) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert document["paths"] == ["bench"]
    assert document["command"] == ["python3", "bench/run.py"]
    assert isinstance(document["run_seconds"], int) and 1 <= document["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_workloads_are_the_runners_gated_ones():
    listed = contract()["workloads"]
    assert [entry["name"] for entry in listed] == list(GATED)
    assert set(GATED) <= set(WORKLOADS)
    assert 2 <= len(listed) <= 8
    for entry in listed:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == WORKLOADS[entry["name"]].why
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]


def test_end_to_end_metrics_are_what_a_run_prints():
    result = harness.PassResult(
        rows=1000, events={"e": 2.0}, attempted=1, failed=0, signature=()
    )
    record = harness.PassRecord(setup_s=0.5, phase_s=2.0, cpu_s=1.5, result=result)
    printed, latency = harness.end_to_end_metrics([record, record])
    assert latency.samples == 2
    listed = contract()["end_to_end"]
    assert [entry["name"] for entry in listed] == list(printed)
    for entry in listed:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["unit"] == printed[entry["name"]]["unit"]
        assert entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
    by_name = {entry["name"]: entry for entry in listed}
    assert by_name["setup_s"]["unit"] == "s" and by_name["setup_s"]["better"] == "lower"
    # set-up time carries the largest bound
    assert by_name["setup_s"]["bound"] == max(entry["bound"] for entry in listed)
    assert printed["msgs_per_s"]["value"] == 500.0
    assert printed["cpu_us_per_msg"]["value"] == 1500.0


def test_per_layer_metrics_are_the_registry():
    listed = contract()["per_layer"]
    assert [(e["name"], e["unit"], e["better"]) for e in listed] == list(layers.PER_LAYER)
    assert 1 <= len(listed) <= 128
    for entry in listed:
        assert set(entry) == {"name", "unit", "better"}


def test_names_and_units_are_within_the_contract_limits():
    document = contract()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in document[key]
    ]
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.match(name), name
    for key in ("end_to_end", "per_layer"):
        for entry in document[key]:
            assert UNIT.match(entry["unit"]), entry


def test_refuses_to_run_with_fault_injection_armed():
    environment = dict(os.environ, REPRO_FAULTS="crash@fleet.worker")
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--check"],
        env=environment, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert completed.returncode != 0
    assert "REPRO_FAULTS" in completed.stderr


def test_check_smoke_exercises_every_workload():
    completed = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--check"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    assert completed.returncode == 0, completed.stdout
    for name in WORKLOADS:
        for metric in ("setup_s", "msgs_per_s", "react_ms_p50", "react_ms_p90",
                       "cpu_us_per_msg", "peak_rss_mb"):
            assert f"{name}/{metric} = " in completed.stdout
    assert "check: ok" in completed.stdout
