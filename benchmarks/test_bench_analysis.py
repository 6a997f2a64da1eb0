"""Static-analysis pass benchmark, recorded in ``BENCH_analysis.json``.

One number keeps the lint gate honest about its tier-1 budget: wall time
for a full :func:`repro.analysis.run_analysis` pass over src + tests +
benchmarks, alongside the coverage it bought (files scanned, rules run,
finding counts).  The gate test asserts the <5 s budget; this benchmark
records the actual cost so budget creep shows up in the artifact history
before it trips the assert.

Results carry the environment fields every ``BENCH_*.json`` has (see
:func:`conftest.bench_env`).  Unlike the heavyweight suites this one is
cheap enough to run in the tier-1 default (no ``slow`` marker) — where it
records under pytest's temp dir, not into the tracked ``BENCH_analysis.json``
(see ``conftest.py``).  No ``slow`` test writes that file, so refresh it by
hand from such a run when the gate's cost is worth re-recording.
"""

import os
import time

import pytest

from conftest import bench_env, record

from repro.analysis import run_analysis

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(_REPO_ROOT, "BENCH_analysis.json")


@pytest.mark.analysis
def test_bench_analysis_full_pass():
    """Wall time of the full-tree analysis pass the tier-1 gate runs."""
    begin = time.perf_counter()
    report = run_analysis(
        paths=["src", "tests", "benchmarks"], root=_REPO_ROOT
    )
    elapsed = time.perf_counter() - begin

    assert report.ok, "\n".join(f.format() for f in report.findings)
    payload = {
        "files_scanned": report.files_scanned,
        "rules": report.rules,
        "findings": len(report.findings),
        "baselined": len(report.baselined),
        "stale_baseline": len(report.stale_baseline),
        "wall_seconds": round(elapsed, 3),
        "files_per_second": round(report.files_scanned / elapsed, 1),
        **bench_env(),
    }
    record(RESULTS_PATH, "analysis.full_pass", payload)
    print()
    print(
        f"  analysis: {report.files_scanned} files x {len(report.rules)} rules "
        f"in {elapsed:.2f}s -> {payload['files_per_second']} files/s, "
        f"{payload['findings']} findings ({payload['baselined']} baselined)"
    )
