"""Tier-1 gate for the contract-enforcing static-analysis suite.

Three layers:

* **the gate** — the shipped tree (src + tests + benchmarks) must be
  clean under every registered rule, with no stale baseline entries, in
  well under the ~5 s budget;
* **the rules** — each checker fires exactly once on its ``*_bad.py``
  fixture and stays quiet on its ``*_ok.py`` counterpart (fixtures live
  in ``tests/analysis_fixtures/``, excluded from tree scans and loaded
  here with masqueraded relpaths so scoped rules apply);
* **the escape hatches** — suppression comments (inline and
  comment-block form), the baseline (grandfathering, staleness,
  malformed-file rejection) and the CLI's exit codes.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from repro.analysis import REGISTRY, run_analysis
from repro.analysis.baseline import load_baseline
from repro.analysis.core import (
    AnalysisError,
    Project,
    analyze_project,
    load_module,
)
from repro.analysis.fault_sites import FaultSiteChecker, known_sites_from_module
from repro.analysis.parity import ClassPair, ParityChecker
from repro.testing import faults

pytestmark = pytest.mark.analysis

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
FIXTURES = os.path.join(TESTS_DIR, "analysis_fixtures")

EXPECTED_RULES = {
    "async-safety",
    "bench-schema",
    "durability-ordering",
    "fault-site-registry",
    "kernel-purity",
    "parity-pair",
}


def _fixture(name):
    return os.path.join(FIXTURES, name)


def _scan_fixture(name, relpath, checker):
    """Run one checker over one fixture file masquerading at ``relpath``."""
    module = load_module(_fixture(name), relpath=relpath)
    project = Project(REPO_ROOT, [module])
    return analyze_project(project, [checker])


def _checker(rule):
    return REGISTRY[rule]()


# -- the gate -----------------------------------------------------------------


def test_shipped_tree_is_clean_within_budget():
    started = time.monotonic()
    report = run_analysis(
        paths=["src", "tests", "benchmarks"], root=REPO_ROOT
    )
    elapsed = time.monotonic() - started
    assert set(report.rules) == EXPECTED_RULES
    assert report.findings == [], "\n".join(f.format() for f in report.findings)
    assert report.stale_baseline == []
    assert report.files_scanned > 100
    assert elapsed < 5.0, f"analysis gate took {elapsed:.2f}s (budget 5s)"


def test_every_baseline_entry_is_justified():
    baseline = load_baseline()
    for entry in baseline.entries:
        assert len(entry["justification"].split()) >= 5


# -- kernel-purity ------------------------------------------------------------


def test_kernel_purity_fires_on_numpy_in_package():
    findings = _scan_fixture(
        "kernel_purity_bad.py",
        "src/repro/core/fit_score.py",
        _checker("kernel-purity"),
    )
    assert [f.anchor for f in findings] == ["numpy:numpy"]


def test_kernel_purity_fires_on_interning_import_in_kernels():
    findings = _scan_fixture(
        "kernel_purity_import_bad.py",
        "src/repro/core/kernels/fancy.py",
        _checker("kernel-purity"),
    )
    assert [f.anchor for f in findings] == ["kernel-import:repro.traces.columnar"]


def test_kernel_purity_fires_on_column_mutation():
    findings = _scan_fixture(
        "kernel_purity_mutation_bad.py",
        "src/repro/core/kernels/fancy.py",
        _checker("kernel-purity"),
    )
    assert [f.anchor for f in findings] == ["mutation:rewrite_times:times"]


def test_kernel_purity_quiet_on_stdlib_kernel():
    findings = _scan_fixture(
        "kernel_purity_ok.py",
        "src/repro/core/kernels/fancy.py",
        _checker("kernel-purity"),
    )
    assert findings == []


# -- parity-pair --------------------------------------------------------------


def _parity_checker(twin_fixture):
    pair = ClassPair(
        "tests/analysis_fixtures/parity_ref.py",
        "Reference",
        "tests/analysis_fixtures/" + twin_fixture,
        "Twin",
    )
    return ParityChecker(class_pairs=(pair,), method_pairs=())


def _run_parity(twin_fixture):
    ref = load_module(
        _fixture("parity_ref.py"), relpath="tests/analysis_fixtures/parity_ref.py"
    )
    twin = load_module(
        _fixture(twin_fixture), relpath="tests/analysis_fixtures/" + twin_fixture
    )
    project = Project(REPO_ROOT, [ref, twin])
    return analyze_project(project, [_parity_checker(twin_fixture)])


def test_parity_fires_on_signature_drift():
    findings = _run_parity("parity_twin_bad.py")
    assert [f.anchor for f in findings] == ["signature:Twin.find_crossing"]


def test_parity_fires_on_missing_public_method():
    findings = _run_parity("parity_twin_missing_bad.py")
    assert [f.anchor for f in findings] == ["missing-method:Twin.run_lengths"]


def test_parity_quiet_on_compatible_twin():
    assert _run_parity("parity_twin_ok.py") == []


def test_parity_defaults_hold_on_real_tree():
    project = Project(REPO_ROOT, [])
    assert list(ParityChecker().finalize(project)) == []


# -- async-safety -------------------------------------------------------------


def test_async_safety_fires_on_blocking_sleep():
    findings = _scan_fixture(
        "async_safety_bad.py", "src/repro/ingest/fancy.py", _checker("async-safety")
    )
    assert [f.anchor for f in findings] == ["poll_feed:time.sleep"]


def test_async_safety_quiet_on_async_idioms():
    findings = _scan_fixture(
        "async_safety_ok.py", "src/repro/ingest/fancy.py", _checker("async-safety")
    )
    assert findings == []


# -- durability-ordering ------------------------------------------------------


def test_durability_fires_on_bare_write():
    findings = _scan_fixture(
        "durability_bad.py", "src/repro/fancy.py", _checker("durability-ordering")
    )
    assert [f.anchor for f in findings] == ["save_state:open"]


def test_durability_quiet_on_write_atomic():
    findings = _scan_fixture(
        "durability_ok.py", "src/repro/fancy.py", _checker("durability-ordering")
    )
    assert findings == []


# -- fault-site-registry ------------------------------------------------------


def test_fault_sites_fires_on_unknown_site():
    findings = _scan_fixture(
        "fault_sites_bad.py",
        "src/repro/fancy.py",
        FaultSiteChecker(known_sites=["fixture.known"]),
    )
    assert [f.anchor for f in findings] == ["unknown-site:fixture.unknown"]


def test_fault_sites_quiet_on_registered_sites():
    findings = _scan_fixture(
        "fault_sites_ok.py",
        "src/repro/fancy.py",
        FaultSiteChecker(known_sites=["fixture.known"]),
    )
    assert findings == []


def test_known_sites_constant_matches_parsed_registry():
    module = load_module(
        os.path.join(REPO_ROOT, "src", "repro", "testing", "faults.py"),
        relpath="src/repro/testing/faults.py",
    )
    parsed = known_sites_from_module(module)
    assert parsed is not None
    sites, _line = parsed
    assert set(sites) == set(faults.KNOWN_SITES)
    for site, (key_shape, kinds) in faults.KNOWN_SITES.items():
        assert key_shape
        assert kinds and set(kinds) <= set(faults.KINDS), site


# -- bench-schema -------------------------------------------------------------


def test_bench_schema_fires_without_bench_env():
    findings = _scan_fixture(
        "bench_schema_bad.py",
        "benchmarks/test_bench_fixture.py",
        _checker("bench-schema"),
    )
    assert [f.anchor for f in findings] == ["missing-bench-env-call"]


def test_bench_schema_quiet_with_bench_env():
    findings = _scan_fixture(
        "bench_schema_ok.py",
        "benchmarks/test_bench_fixture.py",
        _checker("bench-schema"),
    )
    assert findings == []


# -- suppressions -------------------------------------------------------------


def test_suppression_comment_silences_inline_and_block_forms():
    findings = _scan_fixture(
        "durability_suppressed.py",
        "src/repro/fancy.py",
        _checker("durability-ordering"),
    )
    assert findings == []


# -- baseline -----------------------------------------------------------------


def _tmp_tree_with_violation(tmp_path):
    """A throwaway repo root holding one durability violation."""
    target_dir = tmp_path / "src" / "repro"
    target_dir.mkdir(parents=True)
    shutil.copy(_fixture("durability_bad.py"), target_dir / "state.py")
    return tmp_path


def test_baseline_grandfathers_and_reports_staleness(tmp_path):
    root = _tmp_tree_with_violation(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps(
            [
                {
                    "rule": "durability-ordering",
                    "path": "src/repro/state.py",
                    "anchor": "save_state:open",
                    "justification": "fixture entry used by the analyzer test suite",
                },
                {
                    "rule": "durability-ordering",
                    "path": "src/repro/gone.py",
                    "anchor": "never_fires:open",
                    "justification": "stale fixture entry that matches nothing",
                },
            ]
        )
    )
    report = run_analysis(
        paths=["src"],
        rules=["durability-ordering"],
        root=str(root),
        baseline_path=str(baseline_path),
    )
    assert report.ok
    assert [f.anchor for f in report.baselined] == ["save_state:open"]
    assert [e["path"] for e in report.stale_baseline] == ["src/repro/gone.py"]

    unbaselined = run_analysis(
        paths=["src"],
        rules=["durability-ordering"],
        root=str(root),
        use_baseline=False,
    )
    assert not unbaselined.ok
    assert [f.anchor for f in unbaselined.findings] == ["save_state:open"]


def test_malformed_baseline_is_rejected(tmp_path):
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(
        json.dumps([{"rule": "durability-ordering", "path": "x.py", "anchor": "a"}])
    )
    with pytest.raises(AnalysisError, match="justification"):
        load_baseline(str(baseline_path))


# -- CLI ----------------------------------------------------------------------


def _run_cli(args, cwd):
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis"] + args,
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_exits_zero_on_clean_tree_and_nonzero_on_findings(tmp_path):
    clean = _run_cli(["--json", "src"], cwd=REPO_ROOT)
    assert clean.returncode == 0, clean.stdout + clean.stderr
    payload = json.loads(clean.stdout)
    assert payload["ok"] is True
    assert set(payload["rules"]) == EXPECTED_RULES

    root = _tmp_tree_with_violation(tmp_path)
    dirty = _run_cli(
        ["--rule", "durability-ordering", "--root", str(root), "src"],
        cwd=str(root),
    )
    assert dirty.returncode == 1, dirty.stdout + dirty.stderr
    assert "durability-ordering" in dirty.stdout
