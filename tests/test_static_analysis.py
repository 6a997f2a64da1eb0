"""Tier-1 gate for the contract-enforcing static-analysis suite.

Three layers:

* **the gate** — the shipped tree (src + tests + benchmarks + bench) must be
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
from repro.testing import faults

pytestmark = pytest.mark.analysis

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TESTS_DIR)
FIXTURES = os.path.join(TESTS_DIR, "analysis_fixtures")

EXPECTED_RULES = {"async-safety", "durability-ordering", "fault-site-registry"}


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
        paths=["src", "tests", "benchmarks", "bench"], root=REPO_ROOT
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


def test_baseline_entries_the_scan_could_not_match_are_not_stale(tmp_path):
    root = _tmp_tree_with_violation(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    entries = [
        ("durability-ordering", "src/repro/state.py", "save_state:open"),
        ("durability-ordering", "bench/unscanned.py", "elsewhere:open"),
        ("async-safety", "src/repro/state.py", "other_rule:call"),
    ]
    baseline_path.write_text(json.dumps([
        {"rule": rule, "path": path, "anchor": anchor,
         "justification": "fixture entry used by the analyzer test suite"}
        for rule, path, anchor in entries
    ]))
    report = run_analysis(
        paths=["src"],
        rules=["durability-ordering"],
        root=str(root),
        baseline_path=str(baseline_path),
    )
    assert report.ok
    assert [f.anchor for f in report.baselined] == ["save_state:open"]
    assert report.stale_baseline == []
    # Every rule over src: the async-safety entry could have fired and did
    # not; the bench/ one still could not.
    every_rule = run_analysis(
        paths=["src"], root=str(root), baseline_path=str(baseline_path)
    )
    assert [e["anchor"] for e in every_rule.stale_baseline] == ["other_rule:call"]


def test_unknown_rules_are_refused_by_the_engine():
    with pytest.raises(AnalysisError) as refused:
        run_analysis(paths=["src"], rules=["parity-pair"], root=REPO_ROOT)
    assert str(refused.value) == (
        "unknown rule(s): parity-pair (registered: "
        + ", ".join(sorted(EXPECTED_RULES))
        + ")"
    )


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


def test_cli_lists_only_the_kept_rules_and_refuses_retired_ones():
    listed = _run_cli(["--list-rules"], cwd=REPO_ROOT)
    assert listed.returncode == 0, listed.stderr
    listed_rules = [line.split(":")[0] for line in listed.stdout.splitlines()]
    assert listed_rules == sorted(EXPECTED_RULES)

    retired = _run_cli(["--rule", "parity-pair"], cwd=REPO_ROOT)
    assert retired.returncode == 2
    assert (
        "unknown rule(s): parity-pair (registered: "
        + ", ".join(sorted(EXPECTED_RULES))
        + ")"
    ) in retired.stderr
