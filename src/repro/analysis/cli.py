"""Command-line entry point: ``python -m repro.analysis [paths...]``.

Exit status is 0 when the scanned tree is clean (after suppressions and
the committed baseline) and 1 when any finding remains — so the command
drops straight into CI. ``--json`` emits the full machine-readable report
(the same shape the tier-1 gate consumes).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.core import REGISTRY, AnalysisError, run_analysis


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Contract-enforcing static analysis for the repro tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: src, tests, benchmarks, bench)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full report as JSON on stdout",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="NAME",
        help="run only this rule (repeatable); default: all registered rules",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--baseline",
        metavar="PATH",
        help="baseline file of grandfathered findings "
        "(default: src/repro/analysis/baseline.json)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report grandfathered findings too",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        help="repository root for relative paths (default: auto-detected)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(REGISTRY):
            print(f"{name}: {REGISTRY[name]().description}")
        return 0

    try:
        report = run_analysis(
            paths=args.paths or ["src", "tests", "benchmarks", "bench"],
            rules=args.rules,
            root=args.root,
            baseline_path=args.baseline,
            use_baseline=not args.no_baseline,
        )
    except AnalysisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        _print_human(report)
    return 0 if report.ok else 1


def _print_human(report) -> None:
    for finding in report.findings:
        print(finding.format())
    for key in report.stale_baseline:
        print(f"stale baseline entry (no longer fires, remove it): {key}")
    summary: List[str] = [
        f"{report.files_scanned} files",
        f"{len(report.rules)} rules",
        f"{len(report.findings)} finding(s)",
    ]
    if report.baselined:
        summary.append(f"{len(report.baselined)} baselined")
    print(("OK: " if report.ok else "FAIL: ") + ", ".join(summary))


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
