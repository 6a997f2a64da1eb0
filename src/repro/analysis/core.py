"""Framework of the contract-enforcing static-analysis suite.

Everything here is stdlib-``ast`` only: a :class:`ModuleInfo` is one parsed
source file, a :class:`Project` is the set of files one run scans, and a
:class:`Checker` is a registered rule that inspects modules (per-file) and
the whole project (cross-file, in :meth:`Checker.finalize`).

Three escape hatches keep the suite honest instead of annoying:

* **suppressions** — a ``# repro: allow(<rule>)`` comment on the offending
  line (or the line above) silences that rule there, ideally with a
  trailing justification;
* **baseline** — grandfathered findings live in ``baseline.json`` next to
  this package (see :mod:`repro.analysis.baseline`), each with a one-line
  justification; the gate fails only on *non-baselined* findings;
* **anchors** — findings carry a stable ``anchor`` (a symbol or site name,
  not a line number), so baseline entries survive unrelated edits.

The two front ends — ``python -m repro.analysis`` and the tier-1 pytest
gate ``tests/test_static_analysis.py`` — both call :func:`run_analysis`.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

__all__ = [
    "AnalysisError",
    "AnalysisReport",
    "Checker",
    "Finding",
    "ModuleInfo",
    "Project",
    "REGISTRY",
    "default_checkers",
    "detect_root",
    "docstring_nodes",
    "iter_source_files",
    "load_module",
    "register",
    "run_analysis",
]

#: ``# repro: allow(rule-a, rule-b): optional justification``
_SUPPRESS = re.compile(r"#\s*repro:\s*allow\(([a-z0-9_,\s-]+)\)")

#: Directory names never descended into when walking a path argument.
#: ``analysis_fixtures`` holds deliberately-violating snippets for the
#: analyzer's own tests — they are scanned only when named explicitly.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".trace_cache", ".pytest_cache", "analysis_fixtures"}
)


class AnalysisError(RuntimeError):
    """The analysis run itself could not proceed (bad path, bad rule name)."""


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location."""

    rule: str
    path: str  # repo-relative, '/'-separated
    line: int
    message: str
    #: Stable identifier for baseline matching (a symbol/site name, not a
    #: line number, so grandfathered entries survive unrelated edits).
    anchor: str = ""

    @property
    def key(self) -> str:
        return f"{self.rule}:{self.path}:{self.anchor or self.line}"

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "anchor": self.anchor,
            "key": self.key,
        }


@dataclass
class ModuleInfo:
    """One parsed source file plus its per-line suppressions."""

    path: str  # absolute
    relpath: str  # repo-relative, '/'-separated
    source: str
    tree: ast.Module
    #: line number -> rule names allowed there (``*`` allows every rule).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def suppressed(self, finding: Finding) -> bool:
        """True when an allow-comment on the line (or the one above) covers
        the finding's rule."""
        for line in (finding.line, finding.line - 1):
            rules = self.suppressions.get(line)
            if rules and (finding.rule in rules or "*" in rules):
                return True
        return False


def _collect_suppressions(source: str) -> Dict[int, Set[str]]:
    lines = source.splitlines()
    suppressions: Dict[int, Set[str]] = {}
    for number, text in enumerate(lines, start=1):
        matched = _SUPPRESS.search(text)
        if not matched:
            continue
        rules = {piece.strip() for piece in matched.group(1).split(",")}
        rules = {rule for rule in rules if rule}
        suppressions.setdefault(number, set()).update(rules)
        # An allow marker on a comment-only line covers the whole contiguous
        # comment block below it, so a multi-line justification still lands
        # on the statement it precedes.
        if text.lstrip().startswith("#"):
            follower = number + 1
            while follower <= len(lines) and lines[follower - 1].lstrip().startswith("#"):
                suppressions.setdefault(follower, set()).update(rules)
                follower += 1
    return suppressions


def load_module(path: str, root: Optional[str] = None, relpath: Optional[str] = None) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo`.

    ``relpath`` overrides the computed repo-relative path — the analyzer
    fixture tests use this to make a snippet masquerade as (say) a kernels
    module so scoped rules apply to it.
    """
    path = os.path.abspath(path)
    if relpath is None:
        base = root if root is not None else os.getcwd()
        relpath = os.path.relpath(path, base)
    relpath = relpath.replace(os.sep, "/")
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        raise AnalysisError(f"{relpath}: cannot parse ({error})") from error
    return ModuleInfo(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        suppressions=_collect_suppressions(source),
    )


def detect_root(start: Optional[str] = None) -> str:
    """The repository root: the nearest ancestor holding pytest.ini/.git."""
    probe = os.path.abspath(start if start is not None else os.getcwd())
    if os.path.isfile(probe):
        probe = os.path.dirname(probe)
    while True:
        if any(
            os.path.exists(os.path.join(probe, marker))
            for marker in ("pytest.ini", ".git")
        ):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return os.path.abspath(start if start is not None else os.getcwd())
        probe = parent


def iter_source_files(path: str) -> Iterator[str]:
    """Yield the ``.py`` files under ``path`` (a file yields itself).

    Directory walks skip :data:`EXCLUDED_DIRS`; explicitly-named files are
    never excluded (which is how the fixture tests scan
    ``tests/analysis_fixtures/`` snippets).
    """
    if os.path.isfile(path):
        yield path
        return
    if not os.path.isdir(path):
        raise AnalysisError(f"no such file or directory: {path}")
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames[:] = sorted(d for d in dirnames if d not in EXCLUDED_DIRS)
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


class Project:
    """The module set of one analysis run, plus lazy out-of-scan loading."""

    def __init__(self, root: str, modules: Sequence[ModuleInfo]) -> None:
        self.root = root
        self.modules: List[ModuleInfo] = list(modules)
        self.by_relpath: Dict[str, ModuleInfo] = {
            module.relpath: module for module in self.modules
        }

    def module(self, relpath: str) -> Optional[ModuleInfo]:
        """The module at a repo-relative path, loading it if not scanned.

        Cross-file checkers (parity pairs, the fault-site registry) need
        their counterpart files even when the scan paths did not cover
        them; lazily-loaded modules still participate in suppression
        matching.  Returns ``None`` when the file does not exist.
        """
        module = self.by_relpath.get(relpath)
        if module is not None:
            return module
        path = os.path.join(self.root, relpath.replace("/", os.sep))
        if not os.path.isfile(path):
            return None
        module = load_module(path, root=self.root, relpath=relpath)
        self.by_relpath[relpath] = module
        return module


class Checker:
    """One registered rule.  Subclasses override the hooks they need."""

    #: Rule name — used in CLI ``--rule``, suppressions and baseline keys.
    name: str = ""
    description: str = ""

    def applies_to(self, relpath: str) -> bool:
        """Whether :meth:`check_module` should see this file at all."""
        return True

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def finalize(self, project: Project) -> Iterable[Finding]:
        """Cross-file checks, run once after every module was visited."""
        return ()


#: name -> Checker subclass; populated by the :func:`register` decorator as
#: the checker modules import (``repro.analysis.__init__`` imports them all).
REGISTRY: Dict[str, type] = {}


def register(cls: type) -> type:
    if not cls.name:
        raise ValueError(f"checker {cls!r} has no rule name")
    REGISTRY[cls.name] = cls
    return cls


def default_checkers(rules: Optional[Sequence[str]] = None) -> List[Checker]:
    """Instances of every registered checker (or the named subset)."""
    if rules is None:
        names = sorted(REGISTRY)
    else:
        unknown = sorted(set(rules) - set(REGISTRY))
        if unknown:
            raise AnalysisError(
                f"unknown rule(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(REGISTRY))})"
            )
        names = list(dict.fromkeys(rules))
    return [REGISTRY[name]() for name in names]


# -- shared AST helpers -------------------------------------------------------

def docstring_nodes(tree: ast.Module) -> Set[int]:
    """``id()`` of every docstring Constant — so string scans skip prose."""
    nodes: Set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            body = getattr(node, "body", [])
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                nodes.add(id(body[0].value))
    return nodes


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


# -- the run ------------------------------------------------------------------

@dataclass
class AnalysisReport:
    """Outcome of one :func:`run_analysis` call."""

    root: str
    files_scanned: int
    rules: List[str]
    #: Non-suppressed, non-baselined findings — the ones that fail the gate.
    findings: List[Finding]
    #: Findings matched by a baseline entry (visible, not failing).
    baselined: List[Finding]
    #: Baseline entries that matched nothing this run (candidates to drop).
    stale_baseline: List[dict]

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "files_scanned": self.files_scanned,
            "rules": self.rules,
            "ok": self.ok,
            "findings": [finding.to_dict() for finding in self.findings],
            "baselined": [finding.to_dict() for finding in self.baselined],
            "stale_baseline": list(self.stale_baseline),
        }


def analyze_project(
    project: Project, checkers: Sequence[Checker]
) -> List[Finding]:
    """Run the checkers over a project; suppressions applied, baseline not."""
    findings: List[Finding] = []
    for module in project.modules:
        for checker in checkers:
            if checker.applies_to(module.relpath):
                findings.extend(checker.check_module(module))
    for checker in checkers:
        findings.extend(checker.finalize(project))
    kept = []
    for finding in findings:
        module = project.by_relpath.get(finding.path)
        if module is not None and module.suppressed(finding):
            continue
        kept.append(finding)
    kept.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return kept


def run_analysis(
    paths: Optional[Sequence[str]] = None,
    rules: Optional[Sequence[str]] = None,
    root: Optional[str] = None,
    baseline_path: Optional[str] = None,
    use_baseline: bool = True,
) -> AnalysisReport:
    """Scan ``paths`` (default: ``src`` under the repo root) with the
    registered checkers and split findings against the committed baseline."""
    from repro.analysis.baseline import Baseline, load_baseline

    if root is None:
        root = detect_root(paths[0] if paths else None)
    root = os.path.abspath(root)
    if not paths:
        paths = ["src"]
    files: List[str] = []
    seen: Set[str] = set()
    for path in paths:
        absolute = path if os.path.isabs(path) else os.path.join(root, path)
        for file_path in iter_source_files(absolute):
            if file_path not in seen:
                seen.add(file_path)
                files.append(file_path)
    modules = [load_module(path, root=root) for path in files]
    project = Project(root, modules)
    checkers = default_checkers(rules)
    all_findings = analyze_project(project, checkers)
    baseline = load_baseline(baseline_path) if use_baseline else Baseline()
    new: List[Finding] = []
    grandfathered: List[Finding] = []
    matched_keys: Set[str] = set()
    for finding in all_findings:
        if baseline.matches(finding):
            grandfathered.append(finding)
            matched_keys.add(finding.key)
        else:
            new.append(finding)
    stale = [entry for entry in baseline.entries if entry_key(entry) not in matched_keys]
    return AnalysisReport(
        root=root,
        files_scanned=len(files),
        rules=[checker.name for checker in checkers],
        findings=new,
        baselined=grandfathered,
        stale_baseline=stale,
    )


def entry_key(entry: dict) -> str:
    return f"{entry.get('rule')}:{entry.get('path')}:{entry.get('anchor')}"
