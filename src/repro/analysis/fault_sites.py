"""Rule ``fault-site-registry``: fault sites stay in sync with the table.

The fault harness (:mod:`repro.testing.faults`) addresses injection points
by *site* strings (``feed.read``, ``segment.roll``, …).  Those strings
appear in three places that must agree: the canonical registry
(``KNOWN_SITES`` in ``testing/faults.py``), the production hook calls, and
the textual plans tests/benchmarks arm (``kill@segment.append;after=2``).
A typo in any of them fails *open* — the injector simply never fires, and
a robustness test silently tests nothing — so this rule closes the loop
both ways:

* every site used at a hook call or inside a plan string must appear in
  ``KNOWN_SITES`` (fnmatch patterns must match at least one known site);
* every ``KNOWN_SITES`` entry must be used somewhere in the scanned tree
  (checked only when ``testing/faults.py`` itself is in the scan, so
  narrow fixture runs do not false-fire).

Site usages are extracted from: ``injector.fire(...)`` / ``.check(...)``
first arguments, the ingest helpers' site arguments, ``FaultSpec(kind,
site)`` constructions, and any non-docstring string literal written in the
``kind@site[;...]`` plan grammar (f-strings included — the site precedes
any interpolated field).
"""

from __future__ import annotations

import ast
import re
from fnmatch import fnmatchcase
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    Checker,
    Finding,
    ModuleInfo,
    Project,
    docstring_nodes,
    register,
)

__all__ = ["FaultSiteChecker", "known_sites_from_module"]

FAULTS_RELPATH = "src/repro/testing/faults.py"

#: callable name -> index of its site argument.
CALL_SITE_ARGS: Dict[str, int] = {
    "fire": 0,
    "check": 0,
    "_fire": 0,
    "_fault_hook": 0,
    "_execute_feed_fault": 1,
}

#: The plan grammar: ``kind@site`` with kind from faults.KINDS.  The site
#: part may be an fnmatch pattern; it ends at ``;`` (field separator) or
#: ``,`` (spec separator).
_GRAMMAR = re.compile(r"\b(?:crash|kill|hang|io_error|corrupt)@([^;,\s]+)")


def known_sites_from_module(module: ModuleInfo) -> Optional[Tuple[Dict[str, int], int]]:
    """``(site -> line, assignment line)`` of the KNOWN_SITES dict literal."""
    for node in module.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "KNOWN_SITES":
                value = node.value
                if not isinstance(value, ast.Dict):
                    return None
                sites = {
                    key.value: key.lineno
                    for key in value.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                }
                return sites, node.lineno
    return None


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _string_arg(call: ast.Call, index: int, keyword: Optional[str] = None):
    if len(call.args) > index:
        node = call.args[index]
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, node.lineno
    if keyword is not None:
        for kw in call.keywords:
            if kw.arg == keyword and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    return kw.value.value, kw.value.lineno
    return None


def collect_site_usages(module: ModuleInfo) -> List[Tuple[str, int]]:
    """Every (site-or-pattern, line) referenced by this module."""
    usages: List[Tuple[str, int]] = []
    docstrings = docstring_nodes(module.tree)
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in CALL_SITE_ARGS:
                found = _string_arg(node, CALL_SITE_ARGS[name], keyword="site")
                if found is not None:
                    usages.append(found)
            elif name == "FaultSpec":
                found = _string_arg(node, 1, keyword="site")
                if found is not None:
                    usages.append(found)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) in docstrings:
                continue
            for match in _GRAMMAR.finditer(node.value):
                usages.append((match.group(1), node.lineno))
        elif isinstance(node, ast.JoinedStr):
            # f-strings: the site of a plan spec precedes any interpolated
            # field, so scanning the constant pieces is sufficient.
            for piece in node.values:
                if isinstance(piece, ast.Constant) and isinstance(piece.value, str):
                    for match in _GRAMMAR.finditer(piece.value):
                        usages.append((match.group(1), piece.lineno))
    return usages


_GLOB_CHARS = set("*?[")


@register
class FaultSiteChecker(Checker):
    name = "fault-site-registry"
    description = (
        "fault-site strings at hooks and in plan specs match "
        "testing/faults.KNOWN_SITES, and every known site is exercised"
    )

    def __init__(self, known_sites: Optional[Sequence[str]] = None) -> None:
        #: Test override: a fixed site set instead of parsing faults.py.
        self._known_override = tuple(known_sites) if known_sites is not None else None

    def finalize(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        registry_line = 1
        if self._known_override is not None:
            known: Dict[str, int] = {site: 1 for site in self._known_override}
        else:
            faults_module = project.module(FAULTS_RELPATH)
            if faults_module is None:
                return ()
            parsed = known_sites_from_module(faults_module)
            if parsed is None:
                return [
                    Finding(
                        rule=self.name,
                        path=FAULTS_RELPATH,
                        line=1,
                        message=(
                            "KNOWN_SITES dict-literal registry not found in "
                            "testing/faults.py — the canonical site table must "
                            "be a structured constant, not docstring prose"
                        ),
                        anchor="missing-registry",
                    )
                ]
            known, registry_line = parsed

        used: Set[str] = set()
        for module in project.modules:
            for site, line in collect_site_usages(module):
                if _GLOB_CHARS & set(site):
                    matched = [name for name in known if fnmatchcase(name, site)]
                    used.update(matched)
                    if not matched:
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=module.relpath,
                                line=line,
                                message=(
                                    f"fault-site pattern {site!r} matches no "
                                    "entry of testing/faults.KNOWN_SITES"
                                ),
                                anchor=f"unknown-site:{site}",
                            )
                        )
                elif site in known:
                    used.add(site)
                else:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=module.relpath,
                            line=line,
                            message=(
                                f"fault site {site!r} is not in "
                                "testing/faults.KNOWN_SITES — a typo here fails "
                                "open (the injector never fires); register the "
                                "site or fix the string"
                            ),
                            anchor=f"unknown-site:{site}",
                        )
                    )
        # The reverse direction only makes sense on a scan that includes the
        # registry's own tree (the tier-1 gate scans src+tests+benchmarks).
        if (
            self._known_override is None
            and any(m.relpath == FAULTS_RELPATH for m in project.modules)
        ):
            for site in sorted(set(known) - used):
                findings.append(
                    Finding(
                        rule=self.name,
                        path=FAULTS_RELPATH,
                        line=known.get(site, registry_line),
                        message=(
                            f"KNOWN_SITES entry {site!r} is never used by any "
                            "hook or plan in the scanned tree — dead registry "
                            "entries hide coverage gaps"
                        ),
                        anchor=f"unused-site:{site}",
                    )
                )
        return findings
