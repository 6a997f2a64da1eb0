"""Rule ``kernel-purity``: the kernel-layer contract, machine-checked.

The contract (``src/repro/core/README.md``, shipped with PR 6):

* kernels read immutable column views and return plain row indices/counts —
  they never mutate a column argument;
* no interning table (or any message/attribute object machinery) is ever
  touched inside a kernel: materialising interned objects is the caller's
  job, so nothing under :mod:`repro.traces` / :mod:`repro.bgp` may be
  imported by a kernels module;
* no module under ``src/repro/`` imports numpy: the package is stdlib-only,
  and a numpy kernel earns its way back only through a gated benchmark it
  moves past its bound (ROADMAP "Decided").

The mutation check is name-based: only arguments named like the run-column
contract's columns (``times``, ``kinds``, ``wd_end``, …) are tracked, so a
kernel's legitimately-mutable state (the detector's ``window`` deque) stays
out of scope by construction.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from repro.analysis.core import Checker, Finding, ModuleInfo, register

__all__ = ["KernelPurityChecker"]

KERNELS_PREFIX = "src/repro/core/kernels/"

#: Column-view parameter names of the run-column contract
#: (``src/repro/traces/README.md``).  Mutating any of these inside a kernel
#: breaks the "inputs are immutable views" clause.
COLUMN_PARAMS = frozenset(
    {
        "times",
        "kinds",
        "wd_end",
        "ann_end",
        "wd_prefix",
        "ann_prefix",
        "cumulative",
        "peers",
    }
)

#: Method calls that mutate their receiver.
MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "clear",
        "extend",
        "extendleft",
        "fill",
        "frombytes",
        "fromlist",
        "insert",
        "itemset",
        "pop",
        "popleft",
        "put",
        "remove",
        "resize",
        "reverse",
        "sort",
    }
)

#: Import prefixes that carry interning tables / message objects — the
#: machinery the kernel contract keeps on the caller's side of the seam.
FORBIDDEN_PREFIXES = ("repro.traces", "repro.bgp")


def _imported_names(node: ast.AST) -> List[str]:
    """Fully-qualified module names an Import/ImportFrom statement touches."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        base = node.module or ""
        names = [base] if base else []
        names.extend(
            f"{base}.{alias.name}" if base else alias.name for alias in node.names
        )
        return names
    return []


@register
class KernelPurityChecker(Checker):
    name = "kernel-purity"
    description = (
        "kernels stay pure: no interning-table imports or column mutation in "
        "core/kernels/, and no numpy anywhere under src/repro/"
    )

    def applies_to(self, relpath: str) -> bool:
        return relpath.startswith("src/repro/")

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        findings: List[Finding] = []
        in_kernels = module.relpath.startswith(KERNELS_PREFIX)

        for node in ast.walk(module.tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in _imported_names(node):
                    if name == "numpy" or name.startswith("numpy."):
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=module.relpath,
                                line=node.lineno,
                                message=(
                                    f"src/repro/ is stdlib-only: {name!r} must "
                                    "not be imported"
                                ),
                                anchor=f"numpy:{name}",
                            )
                        )
                        break
                    if in_kernels and any(
                        name == prefix or name.startswith(prefix + ".")
                        for prefix in FORBIDDEN_PREFIXES
                    ):
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=module.relpath,
                                line=node.lineno,
                                message=(
                                    f"kernels must not import {name!r}: interning "
                                    "tables and message objects stay on the "
                                    "caller's side of the kernel seam"
                                ),
                                anchor=f"kernel-import:{name}",
                            )
                        )
            elif in_kernels and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                findings.extend(self._column_mutations(module, node))
        return findings

    def _column_mutations(
        self, module: ModuleInfo, function: ast.AST
    ) -> Iterable[Finding]:
        args = function.args
        tracked = {
            arg.arg
            for arg in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
            if arg.arg in COLUMN_PARAMS
        }
        if not tracked:
            return ()
        findings: List[Finding] = []

        def flag(node: ast.AST, name: str, what: str) -> None:
            findings.append(
                Finding(
                    rule=self.name,
                    path=module.relpath,
                    line=node.lineno,
                    message=(
                        f"kernel {function.name!r} mutates column-view argument "
                        f"{name!r} ({what}); kernel inputs are immutable views"
                    ),
                    anchor=f"mutation:{function.name}:{name}",
                )
            )

        for node in ast.walk(function):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in tracked
                    ):
                        flag(node, target.value.id, "item assignment")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in tracked
                    ):
                        flag(node, target.value.id, "item deletion")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATORS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in tracked
                ):
                    flag(node, func.value.id, f".{func.attr}() call")
        return findings
