"""Rule ``parity-pair``: reference/optimized twins must not drift apart.

The repo's correctness story leans on *parity pairs*: a reference
implementation kept verbatim beside the optimized production path — as a
test oracle under ``tests/oracles/``, or in the package where it is also a
production fallback — with byte-identical-output tests bridging them.  Those tests only hold while the
two surfaces stay call-compatible — a renamed parameter or changed default
on one side silently turns the parity suite into a partial check.  This
rule pins the surfaces themselves:

* **class pairs** — every public method of the reference class (the
  oracles, protocol methods the inference engine calls included) must exist
  on the optimized twin with a matching signature (parameter names, order
  and defaults; annotations are deliberately ignored — the twins annotate
  differently and annotations never change call compatibility).  The twin
  may *extend* a signature with trailing defaulted parameters (that is how
  optimized paths grow knobs) and may add whole new methods;
* **module pairs** (kernel backends) — every public function defined in
  both modules must match the same way; a public function present in only
  one backend is drift; and every shared public function must be listed in
  *both* modules' ``__all__`` (an undeclared kernel is how a backend
  quietly stops being checked);
* **method pairs** — ``<x>_reference`` methods kept inside a production
  class follow the same prefix-compatibility rule against their fast twin.

Pairs are configurable at construction (the analyzer's own tests point the
checker at fixture files); the defaults below are the tree's real pairs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.core import Checker, Finding, ModuleInfo, Project, register

__all__ = ["ClassPair", "MethodPair", "ModulePair", "ParityChecker"]


@dataclass(frozen=True)
class ClassPair:
    ref_path: str
    ref_class: str
    twin_path: str
    twin_class: str


@dataclass(frozen=True)
class ModulePair:
    ref_path: str
    twin_path: str


@dataclass(frozen=True)
class MethodPair:
    path: str
    cls: str
    ref_method: str
    twin_method: str


DEFAULT_CLASS_PAIRS: Tuple[ClassPair, ...] = (
    ClassPair(
        "tests/oracles/fit_score_reference.py",
        "ReferenceFitScoreCalculator",
        "src/repro/core/fit_score.py",
        "FitScoreCalculator",
    ),
    ClassPair(
        "tests/oracles/trie_reference.py",
        "ReferencePrefixTrie",
        "src/repro/bgp/trie.py",
        "PrefixTrie",
    ),
)

DEFAULT_MODULE_PAIRS: Tuple[ModulePair, ...] = (
    ModulePair("src/repro/core/kernels/stdlib.py", "src/repro/core/kernels/numpy.py"),
)

DEFAULT_METHOD_PAIRS: Tuple[MethodPair, ...] = (
    MethodPair(
        "src/repro/core/backup.py",
        "BackupComputer",
        "compute_table_reference",
        "compute_table",
    ),
)


def _signature(function: ast.AST) -> List[Tuple[str, Optional[str]]]:
    """``(name, default-source-or-None)`` per parameter, in call order.

    Annotations are ignored on purpose; ``*args`` / ``**kwargs`` and
    keyword-only parameters are folded in as ``*name`` / ``**name`` entries
    so their presence (and names) must match too.
    """
    args = function.args
    positional = list(args.posonlyargs) + list(args.args)
    defaults: List[Optional[str]] = [None] * (len(positional) - len(args.defaults))
    defaults.extend(ast.unparse(default) for default in args.defaults)
    signature = [
        (arg.arg, default) for arg, default in zip(positional, defaults)
    ]
    if args.vararg is not None:
        signature.append((f"*{args.vararg.arg}", None))
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        signature.append(
            (arg.arg, None if default is None else ast.unparse(default))
        )
    if args.kwarg is not None:
        signature.append((f"**{args.kwarg.arg}", None))
    return signature


def _format(signature: List[Tuple[str, Optional[str]]]) -> str:
    return "(" + ", ".join(
        name if default is None else f"{name}={default}" for name, default in signature
    ) + ")"


def _class_methods(module: ModuleInfo, class_name: str) -> Optional[Dict[str, ast.AST]]:
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return {
                item.name: item
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
    return None


def _module_functions(module: ModuleInfo) -> Dict[str, ast.AST]:
    return {
        node.name: node
        for node in module.tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _module_all(module: ModuleInfo) -> Optional[List[str]]:
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        return [
                            element.value
                            for element in node.value.elts
                            if isinstance(element, ast.Constant)
                            and isinstance(element.value, str)
                        ]
    return None


def _compatible(
    ref: List[Tuple[str, Optional[str]]], twin: List[Tuple[str, Optional[str]]]
) -> bool:
    """The reference signature must be a prefix of the twin's; any extra
    twin parameters must be defaulted (or ``*``/``**`` catch-alls)."""
    if twin[: len(ref)] != ref:
        return False
    for name, default in twin[len(ref):]:
        if default is None and not name.startswith("*"):
            return False
    return True


@register
class ParityChecker(Checker):
    name = "parity-pair"
    description = (
        "reference/optimized twins (tests/oracles classes, kernel backends, "
        "*_reference methods) keep matching public signatures"
    )

    def __init__(
        self,
        class_pairs: Optional[Sequence[ClassPair]] = None,
        module_pairs: Optional[Sequence[ModulePair]] = None,
        method_pairs: Optional[Sequence[MethodPair]] = None,
    ) -> None:
        self.class_pairs = (
            tuple(class_pairs) if class_pairs is not None else DEFAULT_CLASS_PAIRS
        )
        self.module_pairs = (
            tuple(module_pairs) if module_pairs is not None else DEFAULT_MODULE_PAIRS
        )
        self.method_pairs = (
            tuple(method_pairs) if method_pairs is not None else DEFAULT_METHOD_PAIRS
        )

    def finalize(self, project: Project) -> Iterable[Finding]:
        findings: List[Finding] = []
        for pair in self.class_pairs:
            findings.extend(self._check_class_pair(project, pair))
        for pair in self.module_pairs:
            findings.extend(self._check_module_pair(project, pair))
        for pair in self.method_pairs:
            findings.extend(self._check_method_pair(project, pair))
        return findings

    # -- class pairs ---------------------------------------------------------

    def _check_class_pair(self, project: Project, pair: ClassPair) -> Iterable[Finding]:
        ref_module = project.module(pair.ref_path)
        twin_module = project.module(pair.twin_path)
        missing = self._missing_files(
            (pair.ref_path, ref_module), (pair.twin_path, twin_module)
        )
        if missing:
            return missing
        ref_methods = _class_methods(ref_module, pair.ref_class)
        twin_methods = _class_methods(twin_module, pair.twin_class)
        for class_name, methods, module in (
            (pair.ref_class, ref_methods, ref_module),
            (pair.twin_class, twin_methods, twin_module),
        ):
            if methods is None:
                return [
                    Finding(
                        rule=self.name,
                        path=module.relpath,
                        line=1,
                        message=f"parity pair class {class_name!r} not found",
                        anchor=f"missing-class:{class_name}",
                    )
                ]
        findings: List[Finding] = []
        for method_name in sorted(ref_methods):
            if method_name.startswith("_"):
                continue
            ref_fn = ref_methods[method_name]
            twin_fn = twin_methods.get(method_name)
            if twin_fn is None:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=pair.twin_path,
                        line=1,
                        message=(
                            f"{pair.twin_class} is missing public method "
                            f"{method_name!r} of its parity reference "
                            f"{pair.ref_class}"
                        ),
                        anchor=f"missing-method:{pair.twin_class}.{method_name}",
                    )
                )
                continue
            ref_sig, twin_sig = _signature(ref_fn), _signature(twin_fn)
            if not _compatible(ref_sig, twin_sig):
                findings.append(
                    Finding(
                        rule=self.name,
                        path=pair.twin_path,
                        line=twin_fn.lineno,
                        message=(
                            f"{pair.twin_class}.{method_name}{_format(twin_sig)} "
                            f"drifted from its parity reference "
                            f"{pair.ref_class}.{method_name}{_format(ref_sig)}"
                        ),
                        anchor=f"signature:{pair.twin_class}.{method_name}",
                    )
                )
        return findings

    # -- module pairs (kernel backends) --------------------------------------

    def _check_module_pair(
        self, project: Project, pair: ModulePair
    ) -> Iterable[Finding]:
        ref_module = project.module(pair.ref_path)
        twin_module = project.module(pair.twin_path)
        missing = self._missing_files(
            (pair.ref_path, ref_module), (pair.twin_path, twin_module)
        )
        if missing:
            return missing
        findings: List[Finding] = []
        ref_functions = {
            name: fn for name, fn in _module_functions(ref_module).items()
            if not name.startswith("_")
        }
        twin_functions = {
            name: fn for name, fn in _module_functions(twin_module).items()
            if not name.startswith("_")
        }
        for name in sorted(set(ref_functions) ^ set(twin_functions)):
            present, absent = (
                (pair.ref_path, pair.twin_path)
                if name in ref_functions
                else (pair.twin_path, pair.ref_path)
            )
            owner = ref_functions.get(name) or twin_functions[name]
            findings.append(
                Finding(
                    rule=self.name,
                    path=present,
                    line=owner.lineno,
                    message=(
                        f"backend function {name!r} exists in {present} but not "
                        f"in its twin {absent}; kernel backends must expose "
                        "identical public surfaces"
                    ),
                    anchor=f"one-sided:{name}",
                )
            )
        shared = sorted(set(ref_functions) & set(twin_functions))
        for name in shared:
            ref_sig = _signature(ref_functions[name])
            twin_sig = _signature(twin_functions[name])
            if not _compatible(ref_sig, twin_sig):
                findings.append(
                    Finding(
                        rule=self.name,
                        path=pair.twin_path,
                        line=twin_functions[name].lineno,
                        message=(
                            f"kernel {name}{_format(twin_sig)} drifted from the "
                            f"reference backend's {name}{_format(ref_sig)}"
                        ),
                        anchor=f"signature:{name}",
                    )
                )
        for module in (ref_module, twin_module):
            declared = _module_all(module)
            if declared is None:
                continue
            for name in shared:
                if name not in declared:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=module.relpath,
                            line=1,
                            message=(
                                f"kernel function {name!r} is part of the shared "
                                "backend surface but missing from __all__"
                            ),
                            anchor=f"all:{name}",
                        )
                    )
        return findings

    # -- method pairs --------------------------------------------------------

    def _check_method_pair(
        self, project: Project, pair: MethodPair
    ) -> Iterable[Finding]:
        module = project.module(pair.path)
        if module is None:
            return [
                Finding(
                    rule=self.name,
                    path=pair.path,
                    line=1,
                    message="parity pair file missing",
                    anchor="missing-file",
                )
            ]
        methods = _class_methods(module, pair.cls)
        if methods is None:
            return [
                Finding(
                    rule=self.name,
                    path=pair.path,
                    line=1,
                    message=f"parity pair class {pair.cls!r} not found",
                    anchor=f"missing-class:{pair.cls}",
                )
            ]
        findings: List[Finding] = []
        for role, name in (("reference", pair.ref_method), ("optimized", pair.twin_method)):
            if name not in methods:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=pair.path,
                        line=1,
                        message=f"{role} method {pair.cls}.{name} not found",
                        anchor=f"missing-method:{pair.cls}.{name}",
                    )
                )
        if findings:
            return findings
        ref_sig = _signature(methods[pair.ref_method])
        twin_sig = _signature(methods[pair.twin_method])
        if not _compatible(ref_sig, twin_sig):
            findings.append(
                Finding(
                    rule=self.name,
                    path=pair.path,
                    line=methods[pair.twin_method].lineno,
                    message=(
                        f"{pair.cls}.{pair.twin_method}{_format(twin_sig)} drifted "
                        f"from {pair.cls}.{pair.ref_method}{_format(ref_sig)}"
                    ),
                    anchor=f"signature:{pair.cls}.{pair.twin_method}",
                )
            )
        return findings

    # -- shared --------------------------------------------------------------

    def _missing_files(self, *named: Tuple[str, Optional[ModuleInfo]]) -> List[Finding]:
        findings: List[Finding] = []
        for relpath, module in named:
            if module is None:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=relpath,
                        line=1,
                        message="parity pair file missing",
                        anchor="missing-file",
                    )
                )
        return findings
