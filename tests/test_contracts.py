"""Structural contracts small enough to be plain tests.

* **Twin signatures.** Each reference twin — the two ``tests/oracles/``
  classes and ``BackupComputer.compute_table_reference`` — stays
  call-compatible with its production twin, so the parity suites compare
  like with like.  Every public reference method exists on the twin, and
  the twin's parameters (names, kinds, order, defaults; annotations
  ignored) start with the reference's; extra twin parameters must be
  defaulted or ``*``/``**`` catch-alls.
* **Imports.** ``src/repro/`` is stdlib-only: no module imports numpy,
  and ``core/kernels/`` imports nothing but the standard library and
  itself, so interning tables and message objects stay on the caller's
  side of the kernel seam (``src/repro/core/README.md``).

  The kernels' other clause — they never write a column argument — is a
  dynamic check in ``tests/test_kernels.py``.
* **Best routes on read.** Nothing under ``src/repro/`` but the speaker
  and the Loc-RIB reads ``LocRib._best``: a speaker with no listener leaves
  it stale until a read settles it, so a raw read can see routes the
  accessors (``best``, ``best_entries``, ...) would have re-selected.
* **One SWIFT pipeline.** No module under ``src/repro/experiments/``
  builds an ``InferenceEngine``, ``FitScoreCalculator`` or ``TagEncoder``:
  the figures read a router replay, so detector, inference and encoding run
  as the router runs them.
* **A trace keeps only columns.** ``ColumnarTrace``'s state is its pool,
  its ``extras`` and its ``TRACE_COLUMNS``: no slot for a memo of
  materialised objects and no instance ``__dict__``.  Materialised messages
  are fresh objects over the pool's interned prefixes and attributes, so
  they leave with their last reference.
"""

import ast
import inspect
import os
import sys

import pytest

from oracles.fit_score_reference import ReferenceFitScoreCalculator
from oracles.trie_reference import ReferencePrefixTrie

from repro.bgp.trie import PrefixTrie
from repro.core.backup import BackupComputer
from repro.core.fit_score import FitScoreCalculator
from repro.traces.columnar import TRACE_COLUMNS, ColumnarTrace

pytestmark = pytest.mark.analysis

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

_CATCH_ALL = (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)


# -- twin signatures ----------------------------------------------------------


def _function(member):
    """The plain function behind a method, property or static/class method."""
    if isinstance(member, property):
        return member.fget
    return getattr(member, "__func__", member)


def _params(function):
    return [
        (param.name, param.kind, param.default)
        for param in inspect.signature(function).parameters.values()
    ]


def _signature_drift(name, reference, twin):
    ref, extended = _params(reference), _params(twin)
    extra = extended[len(ref):]
    if extended[: len(ref)] == ref and all(
        default is not inspect.Parameter.empty or kind in _CATCH_ALL
        for _, kind, default in extra
    ):
        return []
    return [
        f"{name}{inspect.signature(twin)} drifted from "
        f"{inspect.signature(reference)}"
    ]


def signature_drift(reference, twin):
    """Why ``twin`` cannot stand in for ``reference``; empty when it can."""
    if not inspect.isclass(reference):
        return _signature_drift(twin.__qualname__, reference, twin)
    drift = []
    for name, member in sorted(vars(reference).items()):
        function = _function(member)
        if name.startswith("_") or not inspect.isfunction(function):
            continue
        counterpart = inspect.getattr_static(twin, name, None)
        if counterpart is None:
            drift.append(f"{twin.__name__} lacks {name}")
        else:
            drift.extend(_signature_drift(name, function, _function(counterpart)))
    return drift


TWIN_PAIRS = {
    "fit_score": (ReferenceFitScoreCalculator, FitScoreCalculator),
    "trie": (ReferencePrefixTrie, PrefixTrie),
    "compute_table": (
        BackupComputer.compute_table_reference,
        BackupComputer.compute_table,
    ),
}


@pytest.mark.parametrize("pair", sorted(TWIN_PAIRS))
def test_twins_keep_the_reference_signatures(pair):
    reference, twin = TWIN_PAIRS[pair]
    assert signature_drift(reference, twin) == []


class _Reference:
    def lookup(self, address, default=None):
        pass

    @property
    def size(self):
        return 0


class _Extended:
    """Compatible: a trailing defaulted knob, a catch-all, a new method."""

    def lookup(self, address, default=None, *, fast=True, **extra):
        pass

    @property
    def size(self):
        return 0

    def compact(self):
        pass


class _Renamed(_Extended):
    def lookup(self, addr, default=None):
        pass


class _Redefaulted(_Extended):
    def lookup(self, address, default=0):
        pass


class _Unsatisfied(_Extended):
    def lookup(self, address, default=None, *, strict):
        pass


class _Missing:
    def lookup(self, address, default=None):
        pass


def test_signature_drift_accepts_a_compatible_extension():
    assert signature_drift(_Reference, _Extended) == []


@pytest.mark.parametrize(
    "twin, expected",
    [
        (_Renamed, "lookup(self, addr, default=None) drifted"),
        (_Redefaulted, "lookup(self, address, default=0) drifted"),
        (_Unsatisfied, "lookup(self, address, default=None, *, strict) drifted"),
        (_Missing, "_Missing lacks size"),
    ],
    ids=["renamed", "redefaulted", "required-extra", "missing"],
)
def test_signature_drift_fires(twin, expected):
    drift = signature_drift(_Reference, twin)
    assert len(drift) == 1 and drift[0].startswith(expected), drift


# -- imports ------------------------------------------------------------------


def imported_modules(source, package):
    """Absolute names of the modules the imports in ``source`` read.

    ``package`` is the importing module's package, against which relative
    imports resolve.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                yield f"{base}.{node.module}" if node.module else base
            else:
                yield node.module


def import_violations(source, package):
    """The imports in ``source`` that break the stdlib-only contract."""
    in_kernels = package.startswith("repro.core.kernels")
    violations = []
    for name in imported_modules(source, package):
        top = name.partition(".")[0]
        if top == "numpy":
            violations.append(name)
        elif in_kernels and not (
            top in sys.stdlib_module_names
            or name == "repro.core.kernels"
            or name.startswith("repro.core.kernels.")
        ):
            violations.append(name)
    return violations


def _package_sources():
    """``(path, package)`` for every module under ``src/repro/``."""
    for dirpath, _dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        package = os.path.relpath(dirpath, SRC).replace(os.sep, ".")
        for filename in filenames:
            if filename.endswith(".py"):
                yield os.path.join(dirpath, filename), package


def test_package_imports_are_stdlib_only():
    violations = {}
    for path, package in _package_sources():
        with open(path, encoding="utf-8") as handle:
            found = import_violations(handle.read(), package)
        if found:
            violations[path] = found
    assert violations == {}


@pytest.mark.parametrize(
    "source, package, expected",
    [
        ("import numpy as np\n", "repro.core", ["numpy"]),
        (
            "from repro.bgp.prefix import Prefix\nfrom bisect import bisect_left\n",
            "repro.core.kernels",
            ["repro.bgp.prefix"],
        ),
    ],
    ids=["numpy", "kernels-import-bgp"],
)
def test_import_scan_fires(source, package, expected):
    assert import_violations(source, package) == expected


# -- best routes on read --------------------------------------------------------

_BEST_TABLE_OWNERS = (
    os.path.join("repro", "bgp", "rib.py"),
    os.path.join("repro", "bgp", "speaker.py"),
)


def raw_best_reads(source):
    """Line numbers of the ``._best`` attribute reads in ``source``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "_best"
    ]


def test_only_the_speaker_and_the_loc_rib_read_the_raw_best_table():
    readers = {}
    for path, _package in _package_sources():
        if os.path.relpath(path, SRC) in _BEST_TABLE_OWNERS:
            continue
        with open(path, encoding="utf-8") as handle:
            found = raw_best_reads(handle.read())
        if found:
            readers[path] = found
    assert readers == {}


def test_raw_best_read_scan_fires():
    source = "best = router.speaker.loc_rib._best\nother = rib._best_trie\n"
    assert raw_best_reads(source) == [1]


# -- one SWIFT pipeline ---------------------------------------------------------

#: The pipeline pieces the router builds for itself.
_ROUTER_BUILT = frozenset({"InferenceEngine", "FitScoreCalculator", "TagEncoder"})


def pipeline_builds(source):
    """``(line, class)`` of each call to a router-built class or to one of
    its class-level constructors (``FitScoreCalculator.from_index(...)``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in _ROUTER_BUILT:
                func = func.value
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in _ROUTER_BUILT:
            found.append((node.lineno, name))
    return sorted(found)


def test_experiments_build_no_pipeline_of_their_own():
    builders = {}
    for path, package in _package_sources():
        if not package.startswith("repro.experiments"):
            continue
        with open(path, encoding="utf-8") as handle:
            found = pipeline_builds(handle.read())
        if found:
            builders[path] = found
    assert builders == {}


def test_pipeline_build_scan_fires():
    source = (
        "engine = InferenceEngine(rib, config=config)\n"
        "calculator = FitScoreCalculator.from_index(index)\n"
        "encoder = encoding.TagEncoder()\n"
        "router = SwiftedRouter(1)\n"
        "tags = encoder.encode(paths)\n"
    )
    assert pipeline_builds(source) == [
        (1, "InferenceEngine"),
        (2, "FitScoreCalculator"),
        (3, "TagEncoder"),
    ]


# -- a trace keeps only columns ----------------------------------------------

#: All a ``ColumnarTrace`` may hold.
_TRACE_STATE = frozenset({"pool", "extras", *(name for name, _ in TRACE_COLUMNS)})


def trace_state_beyond_columns(cls):
    """The slots of ``cls`` (through its bases) that are neither its pool,
    its ``extras`` nor a column, plus ``"__dict__"`` if instances have one."""
    slots = {slot for klass in cls.__mro__ for slot in vars(klass).get("__slots__", ())}
    found = sorted(slots - _TRACE_STATE)
    if cls.__dictoffset__:
        found.append("__dict__")
    return found


def test_a_trace_keeps_only_its_pool_extras_and_columns():
    assert sorted(ColumnarTrace.__slots__) == sorted(_TRACE_STATE)
    assert trace_state_beyond_columns(ColumnarTrace) == []


def test_trace_state_scan_fires():
    class Memoised(ColumnarTrace):
        __slots__ = ("_announcement_cache",)

    class Unslotted(ColumnarTrace):
        pass

    assert trace_state_beyond_columns(Memoised) == ["_announcement_cache"]
    assert trace_state_beyond_columns(Unslotted) == ["__dict__"]
