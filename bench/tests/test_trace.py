"""The span recorder, on toy objects with a hand-cranked clock."""

import ast
import json
import os
import subprocess
import sys
import types

import pytest

from bench.layers import trace_metrics
from bench.trace import Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


class Clock:
    """A clock that only moves when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class Toy:
    """outer() spends 1 s itself and calls inner() twice for 2 s each."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock

    def outer(self) -> int:
        self.clock.advance(1.0)
        return self.inner() + self.inner()

    def inner(self) -> int:
        self.clock.advance(2.0)
        return 21

    def unwrapped(self) -> None:
        self.clock.advance(4.0)

    @classmethod
    def build(cls, clock: Clock) -> "Toy":
        clock.advance(0.5)
        return cls(clock)

    @staticmethod
    def helper(clock: Clock) -> str:
        clock.advance(0.25)
        return "done"


def test_nested_calls_record_parents_and_self_times():
    clock = Clock()
    toy = Toy(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(toy, "outer", "toy.outer", mark=lambda result: result)
    tracer.wrap(toy, "inner", "toy.inner")
    tracer.group = "unit-7"
    assert toy.outer() == 42

    outer, first, second = tracer.spans
    assert [span.name for span in tracer.spans] == ["toy.outer", "toy.inner", "toy.inner"]
    assert outer.parent == -1 and first.parent == 0 and second.parent == 0
    assert (outer.start, outer.end) == (0.0, 5.0)
    assert (first.start, first.end) == (1.0, 3.0)
    assert (second.start, second.end) == (3.0, 5.0)
    assert tracer.self_times() == [1.0, 2.0, 2.0]
    assert outer.mark == 42 and first.mark is None
    assert {span.group for span in tracer.spans} == {"unit-7"}


def test_an_unwrapped_call_lands_in_the_unattributed_share():
    clock = Clock()
    toy = Toy(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(toy, "outer", "toy.outer")
    tracer.wrap(toy, "inner", "toy.inner")
    with tracer.span("bench.phase"):
        toy.outer()  # 5 s, all of it attributed
        toy.unwrapped()  # 4 s nobody wrapped
        clock.advance(1.0)  # 1 s of harness loop
    metrics = trace_metrics(tracer, untraced_wall=8.0)
    assert metrics["trace.unattributed_share"] == pytest.approx(50.0)
    assert metrics["trace.overhead_share"] == pytest.approx(25.0)
    assert metrics["trace.gc_share"] == 0.0


def test_wrappers_are_removed_after_the_pass():
    clock = Clock()
    toy = Toy(clock)
    plain_outer = Toy.__dict__["outer"]
    plain_build = Toy.__dict__["build"]
    plain_helper = Toy.__dict__["helper"]
    module = types.ModuleType("toy_module")
    module.function = lambda: clock.advance(0.125)
    plain_function = module.function

    tracer = Tracer(clock=clock)
    tracer.wrap(toy, "inner", "instance.inner")
    tracer.wrap(Toy, "outer", "class.outer")
    tracer.wrap(Toy, "build", "class.build")
    tracer.wrap(Toy, "helper", "class.helper")
    tracer.wrap(module, "function", "module.function")
    assert "inner" in vars(toy)
    assert Toy.build(clock).outer() == 42  # classmethod still binds the class
    assert Toy.helper(clock) == "done"
    module.function()
    names = [span.name for span in tracer.spans]
    assert names == ["class.build", "class.outer", "class.helper", "module.function"]

    tracer.close()
    assert "inner" not in vars(toy)
    assert Toy.__dict__["outer"] is plain_outer
    assert Toy.__dict__["build"] is plain_build
    assert Toy.__dict__["helper"] is plain_helper
    assert module.function is plain_function
    recorded = len(tracer.spans)
    toy.outer()
    assert len(tracer.spans) == recorded


def test_a_raising_call_still_closes_its_span():
    clock = Clock()
    tracer = Tracer(clock=clock)

    class Fragile:
        def explode(self):
            clock.advance(1.0)
            raise ValueError("boom")

    fragile = Fragile()
    tracer.wrap(fragile, "explode", "fragile.explode", mark=lambda result: 1)
    with pytest.raises(ValueError):
        fragile.explode()
    (span,) = tracer.spans
    assert span.duration == 1.0 and span.mark is None
    with tracer.span("after"):
        pass
    assert tracer.spans[1].parent == -1  # the stack was unwound


def test_wrapping_a_missing_attribute_is_an_error():
    with pytest.raises(AttributeError):
        Tracer().wrap(Toy, "no_such_method", "toy.none")


def test_gc_pauses_are_attributed_to_the_phase_they_fall_in():
    clock = Clock()
    tracer = Tracer(clock=clock)
    with tracer.span("bench.phase"):
        clock.advance(1.0)
        tracer._on_gc("start", {"generation": 2})
        clock.advance(0.5)
        tracer._on_gc("stop", {"generation": 2})
        clock.advance(0.5)
    tracer._on_gc("start", {"generation": 0})
    clock.advance(3.0)
    tracer._on_gc("stop", {"generation": 0})  # outside any phase
    metrics = trace_metrics(tracer, untraced_wall=2.0)
    assert metrics["trace.gc_share"] == pytest.approx(25.0)
    assert metrics["trace.gc_gen2_collections"] == 1.0


def test_spans_are_written_as_json_lines(tmp_path):
    clock = Clock()
    toy = Toy(clock)
    tracer = Tracer(clock=clock)
    tracer.wrap(toy, "outer", "toy.outer", mark=lambda result: result)
    tracer.wrap(toy, "inner", "toy.inner")
    tracer.group = 3
    toy.outer()
    path = tmp_path / "toy.spans.jsonl"
    assert tracer.write_jsonl(str(path)) == 3
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert records[0] == {
        "id": 0, "name": "toy.outer", "start": 0.0, "end": 5.0,
        "parent": -1, "group": 3, "self": 1.0, "mark": 42,
    }
    assert records[2]["parent"] == 0 and "mark" not in records[2]


def _module_level_imports(path: str):
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_untraced_passes_never_import_the_tracer():
    # Statically: nothing but the tests imports bench.trace at module level.
    for directory, _, files in os.walk(BENCH):
        if os.path.basename(directory) in ("tests", "out", "__pycache__"):
            continue
        for name in files:
            if name.endswith(".py"):
                imported = set(_module_level_imports(os.path.join(directory, name)))
                assert "bench.trace" not in imported, name
    # Dynamically: everything an untraced run loads leaves it unloaded.
    code = (
        "import sys; sys.path[:0] = [%r, %r]\n"
        "import bench.harness, bench.layers, bench.stats, bench.workloads\n"
        "assert 'bench.trace' not in sys.modules, 'tracer imported'\n"
    ) % (ROOT, os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, "-c", code], check=True)
