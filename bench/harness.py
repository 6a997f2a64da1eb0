"""The pass loop: fresh program state per pass, timed set-up, timed phase.

One *run* of a workload is: generate the inputs from the seed (untimed),
drive one untimed reference pass where the workload has one, freeze the
harness's own objects out of the collector's way, then repeat *passes* —
``gc.collect()``, timed :meth:`Workload.setup`, timed :meth:`Workload.drive`
— until the measuring budget is spent (never fewer than :data:`MIN_PASSES`).

The collector is never disabled: GC is a cost users pay.  ``gc.freeze()`` is
applied to the *harness's* inputs only, once, before the first pass, so that
full collections during a pass walk the program's objects and not a few
hundred thousand input rows that no deployment would hold in memory.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from bench import stats

__all__ = [
    "HARD_WALL_SECONDS",
    "MIN_PASSES",
    "OUT_DIR",
    "ROOT",
    "PassRecord",
    "PassResult",
    "PhaseClock",
    "Workload",
    "end_to_end_metrics",
    "environment_stamp",
    "guard_environment",
    "measure",
    "run_pass",
]

#: The checkout root (``bench/`` lives directly under it).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Everything the benchmark writes goes here (git-ignored).
OUT_DIR = os.path.join(ROOT, "bench", "out")

#: Fewest passes behind any reported median.
MIN_PASSES = 7
#: A run must exit within 180 s; stop adding passes well before that, even
#: below :data:`MIN_PASSES`, if the host is far slower than the one the
#: input sizes were chosen on (never below three passes: a median of fewer
#: is a single reading).
HARD_WALL_SECONDS = 110.0

_STARTED = time.perf_counter()


def guard_environment() -> None:
    """Pin the environment knobs that would change what is measured."""
    if os.environ.get("REPRO_FAULTS"):
        raise SystemExit(
            "bench: REPRO_FAULTS is set; refusing to benchmark with fault "
            "injection armed"
        )
    # Inputs come straight from the generators, so set-up time never depends
    # on what .trace_cache/ happens to hold.
    os.environ["REPRO_TRACE_CACHE"] = "off"


def _commit() -> str:
    """The checked-out commit, read from ``.git`` without spawning git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(git_dir, head[5:]), encoding="utf-8") as handle:
                return handle.read().strip()[:12]
        return head[:12]
    except OSError:
        return "unknown"


def filesystem_of(path: str) -> str:
    """Filesystem type of the mount holding ``path``."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) and len(
                    mount
                ) >= len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def environment_stamp(seed: int, backend: str) -> Dict[str, object]:
    """What a reader needs to know about where a number came from."""
    from repro.core import kernels

    return {
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": kernels.numpy_version(),
        "kernel_backend": backend,
        "commit": _commit(),
        "seed": seed,
        "ingest_root_fs": filesystem_of(os.path.dirname(OUT_DIR)),
        "gc_enabled": gc.isenabled(),
    }


class PhaseClock:
    """Accumulates wall and CPU time over the timed sections of one pass.

    Verification that has to look at program state between two steps runs
    outside the ``with`` block and is not measured.  With a tracer, every
    timed section is also a root span named ``bench.phase``.
    """

    def __init__(self, tracer=None) -> None:
        self.wall = 0.0
        self.cpu = 0.0
        self._tracer = tracer
        self._span = None
        self._wall_started = 0.0
        self._cpu_started = 0.0

    def __enter__(self) -> "PhaseClock":
        if self._tracer is not None:
            self._span = self._tracer.span("bench.phase")
            self._span.__enter__()
        self._cpu_started = time.process_time()
        self._wall_started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall += time.perf_counter() - self._wall_started
        self.cpu += time.process_time() - self._cpu_started
        if self._span is not None:
            self._span.__exit__(*exc_info)
            self._span = None


@dataclass
class PassResult:
    """What one timed phase did."""

    #: Input rows taken from input to fully applied.
    rows: int
    #: ``{deterministic event id: latency in ms}`` for the reaction metric.
    events: Dict[object, float]
    #: Operations handed to the program / operations whose outcome was wrong.
    attempted: int
    failed: int
    #: Everything deterministic about the outcome; must equal pass 1's.
    signature: object
    #: Human-readable descriptions of the first few failures.
    problems: List[str] = field(default_factory=list)


class Workload:
    """Interface of one benchmark workload (see ``bench/workloads``)."""

    name = ""
    #: One line for ``BENCHMARK.json``: why this workload exists.
    why = ""
    #: Input sizes of a full run and of the ``--check`` smoke.
    FULL: Mapping[str, object] = {}
    SMOKE: Mapping[str, object] = {}

    def __init__(self, seed: int, sizes: Mapping[str, object], backend: str) -> None:
        self.seed = seed
        self.sizes = dict(sizes)
        self.backend = backend

    def generate(self) -> None:
        """Build the inputs from the seed (untimed)."""
        raise NotImplementedError

    def reference(self) -> None:
        """Untimed reference pass fixing the expected outcome (optional)."""

    def setup(self) -> object:
        """The program's cold start for this workload (timed: ``setup_s``)."""
        raise NotImplementedError

    def drive(self, state: object, clock: PhaseClock, tracer=None) -> PassResult:
        """The timed phase; ``tracer.group`` is set per unit of work."""
        raise NotImplementedError

    def teardown(self, state: object) -> None:
        """Release what :meth:`setup` acquired outside the process heap."""

    # -- traced pass only ----------------------------------------------------

    def instrument(self, tracer) -> None:
        """Wrap the public callables of the layers this workload exercises."""
        raise NotImplementedError

    def layer_metrics(self, tracer, state, result: PassResult, wall: float) -> Dict[str, float]:
        """Per-layer metrics of one traced pass (``wall`` = its phase time)."""
        raise NotImplementedError


@dataclass
class PassRecord:
    setup_s: float
    phase_s: float
    cpu_s: float
    result: PassResult


def run_pass(workload: Workload, tracer=None) -> "tuple[PassRecord, object]":
    """One pass: collect, timed set-up, timed phase.  Returns the live state."""
    gc.collect()
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    if tracer is not None:
        with tracer.span("bench.setup"):
            state = workload.setup()
    else:
        state = workload.setup()
    setup_s = time.perf_counter() - started
    clock = PhaseClock(tracer)
    result = workload.drive(state, clock, tracer)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)
    children_cpu = (
        children_after.ru_utime
        - children_before.ru_utime
        + children_after.ru_stime
        - children_before.ru_stime
    )
    record = PassRecord(
        setup_s=setup_s,
        phase_s=clock.wall,
        cpu_s=clock.cpu + children_cpu,
        result=result,
    )
    return record, state


def measure(
    workload: Workload, seconds: float, passes: Optional[int] = None
) -> "tuple[List[PassRecord], float]":
    """Generate, then run passes; returns the records and ``gen_s``.

    With ``passes`` the count is fixed; otherwise passes repeat until their
    timed sections add up to ``seconds``, and at least :data:`MIN_PASSES`
    times.
    """
    started = time.perf_counter()
    workload.generate()
    workload.reference()
    gen_s = time.perf_counter() - started
    gc.collect()
    gc.freeze()
    records: List[PassRecord] = []
    measured = 0.0
    while True:
        if passes is not None:
            if len(records) >= passes:
                break
        elif len(records) >= MIN_PASSES and measured >= seconds:
            break
        elif len(records) >= 3 and time.perf_counter() - _STARTED > HARD_WALL_SECONDS:
            break
        record, state = run_pass(workload)
        workload.teardown(state)
        del state
        records.append(record)
        measured += record.setup_s + record.phase_s
    return records, gen_s


def end_to_end_metrics(
    records: List[PassRecord],
) -> "tuple[Dict[str, Dict[str, object]], stats.EventLatency]":
    """The six end-to-end metrics of one run, and the latency sample counts."""
    latency = stats.event_percentiles([record.result.events for record in records])
    if latency is None:
        raise RuntimeError("no reaction event was recorded in any pass")
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics = {
        "setup_s": {
            "value": stats.median([record.setup_s for record in records]),
            "unit": "s",
        },
        "msgs_per_s": {
            "value": stats.median(
                [record.result.rows / record.phase_s for record in records]
            ),
            "unit": "1/s",
        },
        "react_ms_p50": {"value": latency.p50, "unit": "ms"},
        "react_ms_p90": {"value": latency.p90, "unit": "ms"},
        "cpu_us_per_msg": {
            "value": stats.median(
                [record.cpu_s / record.result.rows * 1e6 for record in records]
            ),
            "unit": "us",
        },
        "peak_rss_mb": {"value": peak_rss_kib / 1024.0, "unit": "MB"},
    }
    return metrics, latency
