"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables/figures (scaled down so
the whole suite completes in minutes) and prints the reproduced rows next to
the paper's numbers.  The burst corpus and the synthetic trace are built once
per session, shared, and memoised on disk (``.trace_cache/``, see
:mod:`repro.traces.trace_cache`): the first session pays the full generation,
later sessions reload in seconds.  Set ``REPRO_TRACE_CACHE=off`` to force
regeneration.

Benchmark modules merge their numbers into a tracked ``BENCH_*.json`` at the
repository root (their ``RESULTS_PATH``) through the one :func:`record`
here.  Only ``slow``-marked tests update those files; a benchmark cheap
enough for the tier-1 default run records under pytest's temporary directory
instead, so tier-1 leaves ``git status`` clean (see
``_untracked_results_outside_slow_runs``).
"""

import gc
import json
import os
import sys
from contextlib import contextmanager

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# ``src`` for the package, ``tests`` for the oracles the benchmarks time
# against (``from oracles.x import ...``, as the tests do).
for _path in (os.path.join(_ROOT, "tests"), os.path.join(_ROOT, "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from repro.core import kernels  # noqa: E402
from repro.experiments import cached_corpus  # noqa: E402
from repro.traces.synthetic import SyntheticTraceConfig, cached_trace  # noqa: E402


def available_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware).

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity mask a
    CI job or container actually granted; benchmark payloads must record the
    latter or the recorded ``cpus`` field overstates the run environment.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def bench_env(kernel_backend=None):
    """Environment fields merged into every ``BENCH_*.json`` payload.

    Records the affinity-aware CPU count, the kernel backend the run
    resolved to (the default-selection result when ``kernel_backend`` is
    None — exactly what the benchmarked code picked), and the numpy
    version (``"absent"`` when not importable), so recorded numbers can
    be compared across environments.
    """
    return {
        "cpus": available_cpus(),
        "kernel_backend": kernels.get_backend(kernel_backend).NAME,
        "numpy_version": kernels.numpy_version(),
    }


def record(path, key, payload):
    """Merge one benchmark's ``payload`` under ``key`` into the JSON at ``path``.

    Callers pass their module's ``RESULTS_PATH`` *at call time*: outside
    ``slow`` runs the fixture below has pointed it at a scratch file.
    """
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[key] = payload
    with open(path, "w") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")


@contextmanager
def gc_paused():
    """Suspend the cyclic GC during a timed section (collect right before)."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.fixture(autouse=True)
def _untracked_results_outside_slow_runs(request, monkeypatch, tmp_path_factory):
    """Point a non-``slow`` test's ``RESULTS_PATH`` at pytest's temp dir."""
    tracked = getattr(request.module, "RESULTS_PATH", None)
    if tracked is not None and request.node.get_closest_marker("slow") is None:
        scratch = tmp_path_factory.getbasetemp() / os.path.basename(tracked)
        monkeypatch.setattr(request.module, "RESULTS_PATH", str(scratch))


@pytest.fixture(scope="session")
def corpus():
    """Burst corpus standing in for the paper's 1,802 real-trace bursts."""
    return cached_corpus(
        peer_count=10,
        duration_days=20,
        min_table_size=4000,
        max_table_size=30000,
        seed=7,
    )


@pytest.fixture(scope="session")
def month_trace():
    """A month-long multi-session trace for the Fig. 2 statistics."""
    config = SyntheticTraceConfig(
        peer_count=30,
        duration_days=30.0,
        min_table_size=4000,
        max_table_size=60000,
        noise_rate_per_second=0.0,
        seed=13,
    )
    return cached_trace(config)
