"""Shared fixtures for the benchmark harness.

Most benchmarks regenerate one of the paper's tables/figures (scaled down so
the whole suite completes in minutes) and print the reproduced rows next to
the paper's numbers; ``ablations``, ``simulation`` and ``fulltable``
complete the tree.  Layer-by-layer performance is measured by
``bench/run.py`` (see ``bench/README.md``), not here.  The burst corpus and
the month trace are built once per session and shared.  Both are read from
a synthetic trace memoised on disk (``.trace_cache/``, see
:mod:`repro.traces.trace_cache`): the first session pays the full
generation, later sessions reload in seconds.  Set
``REPRO_TRACE_CACHE=off`` to force regeneration.

One module, ``test_bench_fulltable``, merges its numbers into a tracked
``BENCH_*.json`` at the repository root (its ``RESULTS_PATH``) through the
one :func:`record` here, which stamps every payload with :func:`bench_env`.
Those tests are all ``slow``, so tier-1 leaves ``git status`` clean.
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


def bench_env():
    """Environment fields merged into every ``BENCH_*.json`` payload.

    Records the affinity-aware CPU count, so recorded numbers can be
    compared across environments.  There is one kernel backend and no
    numpy, so neither is stamped.
    """
    return {"cpus": available_cpus()}


def record(path, key, payload):
    """Merge one benchmark's ``payload``, stamped with :func:`bench_env`,
    under ``key`` into the JSON at ``path``."""
    data = {}
    if os.path.exists(path):
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (OSError, ValueError):
            data = {}
    data[key] = {**payload, **bench_env()}
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


@pytest.fixture(scope="session")
def corpus():
    """Burst corpus standing in for the paper's 1,802 real-trace bursts.

    The bursts of at least 2,500 withdrawals of one cached trace, each a
    view of its session's rows.
    """
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
