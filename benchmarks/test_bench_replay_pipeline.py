"""Replay-pipeline benchmarks: the batch-first speaker, incremental
provisioning and trace memoisation wins, with machine-readable results.

Three claims are measured (and guarded with conservative regression floors;
the actual measured ratios land well above them on an idle machine):

* ``BGPSpeaker.receive_batch`` versus per-message ``receive`` on burst-sized
  batches — a path-exploration storm (every prefix re-announced over a few
  alternates before the final withdrawal, as real BGP path hunting does)
  and a pure withdrawal burst;
* a warm (incremental) ``SwiftedRouter.provision()`` versus a from-scratch
  rebuild after the same small churn;
* reloading the benchmark corpus from the on-disk trace cache versus
  generating it.

Every ``slow`` test merges its numbers into ``BENCH_replay.json`` at the
repository root, so the perf trajectory of the replay pipeline is recorded
run over run; the tests cheap enough for tier-1 record under pytest's temp
dir instead (see ``conftest.py``), leaving the checkout untouched.
"""

import os
import time

import pytest

from conftest import bench_env, gc_paused, record

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.core import SwiftedRouter
from repro.experiments.common import burst_corpus
from repro.traces.trace_cache import cache_path_for

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(_REPO_ROOT, "BENCH_replay.json")


def _best_of(runs, build, replay):
    """Best wall time of ``replay`` over freshly built state, in seconds."""
    best = float("inf")
    for _ in range(runs):
        state = build()
        with gc_paused():
            begin = time.perf_counter()
            replay(state)
            best = min(best, time.perf_counter() - begin)
    return best


# -- batched speaker -----------------------------------------------------------

PEERS = list(range(2, 18))  # a collector-grade router: 16 peering sessions
TABLE = 20000


def _speaker():
    speaker = BGPSpeaker(1)
    prefixes = prefix_block("60.0.0.0/24", TABLE)
    for peer in PEERS:
        speaker.add_peer(peer)
    for peer in PEERS:
        # One shared attribute object per peer, as update packing produces.
        attributes = PathAttributes(
            as_path=ASPath([peer, 5, 6]), next_hop=peer, local_pref=100 + peer
        )
        speaker.receive_batch(
            Update.announce(0.0, peer, prefix, attributes) for prefix in prefixes
        )
    # A realistic replay consumer: track loss-of-reachability events.
    speaker.losses = []
    speaker.add_best_route_listener(
        lambda changes: speaker.losses.extend(
            change.prefix for change in changes if change.is_loss_of_reachability
        )
    )
    return speaker


def _exploration_burst(affected=4000, alternates=10):
    """Path-exploration storm on the preferred session: every affected
    prefix walks through ``alternates`` alternate paths before the final
    withdrawal (classic BGP path hunting ahead of a loss of reachability)."""
    preferred = PEERS[-1]
    prefixes = prefix_block("60.0.0.0/24", TABLE)[:affected]
    alternate_attrs = [
        PathAttributes(
            as_path=ASPath([preferred, 30 + k, 5, 6]),
            next_hop=preferred,
            local_pref=100 + preferred,
        )
        for k in range(alternates)
    ]
    messages = []
    clock = 10.0
    for prefix in prefixes:
        for attrs in alternate_attrs:
            messages.append(Update.announce(clock, preferred, prefix, attrs))
            clock += 1e-4
        messages.append(Update.withdraw(clock, preferred, prefix))
        clock += 1e-4
    return messages


def _withdrawal_burst(size=8000):
    preferred = PEERS[-1]
    prefixes = prefix_block("60.0.0.0/24", TABLE)[:size]
    return [
        Update.withdraw(10.0 + index * 1e-4, preferred, prefix)
        for index, prefix in enumerate(prefixes)
    ]


def _speaker_speedup(messages, runs=3):
    def per_message(speaker):
        receive = speaker.receive
        for message in messages:
            receive(message)

    per_message_seconds = _best_of(runs, _speaker, per_message)
    batched_seconds = _best_of(
        runs, _speaker, lambda speaker: speaker.receive_batch(messages)
    )
    return per_message_seconds, batched_seconds


@pytest.mark.slow
def test_bench_batched_speaker_exploration_burst():
    messages = _exploration_burst()
    per_message_seconds, batched_seconds = _speaker_speedup(messages)
    speedup = per_message_seconds / batched_seconds
    record(
        RESULTS_PATH,
        "batched_speaker.exploration_burst",
        {
            "messages": len(messages),
            "peers": len(PEERS),
            **bench_env(),
            "per_message_seconds": round(per_message_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"\nexploration burst ({len(messages)} msgs): per-message "
        f"{per_message_seconds * 1e3:.0f} ms, batched {batched_seconds * 1e3:.0f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 3.0  # measured ~5x; floor guards regressions under CI noise


@pytest.mark.slow
def test_bench_batched_speaker_withdrawal_burst():
    messages = _withdrawal_burst()
    per_message_seconds, batched_seconds = _speaker_speedup(messages)
    speedup = per_message_seconds / batched_seconds
    record(
        RESULTS_PATH,
        "batched_speaker.withdrawal_burst",
        {
            "messages": len(messages),
            "peers": len(PEERS),
            **bench_env(),
            "per_message_seconds": round(per_message_seconds, 4),
            "batched_seconds": round(batched_seconds, 4),
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"\nwithdrawal burst ({len(messages)} msgs): per-message "
        f"{per_message_seconds * 1e3:.0f} ms, batched {batched_seconds * 1e3:.0f} ms "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 1.2


# -- incremental provisioning ---------------------------------------------------


def _loaded_router(prefix_count=30000):
    s6 = prefix_block("60.0.0.0/24", prefix_count)
    router = SwiftedRouter(1)
    for peer in (2, 3, 4):
        router.add_peer(peer)
    router.load_initial_routes(2, {p: ASPath([2, 5, 6]) for p in s6}, local_pref=200)
    router.load_initial_routes(3, {p: ASPath([3, 6]) for p in s6}, local_pref=100)
    router.load_initial_routes(4, {p: ASPath([4, 5, 6]) for p in s6}, local_pref=150)
    return router, s6


def _churn(router, s6, moved=200):
    """Small quiet-time churn: a couple hundred prefixes move on AS 4."""
    attributes = PathAttributes(as_path=ASPath([4, 8, 6]), next_hop=4, local_pref=150)
    router.receive_batch(
        [
            Update.announce(100.0 + index * 30.0, 4, prefix, attributes)
            for index, prefix in enumerate(s6[:moved])
        ]
    )


def test_bench_warm_vs_cold_provision():
    router, s6 = _loaded_router()
    with gc_paused():
        begin = time.perf_counter()
        router.provision()
        cold_initial = time.perf_counter() - begin

    _churn(router, s6)
    with gc_paused():
        begin = time.perf_counter()
        router.provision()
        warm_delta = time.perf_counter() - begin
    assert router.last_provision_stats["mode"] == 1

    with gc_paused():
        begin = time.perf_counter()
        router.provision()
        warm_clean = time.perf_counter() - begin

    _churn(router, s6)
    with gc_paused():
        begin = time.perf_counter()
        router.provision(full_rebuild=True)
        cold_rebuild = time.perf_counter() - begin

    delta_speedup = cold_rebuild / warm_delta
    clean_speedup = cold_rebuild / warm_clean
    record(
        RESULTS_PATH,
        "incremental_provision",
        {
            "prefixes": len(s6),
            "sessions": 3,
            "churned_prefixes": 200,
            **bench_env(),
            "cold_initial_seconds": round(cold_initial, 3),
            "cold_rebuild_seconds": round(cold_rebuild, 3),
            "warm_delta_seconds": round(warm_delta, 4),
            "warm_clean_seconds": round(warm_clean, 5),
            "warm_delta_speedup": round(delta_speedup, 1),
            "warm_clean_speedup": round(clean_speedup, 1),
        },
    )
    print(
        f"\nprovision over {len(s6)} prefixes: cold {cold_rebuild:.2f} s, "
        f"warm after 200-prefix churn {warm_delta * 1e3:.1f} ms "
        f"({delta_speedup:.0f}x), warm clean {warm_clean * 1e3:.1f} ms "
        f"({clean_speedup:.0f}x)"
    )
    assert delta_speedup >= 10.0
    assert clean_speedup >= 10.0


# -- trace memoisation ----------------------------------------------------------


def test_bench_trace_memoisation():
    """Corpus generation vs a cache reload, through the shipped cache path.

    Exercises :func:`repro.experiments.common.cached_corpus` itself (the
    columnar encode/decode pair and fingerprint keys), so the recorded
    trajectory measures what the benchmark fixtures actually pay.  Uses a
    dedicated seed so the shared ``corpus`` fixture cache is left alone,
    and clears its own entry first so the first build is a true miss.
    """
    import inspect

    from repro.experiments.common import cached_corpus
    from repro.traces.columnar import COLUMNAR_FORMAT_VERSION
    from repro.traces.trace_cache import fingerprint

    kwargs = dict(
        peer_count=10,
        duration_days=20,
        min_table_size=4000,
        max_table_size=30000,
        seed=777,
    )
    bound = inspect.signature(burst_corpus).bind(**kwargs)
    bound.apply_defaults()
    path = cache_path_for(
        "corpus",
        fingerprint(dict(bound.arguments)),
        format_version=COLUMNAR_FORMAT_VERSION,
    )
    if path and os.path.exists(path):
        os.unlink(path)

    with gc_paused():
        begin = time.perf_counter()
        generated = cached_corpus(**kwargs)
        generate_seconds = time.perf_counter() - begin

    with gc_paused():
        begin = time.perf_counter()
        reloaded = cached_corpus(**kwargs)
        reload_seconds = time.perf_counter() - begin

    assert len(reloaded) == len(generated)
    assert [burst.peer_as for burst in reloaded] == [
        burst.peer_as for burst in generated
    ]
    speedup = generate_seconds / reload_seconds
    record(
        RESULTS_PATH,
        "trace_memoisation.corpus",
        {
            "bursts": len(generated),
            **bench_env(),
            "generate_seconds": round(generate_seconds, 2),
            "reload_seconds": round(reload_seconds, 2),
            "speedup": round(speedup, 1),
        },
    )
    print(
        f"\ncorpus memoisation: generate {generate_seconds:.1f} s, reload "
        f"{reload_seconds:.2f} s ({speedup:.1f}x)"
    )
    assert speedup >= 3.0  # measured ~6x; floor guards regressions under CI noise
