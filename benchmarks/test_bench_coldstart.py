"""Cold-start benchmarks: columnar trace reload, profile-grouped backup
computation and end-to-end month-replay slices, with machine-readable
results in ``BENCH_coldstart.json``.

Three cold-start costs are measured (with conservative regression floors;
measured ratios land well above them on an idle machine):

* **trace reload** — restoring a cached multi-session trace from the
  columnar payload (array restores + lazy decode) versus unpickling the
  equivalent object graph, the pre-columnar cache format.  The tier-1 run
  measures a medium slice; the ``slow``-marked variant measures the full
  30-peer month fixture and records the headline number;
* **cold provision** — ``BackupComputer.compute_table`` profile-grouped
  versus the ungrouped per-prefix reference, plus the full cold
  ``provision()`` it dominates;
* **month-replay slice** — replaying a session stream end-to-end from a
  cold cache: columnar load + ``receive_columnar`` versus object-pickle
  load + ``receive_batch``, and the SWIFTED-router throughput on the same
  stream.

Results merge into ``BENCH_coldstart.json`` at the repository root (same
pattern as ``BENCH_replay.json``: the ``slow`` runs write the tracked file,
the tier-1 ones record under pytest's temp dir — see ``conftest.py``).
"""

import os
import pickle
import tempfile
import time

import pytest

from conftest import bench_env, gc_paused, record

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.experiments.month_replay import replay_stream
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    SyntheticTraceGenerator,
    _decode_trace,
    _encode_trace,
    cached_columnar_stream,
)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(_REPO_ROOT, "BENCH_coldstart.json")


def _best_seconds(fn, runs=3):
    best = float("inf")
    for _ in range(runs):
        with gc_paused():
            begin = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - begin)
    return best


# -- trace reload: columnar payload vs pickled object graph ---------------------


def _object_graph_form(trace):
    """The pre-columnar cache shape: plain object lists/dicts per field."""
    return {
        "bursts": [
            (
                burst.peer,
                burst.start_time,
                burst.failed_link,
                list(burst.messages),
                burst.withdrawn_prefixes,
                burst.updated_prefixes,
                burst.noise_prefixes,
                burst.popular,
            )
            for burst in trace.bursts
        ],
        "ribs": {peer.peer_as: trace.rib_of(peer.peer_as) for peer in trace.peers},
        "background": {
            peer_as: list(messages) for peer_as, messages in trace.background.items()
        },
    }


def _reload_comparison(trace, runs=3):
    """Dump both cache forms to disk and time their cold loads."""
    object_form = _object_graph_form(trace)
    columnar_payload = _encode_trace(trace)

    with tempfile.NamedTemporaryFile(delete=False) as handle:
        object_path = handle.name
        pickle.dump(object_form, handle, protocol=pickle.HIGHEST_PROTOCOL)
    with tempfile.NamedTemporaryFile(delete=False) as handle:
        columnar_path = handle.name
        pickle.dump(columnar_payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    try:
        object_seconds = _best_seconds(
            lambda: pickle.load(open(object_path, "rb")), runs
        )
        columnar_seconds = _best_seconds(
            lambda: _decode_trace(pickle.load(open(columnar_path, "rb"))), runs
        )
        sizes = (os.path.getsize(object_path), os.path.getsize(columnar_path))
    finally:
        os.unlink(object_path)
        os.unlink(columnar_path)
    return object_seconds, columnar_seconds, sizes


def test_bench_trace_reload_columnar_vs_pickle():
    """Medium month slice, run on every tier-1 pass as the regression guard."""
    config = SyntheticTraceConfig(
        peer_count=4,
        duration_days=15,
        min_table_size=4000,
        max_table_size=30000,
        noise_rate_per_second=0.0,
        seed=909,
    )
    trace = SyntheticTraceGenerator(config).generate()
    message_count = sum(len(burst.messages) for burst in trace.bursts)
    object_seconds, columnar_seconds, (object_bytes, columnar_bytes) = (
        _reload_comparison(trace)
    )
    speedup = object_seconds / columnar_seconds
    record(
        RESULTS_PATH,
        "trace_reload.medium_slice",
        {
            "peers": config.peer_count,
            "duration_days": config.duration_days,
            "burst_messages": message_count,
            **bench_env(),
            "object_pickle_seconds": round(object_seconds, 3),
            "columnar_seconds": round(columnar_seconds, 3),
            "object_bytes": object_bytes,
            "columnar_bytes": columnar_bytes,
            "speedup": round(speedup, 1),
        },
    )
    print(
        f"\ntrace reload ({message_count} burst msgs): object pickle "
        f"{object_seconds:.2f} s, columnar {columnar_seconds:.3f} s "
        f"({speedup:.1f}x)"
    )
    # Measured ~5-20x depending on page-cache state; the month-scale slow
    # benchmark asserts the headline >=5x, this guard stays CI-noise-proof.
    assert speedup >= 3.0


@pytest.mark.slow
def test_bench_month_trace_reload(month_trace):
    """Full 30-peer month trace: the headline reload number."""
    message_count = sum(len(burst.messages) for burst in month_trace.bursts)
    object_seconds, columnar_seconds, (object_bytes, columnar_bytes) = (
        _reload_comparison(month_trace, runs=2)
    )
    speedup = object_seconds / columnar_seconds
    record(
        RESULTS_PATH,
        "trace_reload.month",
        {
            "peers": len(month_trace.peers),
            "burst_messages": message_count,
            **bench_env(),
            "object_pickle_seconds": round(object_seconds, 2),
            "columnar_seconds": round(columnar_seconds, 2),
            "object_bytes": object_bytes,
            "columnar_bytes": columnar_bytes,
            "speedup": round(speedup, 1),
        },
    )
    print(
        f"\nmonth trace reload ({message_count} burst msgs): object pickle "
        f"{object_seconds:.1f} s, columnar {columnar_seconds:.2f} s "
        f"({speedup:.1f}x)"
    )
    assert speedup >= 5.0


# -- cold provision: profile-grouped backup computation -------------------------


def _loaded_router(prefix_count=30000):
    s6 = prefix_block("60.0.0.0/24", prefix_count)
    router = SwiftedRouter(1)
    for peer in (2, 3, 4):
        router.add_peer(peer)
    router.load_initial_routes(2, {p: ASPath([2, 5, 6]) for p in s6}, local_pref=200)
    router.load_initial_routes(3, {p: ASPath([3, 6]) for p in s6}, local_pref=100)
    router.load_initial_routes(4, {p: ASPath([4, 5, 6]) for p in s6}, local_pref=150)
    return router, s6


def test_bench_cold_provision_grouped_backups():
    router, s6 = _loaded_router()
    best_routes = {
        entry.prefix: entry for entry in router.speaker.loc_rib.best_entries()
    }
    computer = router.backup_computer
    speaker = router.speaker

    def grouped():
        speaker._ranked_cache.clear()
        computer.compute_table(
            1,
            best_routes,
            speaker.alternate_routes,
            candidates_of=speaker.loc_rib.candidate_map,
        )

    def reference():
        speaker._ranked_cache.clear()
        computer.compute_table_reference(1, best_routes, speaker.alternate_routes)

    grouped_seconds = _best_seconds(grouped)
    reference_seconds = _best_seconds(reference)

    with gc_paused():
        begin = time.perf_counter()
        router.provision()
        provision_seconds = time.perf_counter() - begin

    speedup = reference_seconds / grouped_seconds
    record(
        RESULTS_PATH,
        "cold_provision.grouped_backups",
        {
            "prefixes": len(s6),
            "sessions": 3,
            **bench_env(),
            "grouped_seconds": round(grouped_seconds, 3),
            "reference_seconds": round(reference_seconds, 3),
            "speedup": round(speedup, 1),
            "cold_provision_seconds": round(provision_seconds, 3),
        },
    )
    print(
        f"\ncompute_table over {len(s6)} prefixes: reference "
        f"{reference_seconds:.2f} s, grouped {grouped_seconds:.3f} s "
        f"({speedup:.1f}x); cold provision() {provision_seconds:.2f} s"
    )
    assert speedup >= 1.5


# -- end-to-end month-replay slice ----------------------------------------------

_REPLAY_CONFIG = SyntheticTraceConfig(
    peer_count=4,
    duration_days=15,
    min_table_size=4000,
    max_table_size=30000,
    noise_rate_per_second=0.02,
    seed=909,
)

#: The medium slice's bursts top out below the paper's default 2,500-withdrawal
#: trigger; lower it so the SWIFTED replay demonstrably fires.
_REPLAY_SWIFT_CONFIG = SwiftConfig(
    inference=InferenceConfig(
        schedule=TriggeringSchedule(
            steps=((1500, 100000),), unconditional_after=2000
        )
    )
)


def _replay_session():
    generator_stream = SyntheticTraceGenerator(_REPLAY_CONFIG).stream()
    peer_as = generator_stream.peers[0].peer_as
    stream = cached_columnar_stream(_REPLAY_CONFIG, peer_as)
    rib = generator_stream.rib_of(peer_as)
    return stream, rib, peer_as


def _fresh_speaker(peer_as, rib):
    speaker = BGPSpeaker(1)
    speaker.add_peer(peer_as)
    speaker.session(peer_as).record_stream = False
    interned = {}

    def attributes_for(path):
        attributes = interned.get(path.asns)
        if attributes is None:
            attributes = interned[path.asns] = PathAttributes(
                as_path=path, next_hop=peer_as
            )
        return attributes

    speaker.receive_batch(
        Update.announce(0.0, peer_as, prefix, attributes_for(path))
        for prefix, path in sorted(rib.items())
    )
    return speaker


def test_bench_month_replay_slice_cold_start():
    """Cold replay: load-from-cache + replay, columnar vs object pickle."""
    stream, rib, peer_as = _replay_session()

    # The two on-disk forms of the same stream.
    with tempfile.NamedTemporaryFile(delete=False) as handle:
        object_path = handle.name
        pickle.dump(
            stream.to_messages(), handle, protocol=pickle.HIGHEST_PROTOCOL
        )
    with tempfile.NamedTemporaryFile(delete=False) as handle:
        columnar_path = handle.name
        pickle.dump(stream, handle, protocol=pickle.HIGHEST_PROTOCOL)

    best_routes = {}

    def cold_object_replay():
        messages = pickle.load(open(object_path, "rb"))
        speaker = _fresh_speaker(peer_as, rib)
        speaker.receive_batch(messages)
        best_routes["object"] = speaker.loc_rib

    def cold_columnar_replay():
        columns = pickle.load(open(columnar_path, "rb"))
        speaker = _fresh_speaker(peer_as, rib)
        speaker.receive_columnar(columns)
        best_routes["columnar"] = speaker.loc_rib

    try:
        object_seconds = _best_seconds(cold_object_replay)
        columnar_seconds = _best_seconds(cold_columnar_replay)
    finally:
        os.unlink(object_path)
        os.unlink(columnar_path)

    speedup = object_seconds / columnar_seconds
    record(
        RESULTS_PATH,
        "month_replay.cold_speaker_slice",
        {
            "messages": stream.message_count,
            **bench_env(),
            "object_seconds": round(object_seconds, 3),
            "columnar_seconds": round(columnar_seconds, 3),
            "speedup": round(speedup, 2),
            "columnar_messages_per_second": int(
                stream.message_count / columnar_seconds
            ),
        },
    )
    print(
        f"\ncold speaker replay ({stream.message_count} msgs): object "
        f"{object_seconds:.2f} s, columnar {columnar_seconds:.2f} s "
        f"({speedup:.2f}x)"
    )
    # The ratio reads 0.8-1.2x run to run on a shared host, so it is recorded,
    # not asserted (replay speed is gated by ``bench/run.py``'s burst_replay
    # and relay_per_message workloads).  What this test can prove is that
    # the two on-disk forms replay to the same routing state.
    columnar_best, object_best = (
        {entry.prefix: entry for entry in best_routes[form].best_entries()}
        for form in ("columnar", "object")
    )
    assert columnar_best and columnar_best == object_best


def test_bench_month_replay_slice_swifted():
    """SWIFTED end-to-end slice: inference + reroutes on the columnar path."""
    stream, rib, peer_as = _replay_session()
    result = replay_stream(
        stream,
        rib,
        peer_as=peer_as,
        swift_config=_REPLAY_SWIFT_CONFIG,
        chunk_messages=50000,
    )
    record(
        RESULTS_PATH,
        "month_replay.swifted_slice",
        {
            "messages": result.message_count,
            "withdrawals": result.withdrawal_count,
            "reroutes": result.reroutes,
            "losses": result.losses,
            "recoveries": result.recoveries,
            **bench_env(),
            "wall_seconds": round(result.wall_seconds, 2),
            "messages_per_second": int(result.messages_per_second),
        },
    )
    print(
        f"\nswifted month slice: {result.message_count} msgs in "
        f"{result.wall_seconds:.2f} s ({int(result.messages_per_second)} msg/s), "
        f"{result.reroutes} reroutes, {result.losses} losses"
    )
    assert result.reroutes > 0, "expected SWIFT to fire on the slice"
    assert result.message_count == stream.message_count
