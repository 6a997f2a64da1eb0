"""Bytes per route held by the router's stores, without a stopwatch.

The engines are the router's per-session view of the Adj-RIB-In, interned by
AS path (``LinkPrefixIndex``).  The speaker holds the Adj-RIB-Ins themselves,
each interning one route per attribute object, and the Loc-RIB's best
routes.  The rest of the router's bytes are the
backup index and the tag encoding, whose tag dict is the FIB's stage 1 (the
FIB allocates no copy of it, which is checked by identity).  These tests
hold each store to a byte budget
per route after a cold ``provision()`` of a ``FullTableGenerator`` table, and
hold a long-lived index and a long-lived Adj-RIB-In to their live RIB under
path churn.  The speaker is also held after a drive, before any read: its
Loc-RIB then keeps a stale set of every prefix the drive touched, and the
shared routes the drive replaced stay alive until the next read selects.
Run the 64k × 3 table, which prints the per-line breakdown and the route
table that ``src/repro/core/README.md`` publishes, with
``pytest -m slow tests/test_engine_memory.py -s``.
"""

from __future__ import annotations

import gc
import linecache
import tracemalloc

import pytest

from test_warm_provision import _router, _two_feed_routes

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.bgp.rib import AdjRibIn
from repro.core.fit_score import LinkPrefixIndex
from repro.core.swifted_router import SwiftedRouter
from repro.traces.fulltable import FullTableConfig, FullTableGenerator

ENGINE_FILES = ("core/fit_score.py", "core/inference.py")
SPEAKER_FILES = ("bgp/speaker.py", "bgp/rib.py", "bgp/session.py")
PEERS = 3


def _generate(prefix_count):
    return FullTableGenerator(
        FullTableConfig(prefix_count=prefix_count, peer_count=PEERS, seed=1)
    ).generate()


def _provisioned_snapshot(prefix_count):
    """A tracemalloc snapshot of a cold-provisioned ``prefix_count`` × 3 router."""
    snapshot, routes, _ = _snapshot_after(_generate(prefix_count), drive=None)
    return snapshot, routes


def _burst_and_heal(table):
    """Every prefix of the first feed withdrawn, then re-announced a minute on."""
    peer_as = table.peers[0]
    trace = table.burst(peer_as, len(table), start_time=10.0)
    for prefix, attributes in table.entries(peer_as):
        trace.announce(70.0, peer_as, prefix, attributes)
    return trace


def _snapshot_after(table, drive):
    """Snapshot a cold-provisioned router over ``table``, after ``drive`` if any.

    ``drive`` is a columnar trace the provisioned router receives before the
    snapshot, with no read of its Loc-RIB in between.
    """
    initial = table.columnar_table()
    gc.collect()
    tracemalloc.start()
    try:
        router = SwiftedRouter(65000)
        for peer_as in table.peers:
            router.add_peer(peer_as)
        router.speaker.receive_columnar(initial)
        router.provision()
        if drive is not None:
            router.receive_columnar(drive)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    routes = sum(len(router.speaker.session(peer_as).rib_in) for peer_as in table.peers)
    assert routes == len(table) * PEERS
    return snapshot, routes, router


def _bytes(snapshot, files):
    """Bytes of the allocations whose top frame is in one of ``files``."""
    return sum(
        stat.size
        for stat in snapshot.statistics("filename")
        if stat.traceback[0].filename.endswith(files)
    )


@pytest.fixture(scope="module")
def snapshot_16k():
    return _provisioned_snapshot(16_000)


def test_engine_bytes_per_route_at_16k(snapshot_16k):
    snapshot, routes = snapshot_16k
    per_route = _bytes(snapshot, ENGINE_FILES) / routes
    assert per_route <= 150, f"{per_route:.1f} B per route"


def test_speaker_bytes_per_route_at_16k(snapshot_16k):
    """The Adj-RIB-Ins are the only copy of a route: the Loc-RIB reads them.

    A route is shared by every prefix its peer announced with the same
    attribute object, so a prefix costs its Adj-RIB-In slot and its best
    route slot.  About 5 % above the 56.6 B per route measured at 16k x 3.
    """
    snapshot, routes = snapshot_16k
    per_route = _bytes(snapshot, SPEAKER_FILES) / routes
    assert per_route <= 60, f"{per_route:.1f} B per route"


def test_speaker_bytes_per_route_at_16k_with_the_stale_set_at_its_largest():
    """A burst and heal of a whole 16k feed (16k x 2 rows), before any read.

    The drive leaves every prefix stale and selects nothing; a
    ``provision()`` settles the whole set.  About 5 % above the 69.3 B per
    route measured at 16k x 3: the provisioned 56.6, the stale set's 12.3
    and the routes interned anew by the heal (``src/repro/core/README.md``).
    """
    table = _generate(16_000)
    snapshot, routes, router = _snapshot_after(table, _burst_and_heal(table))
    loc_rib = router.speaker.loc_rib
    assert len(loc_rib._stale) == len(table)
    per_route = _bytes(snapshot, SPEAKER_FILES) / routes
    assert per_route <= 73, f"{per_route:.1f} B per route"
    router.provision()
    assert not loc_rib._stale


@pytest.mark.parametrize(
    "source, budget", [("core/backup.py", 32), ("core/encoding.py", 28)]
)
def test_the_rest_of_the_router_bytes_per_route_at_16k(snapshot_16k, source, budget):
    """About 5 % above 30.6 / 26.4 B per route, measured at 16k x 3."""
    snapshot, routes = snapshot_16k
    per_route = _bytes(snapshot, (source,)) / routes
    assert per_route <= budget, f"{source}: {per_route:.1f} B per route"


def test_stage_1_is_the_encodings_tag_dict():
    """The FIB's stage 1 is the dict ``encode()`` built, after every kind of
    provision: its bytes are the encoding's, and the FIB holds no copy."""
    prefixes, routes = _two_feed_routes(heavy=30, light=22)
    router = _router(routes, prefix_threshold=20)
    tags = router.encoded_tags.tags
    assert router.forwarding._stage1 is tags

    def withdraw(clock, batch):
        router.receive_batch(
            [Update.withdraw(clock + i, 2, prefix) for i, prefix in enumerate(batch)]
        )
        router.provision()

    withdraw(100.0, prefixes[:1])
    assert router.last_provision_stats["tag_patch"] == 1
    assert router.encoded_tags.tags is tags and router.forwarding._stage1 is tags
    # (2, 11) drops below the threshold: the patch falls back to a re-encode.
    withdraw(200.0, prefixes[30:34])
    assert router.last_provision_stats["full_reencode"] == 1
    assert router.forwarding._stage1 is router.encoded_tags.tags is not tags
    router.provision(full_rebuild=True)
    assert router.last_provision_stats["mode"] == 0
    assert router.forwarding._stage1 is router.encoded_tags.tags


def _print_lines(snapshot, routes, label, files):
    print(f"{label} allocations by source line")
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        if frame.filename.endswith(files) and stat.size / routes >= 0.5:
            line = linecache.getline(frame.filename, frame.lineno).strip()
            name = frame.filename.split("src/repro/")[-1]
            print(f"  {stat.size / routes:7.1f}  {name}:{frame.lineno}  {line}")
    per_route = _bytes(snapshot, files) / routes
    print(f"{label} total {per_route:.1f} B per route")
    return per_route


@pytest.mark.slow
def test_bytes_per_route_at_64k_by_structure():
    snapshot, routes, router = _snapshot_after(_generate(64_000), drive=None)
    print(f"\n64k x {PEERS}: {routes} routes, bytes per route by allocating file")
    for stat in snapshot.statistics("filename")[:8]:
        name = stat.traceback[0].filename.split("src/repro/")[-1]
        print(f"  {name:32s} {stat.size / routes:7.1f}")
    engine = _print_lines(snapshot, routes, "engine", ENGINE_FILES)
    speaker = _print_lines(snapshot, routes, "speaker", SPEAKER_FILES)
    shared = sum(
        len(router.speaker.session(peer_as).rib_in._interned) for peer_as in router.speaker.peer_ases
    )
    print(f"route table: {shared} shared routes for {routes} routes ({routes / shared:.1f} each)")
    assert engine <= 143, f"engine {engine:.1f} B per route"
    assert speaker <= 65, f"speaker {speaker:.1f} B per route"


def _index_bytes(snapshot):
    return sum(
        trace.size
        for trace in snapshot.traces
        if trace.traceback[0].filename.endswith("core/fit_score.py")
    )


def test_index_forgets_dead_paths():
    """An always-on index under path churn stays the size of its live RIB."""
    prefixes = prefix_block("10.0.0.0/24", 1_000)
    rib = {prefix: ASPath([2, 5, 6 + number % 20]) for number, prefix in enumerate(prefixes)}
    churned = prefixes[0]
    tracemalloc.start()
    try:
        index = LinkPrefixIndex(rib, local_as=1, peer_as=2)
        start = _index_bytes(tracemalloc.take_snapshot())
        for hop in range(20_000):
            index.set_path(churned, ASPath([2, 1_000 + hop, 6]))
        index.set_path(churned, rib[churned])
        gc.collect()
        end = _index_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert abs(end - start) <= 0.1 * start, (start, end)
    assert index.paths() == rib
    # No group outlives its last prefix: the pool holds the 20 live paths.
    assert len(index._groups) == len({id(group) for group in index.group_of.values()}) == 20
    assert set(index.routed_for_link) == set(index.groups_of_link)
    assert not any(1_000 <= asn for link in index.routed_for_link for asn in link)


def _rib_bytes(snapshot):
    return sum(
        trace.size
        for trace in snapshot.traces
        if trace.traceback[0].filename.endswith("bgp/rib.py")
    )


def test_session_forgets_dead_routes():
    """An always-on Adj-RIB-In under path churn stays the size of its live
    RIB: a route leaves the intern table with its last prefix."""
    prefixes = prefix_block("10.0.0.0/24", 1_000)
    attributes = [
        PathAttributes(as_path=ASPath([2, 5, 6 + number]), next_hop=2) for number in range(20)
    ]
    churned = prefixes[0]
    tracemalloc.start()
    try:
        rib = AdjRibIn(peer_as=2)
        for number, prefix in enumerate(prefixes):
            rib.announce(prefix, attributes[number % 20])
        start = _rib_bytes(tracemalloc.take_snapshot())
        for hop in range(20_000):
            rib.announce(
                churned, PathAttributes(as_path=ASPath([2, 1_000 + hop, 6]), next_hop=2)
            )
        rib.announce(churned, attributes[0])
        gc.collect()
        end = _rib_bytes(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    assert abs(end - start) <= 0.1 * start, (start, end)
    # One shared route per live attribute object, each counting its prefixes.
    assert len(rib._interned) == 20
    assert sorted(route.prefix_count for route in rib._interned.values()) == [50] * 20
    assert {id(route) for route in rib._routes.values()} == {
        id(route) for route in rib._interned.values()
    }
    assert all(rib.get(prefix).attributes is attributes[n % 20] for n, prefix in enumerate(prefixes))
