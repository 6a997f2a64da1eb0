"""Warm ``provision()`` in O(changes): patch-in-place encoding, rank-once backups.

A warm re-provision patches the router's :class:`EncodedTags` in place,
ranks a prefix's alternates once for all its protected links and answers
``forward()`` without building a packet.  These tests hold each shortcut to
what it replaced: a cold provision from the same RIB, the per-link
filter-and-sort selection, ``forward(Packet(...))`` — and check, without a
stopwatch, that a warm provision's allocations do not grow with the table.
"""

import copy
import tracemalloc
from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from oracles.reroute_walk import backup_table
from test_inference_regressions import index_view

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Notification, OpenMessage, Update
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.rib import RibEntry
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.backup import BackupComputer, ReroutingPolicy
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig, WildcardRule
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SWIFT_RULE_PRIORITY
from repro.dataplane.fib import TwoStageForwardingTable
from repro.dataplane.packet import Packet
from repro.traces.columnar import ColumnarTrace

LOCAL_AS = 1
LOCAL_PREF = {2: 200, 3: 150, 4: 100, 5: 100}


def _config(prefix_threshold, path_bits, policy=None):
    return SwiftConfig(
        inference=InferenceConfig(
            # Churn in these tests must never look like a burst.
            detector=BurstDetectorConfig(start_threshold=10 ** 6, stop_threshold=1),
            schedule=TriggeringSchedule(steps=((10 ** 6, 10 ** 6),), unconditional_after=10 ** 6),
        ),
        encoder=EncoderConfig(prefix_threshold=prefix_threshold, path_bits=path_bits),
        policy=policy or ReroutingPolicy(),
    )


def _attributes(peer, hops):
    return PathAttributes(as_path=ASPath(hops), next_hop=peer, local_pref=LOCAL_PREF[peer])


def _router(routes_by_peer, prefix_threshold, provision=True, path_bits=18, policy=None):
    """A router with one session per peer, loaded from ``{peer: {prefix: hops}}``."""
    router = SwiftedRouter(LOCAL_AS, _config(prefix_threshold, path_bits, policy))
    for peer, routes in routes_by_peer.items():
        router.add_peer(peer)
        router.load_initial_routes(
            peer, {p: ASPath(hops) for p, hops in routes.items()}, local_pref=LOCAL_PREF[peer]
        )
    if provision:
        router.provision()
    return router


def _state(router):
    """Everything a warm provision maintains, in comparable form."""
    encoded = router.encoded_tags
    table = backup_table(router)
    index = router.backup_index
    prefixes = set(encoded.tags) | set(table)
    return {
        "tags": dict(encoded.tags),
        "link_ids": encoded.link_ids,
        "next_hop_ids": encoded.next_hop_ids,
        "link_loads": dict(encoded.link_loads),
        "eligible_loads": dict(encoded.eligible_loads),
        "next_hop_counts": dict(encoded.next_hop_counts),
        "fully_encoded": set(encoded.fully_encoded),
        "encoded_prefix_count": encoded.encoded_prefix_count,
        # Equal loads tie in insertion order, which a warm table need not share.
        "skipped_links": sorted(encoded.skipped_links),
        "layout": encoded.layout,
        "backups": table,
        "next_hops": {link: index.next_hops(link) for link in index.by_link},
        "forward": {prefix: router.forward(prefix.network) for prefix in prefixes},
    }


def _assert_eligible_is_the_threshold_subset(router):
    encoded = router.encoded_tags
    floor = max(1, encoded.config.prefix_threshold)
    assert encoded.eligible_loads == {
        key: load for key, load in encoded.link_loads.items() if load >= floor
    }
    allocated = {
        (link, position) for position, ids in encoded.link_ids.items() for link in ids
    }
    skipped = encoded.skipped_links
    assert {(link, position) for link, position, _ in skipped} == set(
        encoded.eligible_loads
    ) - allocated
    assert [load for _, _, load in skipped] == sorted(
        (load for _, _, load in skipped), reverse=True
    )


class _DeltaSpy:
    """Records what ``encode_delta`` was handed and what it answered."""

    def __init__(self, router):
        self.calls = []
        self.changes = []
        self._real = router.encoder.encode_delta
        router.encoder.encode_delta = self

    def __call__(self, previous, changes, neighbors=None):
        before = copy.deepcopy(previous)
        result = self._real(previous, changes, neighbors=neighbors)
        self.calls.append((previous, before, result))
        self.changes.append([change[0] for change in changes])
        return result


# -- the fallback nobody asserted ----------------------------------------------


def _two_feed_routes(heavy=30, light=25):
    """AS 2 (preferred) reaches ``heavy`` prefixes through AS 10 and ``light``
    through AS 11; AS 3 offers every prefix over links of its own."""
    prefixes = prefix_block("60.0.0.0/24", heavy + light)
    routes = {2: {}, 3: {}}
    for number, prefix in enumerate(prefixes):
        transit, origin = (10, 100) if number < heavy else (11, 101)
        routes[2][prefix] = [2, transit, origin]
        routes[3][prefix] = [3, 12, 200 + number]
    return prefixes, routes


class TestAllocationMovedFallback:
    def _provision_expecting_fallback(self, router, messages):
        old = router.encoded_tags
        spy = _DeltaSpy(router)
        router.receive_batch(messages)
        router.provision()
        assert router.last_provision_stats["mode"] == 1
        assert router.last_provision_stats.get("full_reencode") == 1
        assert "tag_patch" not in router.last_provision_stats
        ((handed, before, result),) = spy.calls
        assert result is None
        assert handed is old
        # The failed patch left its input exactly as it found it ...
        assert handed == before
        # ... and the router re-encoded into a new object.
        assert router.encoded_tags is not old
        warm = _state(router)
        _assert_eligible_is_the_threshold_subset(router)
        router.provision(full_rebuild=True)
        assert router.last_provision_stats["mode"] == 0
        assert warm == _state(router)
        return old

    def test_link_crossing_the_threshold(self):
        prefixes, routes = _two_feed_routes(heavy=30, light=15)
        router = _router(routes, prefix_threshold=20)
        assert router.encoded_tags.link_ids == {1: {(2, 10): 1}, 2: {(10, 100): 1}}
        fresh = prefix_block("70.0.0.0/24", 6)
        messages = [
            Update.announce(100.0 + i, 2, prefix, _attributes(2, [2, 11, 101]))
            for i, prefix in enumerate(fresh)
        ]
        self._provision_expecting_fallback(router, messages)
        assert router.encoded_tags.link_ids == {
            1: {(2, 10): 1, (2, 11): 2},
            2: {(10, 100): 1, (11, 101): 2},
        }
        assert router.encoded_tags.eligible_loads[((2, 11), 1)] == 21

    def test_link_dropping_below_the_threshold(self):
        prefixes, routes = _two_feed_routes(heavy=30, light=22)
        router = _router(routes, prefix_threshold=20)
        assert (2, 11) in router.encoded_tags.link_ids[1]
        messages = [
            Update.withdraw(100.0 + i, 2, prefix) for i, prefix in enumerate(prefixes[30:34])
        ]
        self._provision_expecting_fallback(router, messages)
        assert router.encoded_tags.link_ids == {1: {(2, 10): 1}, 2: {(10, 100): 1}}
        assert ((2, 11), 1) not in router.encoded_tags.eligible_loads

    def test_two_encoded_links_swapping_load_order(self):
        prefixes, routes = _two_feed_routes(heavy=30, light=25)
        router = _router(routes, prefix_threshold=20)
        assert router.encoded_tags.link_ids[1] == {(2, 10): 1, (2, 11): 2}
        messages = [
            Update.withdraw(100.0 + i, 2, prefix) for i, prefix in enumerate(prefixes[:10])
        ]
        self._provision_expecting_fallback(router, messages)
        # Both still at or above the threshold; only their order moved.
        assert router.encoded_tags.link_ids[1] == {(2, 11): 1, (2, 10): 2}
        assert router.encoded_tags.link_loads[((2, 10), 1)] == 20

    def test_next_hop_identifier_order_changing(self):
        prefixes = prefix_block("60.0.0.0/24", 30)
        routes = {
            2: {prefix: [2, 10, 100] for prefix in prefixes},
            3: {prefix: [3, 100] for prefix in prefixes},
            4: {prefix: [4, 13, 14, 100] for prefix in prefixes},
        }
        # No link reaches the threshold: the link allocation cannot be the cause.
        router = _router(routes, prefix_threshold=10 ** 6)
        assert router.encoded_tags.link_ids == {}
        assert router.encoded_tags.next_hop_ids == {3: 1, 2: 2, 4: 3}
        messages = [
            Update.withdraw(100.0 + i, 3, prefix) for i, prefix in enumerate(prefixes[:20])
        ]
        self._provision_expecting_fallback(router, messages)
        assert router.encoded_tags.link_ids == {}
        assert router.encoded_tags.next_hop_ids == {4: 1, 2: 2, 3: 3}

    def test_churn_below_every_boundary_patches_in_place(self):
        prefixes, routes = _two_feed_routes(heavy=30, light=25)
        router = _router(routes, prefix_threshold=20)
        old = router.encoded_tags
        tags, link_loads, fully = old.tags, old.link_loads, old.fully_encoded
        spy = _DeltaSpy(router)
        router.receive_batch(
            [Update.withdraw(100.0 + i, 2, prefix) for i, prefix in enumerate(prefixes[:3])]
        )
        router.provision()
        assert "full_reencode" not in router.last_provision_stats
        assert router.last_provision_stats["tag_patch"] == 3
        ((handed, before, result),) = spy.calls
        assert handed is old and result is not None
        assert handed != before  # it was patched
        assert router.encoded_tags is old
        assert old.tags is tags and old.link_loads is link_loads and old.fully_encoded is fully
        # An eligible link whose load moved without crossing anything.
        assert old.eligible_loads[((2, 10), 1)] == old.link_loads[((2, 10), 1)] == 27
        warm = _state(router)
        _assert_eligible_is_the_threshold_subset(router)
        router.provision(full_rebuild=True)
        assert warm == _state(router)


# -- warm == cold, as a property -----------------------------------------------

# Skewed, so that link loads sit apart and single changes move an eligible
# load without reordering the allocation (the patch path) as often as they
# tip it over (the fallback).
_TRANSITS = (10, 10, 10, 10, 10, 11, 11, 12)
_MIDDLES = (None, None, None, 20, 20, 21)


@st.composite
def _scenarios(draw):
    peers = list(range(2, 2 + draw(st.integers(2, 4))))
    count = draw(st.integers(8, 40))
    # From "every link is eligible" to "none is"; the middle band is where
    # only the trunk links are, and stay so under a few changes.
    threshold = draw(
        st.one_of(st.integers(1, count + 3), st.integers(count // 6 + 1, count // 3 + 1))
    )
    path_bits = draw(st.sampled_from((2, 3, 18)))  # 2-3: the budget rejects links
    spare = draw(st.integers(0, 4))

    def hops(peer, number):
        path = [peer, draw(st.sampled_from(_TRANSITS))]
        middle = draw(st.sampled_from(_MIDDLES))
        if middle is not None:
            path.append(middle)
        path.append(100 + number % 5)
        return path

    initial = {peer: {} for peer in peers}
    for number in range(count):
        holders = draw(st.lists(st.sampled_from(peers), min_size=1, unique=True))
        for peer in holders:
            initial[peer][number] = hops(peer, number)
    rounds = []
    for _ in range(draw(st.integers(1, 5))):
        operations = []
        for _ in range(draw(st.integers(1, 4))):
            peer = draw(st.sampled_from(peers))
            number = draw(st.integers(0, count + spare - 1))
            if draw(st.booleans()):
                operations.append((peer, number, None))
            else:
                operations.append((peer, number, hops(peer, number)))
        rounds.append(operations)
    return peers, count + spare, threshold, path_bits, initial, rounds


def _assert_one_profile_per_next_hops(router):
    """Prefixes whose per-link backup next hops are equal hold one profile,
    whatever the AS paths of their backup routes."""
    profiles = set(router.backup_index.profile_of.values())
    values = [tuple(profile.next_hops.items()) for profile in profiles]
    assert len(values) == len(set(values)), sorted(values)


class TestWarmEqualsCold:
    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_scenarios())
    @example(
        # Both prefixes cross (2, 10) and (10, 100) and are backed up by AS 3
        # on both, over different AS paths; the round moves prefix 0's backup
        # path and keeps its next hops.
        scenario=(
            [2, 3],
            2,
            10 ** 6,
            18,
            {2: {0: [2, 10, 100], 1: [2, 10, 100]}, 3: {0: [3, 11, 100], 1: [3, 12, 20, 100]}},
            [[(3, 0, [3, 12, 21, 100])]],
        )
    )
    def test_every_warm_provision_equals_a_cold_twin(self, scenario):
        peers, total, threshold, path_bits, initial, rounds = scenario
        prefixes = prefix_block("60.0.0.0/24", total)
        routes = {
            peer: {prefixes[number]: path for number, path in table.items()}
            for peer, table in initial.items()
        }
        warm = _router(routes, threshold, path_bits=path_bits)
        history = []
        clock = 100.0
        for operations in rounds:
            messages = []
            for peer, number, path in operations:
                clock += 30.0
                if path is None:
                    messages.append(Update.withdraw(clock, peer, prefixes[number]))
                else:
                    messages.append(
                        Update.announce(clock, peer, prefixes[number], _attributes(peer, path))
                    )
            history.extend(messages)
            actions = warm.receive_batch(messages)
            warm.provision()
            assert warm.last_provision_stats["mode"] == 1

            cold = _router(routes, threshold, provision=False, path_bits=path_bits)
            cold.speaker.receive_batch(history)
            cold.provision()
            assert cold.last_provision_stats["mode"] == 0
            assert _state(warm) == _state(cold)
            _assert_eligible_is_the_threshold_subset(warm)
            _assert_one_profile_per_next_hops(warm)
            _assert_one_profile_per_next_hops(cold)
            assert actions == []


# -- what a warm provision does not do -------------------------------------------


def _three_feed_routes(count=40):
    """AS 2 (preferred) over transit 10, AS 3 over 12 (every prefix's backup),
    AS 4 over 13 (nobody's backup: AS 3 ranks first and is always valid)."""
    prefixes = prefix_block("60.0.0.0/24", count)
    routes = {2: {}, 3: {}, 4: {}}
    for number, prefix in enumerate(prefixes):
        routes[2][prefix] = [2, 10, 100 + number % 4]
        routes[3][prefix] = [3, 12, 100 + number % 4]
        routes[4][prefix] = [4, 13, 100 + number % 4]
    return prefixes, routes


class TestWarmProvisionSkips:
    def test_no_decision_sort_on_warm_or_cold_provision(self, monkeypatch):
        prefixes, routes = _three_feed_routes()
        router = _router(routes, prefix_threshold=10 ** 6)
        router.receive_batch(
            [Update.withdraw(100.0 + i, 2, prefix) for i, prefix in enumerate(prefixes[:10])]
            + [
                Update.announce(200.0 + i, 3, prefix, _attributes(3, [3, 14, 100 + i % 4]))
                for i, prefix in enumerate(prefixes[10:20])
            ]
        )
        ranked = []
        process = router.speaker.decision_process
        real_rank = process.rank

        def rank(candidates):
            ranked.append(candidates)
            return real_rank(candidates)

        # The backups are interned next hops: there is no per-(prefix, link)
        # record type left to count, only the decision-process sort.
        monkeypatch.setattr(process, "rank", rank)
        router.provision()
        assert router.last_provision_stats["mode"] == 1
        assert router.last_provision_stats["dirty_prefixes"] == 20
        assert ranked == []
        warm = _state(router)
        # The cold path fills the index through compute_table, unsorted too.
        router.provision(full_rebuild=True)
        assert router.last_provision_stats["mode"] == 0
        assert ranked == []
        monkeypatch.undo()
        assert warm == _state(router)

    def test_a_prefix_keeping_path_and_profile_skips_the_encoder(self):
        prefixes, routes = _three_feed_routes()
        router = _router(routes, prefix_threshold=10 ** 6)
        spy = _DeltaSpy(router)
        # AS 4's routes back nothing up: their prefixes keep path and profile.
        router.receive_batch(
            [Update.withdraw(100.0 + i, 4, prefix) for i, prefix in enumerate(prefixes[:5])]
            + [Update.withdraw(200.0, 2, prefixes[5])]
        )
        router.provision()
        stats = router.last_provision_stats
        assert (stats["dirty_prefixes"], stats["unchanged"], stats["tag_patch"]) == (6, 5, 1)
        assert spy.changes == [[prefixes[5]]]
        warm = _state(router)
        router.provision(full_rebuild=True)
        assert warm == _state(router)


    def test_encode_delta_leaves_the_tags_to_update_tags(self):
        """The encoder only computes the stage-1 patch; ``update_tags`` is the
        one writer of the tags (stage 1 is that dict), so it sees each
        prefix's prior presence and keeps the per-length counts right while
        a prefix length comes and goes."""
        _, routes = _two_feed_routes(heavy=30, light=25)
        router = _router(routes, prefix_threshold=20)
        tags = router.encoded_tags.tags
        patches = []
        real = router.encoder.encode_delta

        def encode_delta(previous, changes, neighbors=None):
            before = dict(previous.tags)
            patch = real(previous, changes, neighbors=neighbors)
            assert previous.tags == before, "encode_delta wrote the tags"
            patches.append(patch)
            return patch

        router.encoder.encode_delta = encode_delta
        wide = Prefix.from_string("61.0.0.0/16")
        fib = router.forwarding
        for message in (
            Update.announce(100.0, 2, wide, _attributes(2, [2, 10, 100])),
            Update.withdraw(200.0, 2, wide),
        ):
            router.receive_batch([message])
            router.provision()
            assert "full_reencode" not in router.last_provision_stats
            assert fib._stage1 is router.encoded_tags.tags is tags
            lengths = Counter(prefix[1] for prefix in tags)
            assert fib._length_counts == [lengths[length] for length in range(33)]
            assert [length for _, length in fib._probes] == sorted(lengths, reverse=True)
        assert patches == [{wide: patches[0][wide]}, {wide: None}]
        assert wide not in tags


# -- a session reset withdraws the peer's routes everywhere ------------------------


def _feed(router, path, messages):
    """Feed ``messages`` through one of the router's three entry families.

    Returns the reroute actions the feed produced.
    """
    if path == "receive":
        return [action for action in map(router.receive, messages) if action is not None]
    if path == "receive_batch":
        return router.receive_batch(messages)
    return router.receive_columnar(ColumnarTrace.from_messages(messages))


def _assert_nothing_through(router, peer):
    """No best route, backup, tag group or ``forward()`` answer names ``peer``."""
    encoded = router.encoded_tags
    layout = encoded.layout
    peer_id = encoded.next_hop_ids.get(peer)
    groups = [layout.primary_group, *layout.backup_groups.values()]
    for prefix, tag in encoded.tags.items():
        assert router.speaker.best_route(prefix).peer_as != peer, prefix
        assert router.forward(prefix.network) != peer, prefix
        assert peer_id not in {layout.extract(tag, *group) for group in groups}, prefix
    for prefix, profile in router.backup_index.profile_of.items():
        assert peer not in profile.next_hops.values(), prefix
    assert router.backup_index.next_hops((LOCAL_AS, peer)) == {}


class TestSessionReset:
    @pytest.mark.parametrize("path", ["receive", "receive_batch", "receive_columnar"])
    def test_warm_provision_after_a_notification_equals_a_full_rebuild(self, path):
        prefixes, routes = _three_feed_routes()
        # Prefixes only AS 2 carries lose reachability with its session.
        routes[2].update({prefix: [2, 10, 200] for prefix in prefix_block("70.0.0.0/24", 4)})
        router = _router(routes, prefix_threshold=10)
        assert router.forward(prefixes[0].network) == 2
        _feed(router, path, [Notification(timestamp=100.0, peer_as=2)])
        router.provision()
        assert router.last_provision_stats["mode"] == 1
        _assert_nothing_through(router, 2)
        assert router.last_provision_stats["dirty_prefixes"] == len(routes[2])
        assert {router.forward(prefix.network) for prefix in prefixes} == {3}
        warm = _state(router)
        router.provision(full_rebuild=True)
        assert warm == _state(router)
        # The session comes back with half the table.
        _feed(
            router,
            path,
            [OpenMessage(timestamp=200.0, peer_as=2)]
            + [
                Update.announce(201.0 + i, 2, prefix, _attributes(2, routes[2][prefix]))
                for i, prefix in enumerate(prefixes[:20])
            ],
        )
        router.provision()
        assert router.last_provision_stats["mode"] == 1
        assert [router.forward(prefix.network) for prefix in prefixes] == [2] * 20 + [3] * 20
        warm = _state(router)
        router.provision(full_rebuild=True)
        assert warm == _state(router)

    @pytest.mark.parametrize("path", ["receive", "receive_batch", "receive_columnar"])
    def test_a_notification_resets_the_inference_engine_in_band(self, path):
        failing = prefix_block("60.0.0.0/24", 20)  # AS 2 over transit 10
        other = prefix_block("61.0.0.0/24", 20)  # AS 2 over transit 11
        routes = {
            2: {**{p: [2, 10, 100] for p in failing}, **{p: [2, 11, 101] for p in other}},
            3: {p: [3, 12, 102] for p in failing + other},
        }

        def bursty_router():
            router = SwiftedRouter(
                LOCAL_AS,
                SwiftConfig(
                    inference=InferenceConfig(
                        detector=BurstDetectorConfig(start_threshold=5, stop_threshold=1),
                        schedule=TriggeringSchedule(steps=((10, 10 ** 6),), unconditional_after=10),
                    ),
                    encoder=EncoderConfig(prefix_threshold=10, path_bits=18),
                ),
            )
            for peer, table in routes.items():
                router.add_peer(peer)
                router.load_initial_routes(
                    peer, {p: ASPath(hops) for p, hops in table.items()}, local_pref=LOCAL_PREF[peer]
                )
            router.provision()
            return router

        # A burst has started (5 of 6 withdrawals) when the session closes.
        closing = [Update.withdraw(100.0 + i / 10, 2, p) for i, p in enumerate(failing[:6])]
        closing.append(Notification(timestamp=101.0, peer_as=2))
        router, twin = bursty_router(), bursty_router()
        for each in (router, twin):
            _feed(each, path, closing)
        twin.provision(full_rebuild=True)
        engine, rebuilt = router.engine_for(2), twin.engine_for(2)
        assert engine is not rebuilt
        assert index_view(engine) == index_view(rebuilt) == ({}, {}, {})
        assert engine.withdrawals_in_current_burst == 0
        assert not engine.detector.is_bursting
        assert engine.results == []

        # The session comes back with half of each group, then the first
        # group fails: nothing the closed session carried may be predicted.
        back = failing[:10] + other[:10]
        _feed(
            router,
            path,
            [OpenMessage(timestamp=200.0, peer_as=2)]
            + [
                Update.announce(201.0 + i / 100, 2, p, _attributes(2, routes[2][p]))
                for i, p in enumerate(back)
            ],
        )
        assert engine.current_rib() == {p: ASPath(routes[2][p]) for p in back}
        actions = _feed(
            router, path, [Update.withdraw(300.0 + i / 100, 2, p) for i, p in enumerate(failing[:10])]
        )
        assert engine.results
        for result in engine.results:
            assert result.prediction.predicted_prefixes <= set(back), result
        assert actions



# -- rank once per prefix == rank once per link ----------------------------------


def _per_link_select(computer, link, alternates, usage):
    """The backup next hop as selected before ranking moved out of the link
    loop: filter the alternates valid for *this* link, sort them, walk
    capacity."""
    candidates = []
    for entry in alternates:
        if not computer.policy.allows(entry.next_hop):
            continue
        if link in entry.as_path.links():
            continue
        candidates.append(entry)
    candidates.sort(
        key=lambda entry: (
            computer.policy.preference_of(entry.next_hop),
            len(entry.as_path),
            entry.next_hop,
        )
    )
    for entry in candidates:
        capacity = computer.policy.capacity_of(entry.next_hop)
        if capacity is not None and usage is not None:
            if usage.get(entry.next_hop, 0) >= capacity:
                continue
        if usage is not None:
            usage[entry.next_hop] = usage.get(entry.next_hop, 0) + 1
        return entry.next_hop
    return None


_NEIGHBORS = (2, 3, 4, 5, 6)
_PATH_ASNS = st.lists(st.sampled_from((10, 11, 12, 20, 21, 100)), min_size=1, max_size=4, unique=True)


@st.composite
def _selection_cases(draw):
    policy = ReroutingPolicy(
        forbidden_next_hops=frozenset(draw(st.sets(st.sampled_from(_NEIGHBORS), max_size=2))),
        preferences=draw(st.dictionaries(st.sampled_from(_NEIGHBORS), st.integers(0, 3))),
        capacity_limits=draw(st.dictionaries(st.sampled_from(_NEIGHBORS), st.integers(0, 4))),
        default_preference=draw(st.integers(0, 3)),
    )
    computer = BackupComputer(policy=policy, max_depth=draw(st.integers(1, 5)))
    cases = []
    for _ in range(draw(st.integers(1, 5))):
        primary = ASPath([draw(st.sampled_from(_NEIGHBORS))] + draw(_PATH_ASNS))
        alternates = []
        for _ in range(draw(st.integers(0, 5))):
            neighbor = draw(st.sampled_from(_NEIGHBORS))
            attributes = PathAttributes(
                as_path=ASPath([neighbor] + draw(_PATH_ASNS)), next_hop=neighbor
            )
            alternates.append(RibEntry(attributes, neighbor))
        cases.append((primary, alternates))
    return computer, cases


_TIE_PEERS = (2, 3, 4)
#: The AS every feed may name as its first hop (and so as its next hop).
_SHARED_HOP = 7


def _tie_attributes(hops, local_pref, med):
    """MRT-style: the next hop is the path's first AS, not the session's peer."""
    return PathAttributes(as_path=ASPath(hops), next_hop=hops[0], local_pref=local_pref, med=med)


@st.composite
def _tie_scenarios(draw):
    """Feeds whose equally long routes may all start at AS 7, told apart only
    by LOCAL_PREF and MED: ``BackupComputer.rank``'s key ties on them, and
    the drawn announcement order is the Loc-RIB's candidate order.  The
    first round is the initial table, later rounds churn it."""
    count = draw(st.integers(1, 4))

    def attributes(peer):
        first = _SHARED_HOP if draw(st.booleans()) else peer
        hops = [first, draw(st.sampled_from((10, 11, 12))), 100]
        return _tie_attributes(hops, draw(st.sampled_from((100, 150))), draw(st.integers(0, 2)))

    rounds = []
    for number in range(draw(st.integers(1, 4))):
        operations = []
        for _ in range(draw(st.integers(1, 8))):
            peer = draw(st.sampled_from(_TIE_PEERS))
            withdraw = number and draw(st.integers(0, 3)) == 0
            operations.append(
                (peer, draw(st.integers(0, count - 1)), None if withdraw else attributes(peer))
            )
        rounds.append(operations)
    return count, rounds


def _walked_backups(router):
    """The router's Loc-RIB through the per-link filter-sort-walk, over the
    speaker's decision-ordered ``alternate_routes`` (the reference)."""
    computer = router.backup_computer
    table = {}
    for prefix, best in router.speaker.loc_rib.best_entries():
        alternates = router.speaker.alternate_routes(prefix)
        per_link = {}
        for link in computer.protected_links(best.as_path):
            hop = _per_link_select(computer, link, alternates, None)
            if hop is not None:
                per_link[link] = hop
        if per_link:
            table[prefix] = per_link
    return table


class TestRankOnceSelection:
    @settings(max_examples=200, deadline=None)
    @given(_selection_cases(), st.booleans())
    def test_select_winners_equals_the_per_link_loop(self, case, with_usage):
        computer, cases = case
        usage = {} if with_usage else None
        reference_usage = {} if with_usage else None
        for primary, alternates in cases:
            got = dict(computer.select_winners(primary, alternates, usage))
            links = computer.protected_links(primary)
            expected = {}
            for link in links:
                hop = _per_link_select(computer, link, alternates, reference_usage)
                if hop is not None:
                    expected[link] = hop
            assert got == expected
            assert list(got) == list(expected)
            # select() on raw alternates is select() on their ranking.
            ranked = computer.rank(alternates)
            for link in links:
                assert computer.select(link, alternates) is computer.select(link, ranked)
        assert usage == reference_usage

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(_tie_scenarios())
    @example(
        # AS 4's and AS 3's backups tie under rank's key; the decision
        # process puts AS 3 first (lower MED), the candidate order AS 4.
        # Both name next hop 7, so either order selects the same backup.
        scenario=(
            1,
            [[
                (2, 0, _tie_attributes([2, 10, 100], 150, 0)),
                (4, 0, _tie_attributes([7, 11, 100], 100, 1)),
                (3, 0, _tie_attributes([7, 12, 100], 100, 0)),
            ]],
        )
    )
    def test_shared_next_hop_ties_pick_the_per_link_walks_backup(self, scenario):
        count, rounds = scenario
        prefixes = prefix_block("60.0.0.0/24", count)

        def messages_of(operations, start):
            return [
                Update.withdraw(start + i, peer, prefixes[number])
                if attributes is None
                else Update.announce(start + i, peer, prefixes[number], attributes)
                for i, (peer, number, attributes) in enumerate(operations)
            ]

        def fresh_router():
            router = SwiftedRouter(LOCAL_AS, _config(10 ** 6, 18))
            for peer in _TIE_PEERS:
                router.add_peer(peer)
            return router

        warm = fresh_router()
        history = []
        for number, operations in enumerate(rounds):
            messages = messages_of(operations, 100.0 * number)
            history.extend(messages)
            if number:
                warm.receive_batch(messages)
            else:
                warm.speaker.receive_batch(messages)
            warm.provision()
            assert warm.last_provision_stats["mode"] == (1 if number else 0)
            cold = fresh_router()
            cold.speaker.receive_batch(history)
            cold.provision()
            expected = _walked_backups(cold)
            assert backup_table(warm) == expected
            assert backup_table(cold) == expected
            best = dict(cold.speaker.loc_rib.best_entries())
            reference = cold.backup_computer.compute_table_reference(
                best, cold.speaker.alternate_routes
            )
            assert {prefix: dict(winners) for prefix, winners in reference.items()} == expected
            assert _state(warm) == _state(cold)

    def test_protected_links_are_the_first_path_links(self):
        path = ASPath([2, 10, 11, 12, 13, 100])
        assert BackupComputer().protected_links(path) == [
            (2, 10), (10, 11), (11, 12), (12, 13)
        ]
        assert BackupComputer(max_depth=2).protected_links(path) == [(2, 10), (10, 11)]
        assert BackupComputer().protected_links(ASPath([2, 100])) == [(2, 100)]


# -- the lookup that builds no objects, the install that sorts once ---------------


def _assert_lookups_agree(table, addresses):
    for address in addresses:
        decision = table.forward(Packet(destination=address))
        assert table.forward_address(address) == decision.next_hop


class TestObjectFreeLookup:
    def test_forward_address_equals_forward(self):
        prefixes, routes = _two_feed_routes(heavy=30, light=25)
        router = _router(routes, prefix_threshold=20)
        table = router.forwarding
        untagged = Prefix.from_string("99.0.0.0/24").network
        addresses = [prefix.network for prefix in prefixes] + [untagged]
        # Default rules only.
        _assert_lookups_agree(table, addresses)
        assert table.forward_address(untagged) is None
        assert {table.forward_address(a) for a in addresses[:-1]} == {2}
        # SWIFT rules on top: traffic crossing (10, 100) moves to AS 3.
        rules = router.encoder.reroute_rules(router.encoded_tags, (10, 100), {3: 30})
        assert rules
        table.install_rules(rules, priority=SWIFT_RULE_PRIORITY)
        _assert_lookups_agree(table, addresses)
        assert [table.forward_address(p.network) for p in prefixes[:30]] == [3] * 30
        assert [table.forward_address(p.network) for p in prefixes[30:]] == [2] * 25
        # Stage-1 removals: the address falls off the table.
        table.update_tags({prefixes[0]: None, prefixes[40]: None})
        _assert_lookups_agree(table, addresses)
        assert table.forward_address(prefixes[0].network) is None
        # A tag no rule matches is a drop, not an error.
        table.clear_rules()
        _assert_lookups_agree(table, addresses)
        assert table.forward_address(prefixes[1].network) is None

    @pytest.mark.parametrize(
        "path", ["full_rebuild", "capacity_limits", "peer_removed", "allocation_moved"]
    )
    def test_a_full_path_provision_replaces_stage_1(self, path):
        """Every non-incremental provision reloads stage 1 whole: a prefix that
        left every session loses its tag, instead of keeping one encoded under
        the identifier allocation the re-encode replaced."""
        prefixes, routes = _two_feed_routes(heavy=30, light=22)
        gone, carrier = prefixes[40], 2
        if path == "peer_removed":
            # Only AS 3 carries it, and AS 3 holds next-hop identifier 1, which
            # AS 2 inherits once AS 3 leaves.
            gone, carrier = Prefix.from_string("10.1.0.0/24"), 3
            routes[3][gone] = [3, 12, 300]
        policy = ReroutingPolicy(capacity_limits={3: 100}) if path == "capacity_limits" else None
        router = _router(routes, prefix_threshold=20, policy=policy)
        assert router.forward(gone.network) == carrier
        if path == "peer_removed":
            assert router.encoded_tags.next_hop_ids == {3: 1, 2: 2}
            router.speaker.remove_peer(3)
        else:
            withdrawn = [(2, gone), (3, gone)]
            if path == "allocation_moved":
                # (2, 11) drops below the threshold, so the patch falls back.
                withdrawn += [(2, prefix) for prefix in prefixes[30:34]]
            router.receive_batch([
                Update.withdraw(100.0 + i, peer, prefix)
                for i, (peer, prefix) in enumerate(withdrawn)
            ])
        router.provision(full_rebuild=path == "full_rebuild")
        assert router.last_provision_stats["mode"] == (path == "allocation_moved")
        if path == "allocation_moved":
            assert router.last_provision_stats["full_reencode"] == 1
        for address in [prefix.network for prefix in prefixes] + [gone.network]:
            best = router.speaker.lpm_route(address)
            assert router.forward(address) == (best.next_hop if best else None), address
        assert router.forward(gone.network) is None

    def test_install_rules_orders_like_repeated_install_rule(self):
        rules = [WildcardRule(value=i, mask=0xF, next_hop=i) for i in range(6)]
        one_by_one, batched = TwoStageForwardingTable(), TwoStageForwardingTable()
        for table in (one_by_one, batched):
            table.install_rule(rules[0], priority=0)
            table.install_rule(rules[1], priority=100)
        for rule in rules[2:5]:
            one_by_one.install_rule(rule, priority=100)
        assert batched.install_rules(rules[2:5], priority=100) == 3
        one_by_one.install_rule(rules[5], priority=50)
        assert batched.install_rules(rules[5:], priority=50) == 1
        assert batched.install_rules([], priority=7) == 0
        assert batched.rules() == one_by_one.rules()
        assert [r.next_hop for r in batched.rules()] == [4, 3, 2, 1, 5, 0]
        assert batched.stage2_updates == one_by_one.stage2_updates == 6


# -- O(changes), without a stopwatch ----------------------------------------------


def _ladder_router(count):
    """``count`` prefixes over three feeds; the first 100 are the same at every
    size.  The preferred feed spreads them 10/20/30/40 % over four transits,
    so the large table has threshold-eligible links whose loads 100 dirty
    prefixes move but do not reorder."""
    prefixes = prefix_block("10.0.0.0/24", count)
    routes = {2: {}, 3: {}, 4: {}}
    for number, prefix in enumerate(prefixes):
        origin = 1000 + number // 8
        routes[2][prefix] = [2, 10 + (0, 1, 1, 2, 2, 2, 3, 3, 3, 3)[number % 10], origin]
        routes[3][prefix] = [3, 20 + number % 5, 30 + number % 3, origin]
        routes[4][prefix] = [4, 40 + number % 3, origin]
    return prefixes, _router(routes, prefix_threshold=1500)


def _warm_provision_peak(router, prefixes):
    """tracemalloc peak, in bytes, of one warm provision with 100 dirty prefixes."""
    router.receive_batch(
        [Update.withdraw(100.0 + i * 30.0, 2, prefix) for i, prefix in enumerate(prefixes[:100])]
    )
    tracemalloc.start()
    try:
        baseline, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        router.provision()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert router.last_provision_stats["dirty_prefixes"] == 100
    assert "full_reencode" not in router.last_provision_stats
    return peak - baseline


class TestWarmProvisionAllocatesInProportionToChanges:
    def test_peak_allocation_does_not_follow_the_table(self):
        small_prefixes, small = _ladder_router(4000)
        large_prefixes, large = _ladder_router(16000)
        tags, link_loads = large.encoded_tags.tags, large.encoded_tags.link_loads
        small_peak = _warm_provision_peak(small, small_prefixes)
        large_peak = _warm_provision_peak(large, large_prefixes)
        assert small_peak > 0
        assert abs(large_peak - small_peak) / small_peak < 0.25, (small_peak, large_peak)
        assert large.encoded_tags.tags is tags
        assert large.encoded_tags.link_loads is link_loads
        assert len(tags) == 16000
        # The large table did go through the eligible-link check.
        assert large.encoded_tags.eligible_loads[((2, 10), 1)] == 1590
        assert large.encoded_tags.link_ids[1] == {(2, 13): 1, (2, 12): 2, (2, 11): 3, (2, 10): 4}
