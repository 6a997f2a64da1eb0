"""Reroutes answered from the provision-time backup-profile index.

``SwiftedRouter._apply_inference`` used to walk every predicted prefix per
inferred link; it now asks a ``link -> backup profiles`` index built by
``provision()``.  The deleted walk lives on as ``tests/oracles/reroute_walk``
and these tests hold the index to it: the same rules for every inferred link
set, and an index that a warm ``provision()`` keeps equal to a from-scratch
one.
"""

import random
from collections import Counter


from oracles.reroute_walk import backup_table, walk_rules

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.backup import ReroutingPolicy
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig, InferenceResult, PrefixPrediction
from repro.core.swifted_router import SWIFT_RULE_PRIORITY

LOCAL_AS = 1
PEERS = (2, 3, 4, 5)
LOCAL_PREF = {2: 200, 3: 150, 4: 100, 5: 100}


def _config(policy=None, prefix_threshold=20):
    return SwiftConfig(
        inference=InferenceConfig(
            detector=BurstDetectorConfig(start_threshold=100, stop_threshold=1),
            schedule=TriggeringSchedule(steps=((200, 10 ** 6),), unconditional_after=200),
        ),
        encoder=EncoderConfig(prefix_threshold=prefix_threshold),
        policy=policy or ReroutingPolicy(),
    )


def _router(routes_by_peer, local_pref=LOCAL_PREF, policy=None, prefix_threshold=20):
    router = SwiftedRouter(LOCAL_AS, _config(policy, prefix_threshold))
    for peer, routes in routes_by_peer.items():
        router.add_peer(peer)
        router.load_initial_routes(peer, routes, local_pref=local_pref[peer])
    router.provision()
    return router


def _random_topology(seed, origins=40, per_origin=25):
    """Four feeds over two transit tiers; an origin's prefixes share paths."""
    rng = random.Random(seed)
    prefixes = prefix_block("60.0.0.0/24", origins * per_origin)
    routes = {peer: {} for peer in PEERS}
    for number in range(origins):
        block = prefixes[number * per_origin:(number + 1) * per_origin]
        for peer in rng.sample(PEERS, rng.randint(2, 4)):
            hops = [peer, rng.randrange(10, 14)]
            if rng.random() < 0.7:
                hops.append(rng.randrange(20, 26))
            hops.append(100 + number)
            path = ASPath(hops)
            for prefix in block:
                routes[peer][prefix] = path
    return prefixes, routes


# -- reading the router -------------------------------------------------------


def _protected_links(table):
    return sorted({link for per_link in table.values() for link in per_link})


def _protecting(table, link):
    """The prefixes holding a backup for ``link``: a complete prediction."""
    return frozenset(prefix for prefix, per_link in table.items() if link in per_link)


def _table_snapshot(router):
    """``link -> {profile value: prefix count}`` of the per-prefix reference
    table computed from scratch over the router's Loc-RIB."""
    best = dict(router.speaker.loc_rib.best_entries())
    reference = router.backup_computer.compute_table_reference(
        best, router.speaker.alternate_routes
    )
    snapshot = {}
    for winners in reference.values():
        for link, _ in winners:
            snapshot.setdefault(link, Counter())[winners] += 1
    return snapshot


def _index_snapshot(router):
    """The same, read from the index; fails on a dead or duplicated profile."""
    index = router.backup_index
    snapshot = {}
    live = set()
    for link, profiles in index.by_link.items():
        assert profiles, f"empty entry left behind for {link}"
        counts = snapshot[link] = Counter()
        for profile in profiles:
            assert profile.prefix_count > 0, (link, profile.winners)
            assert profile.winners not in counts, "one value interned twice"
            counts[profile.winners] = profile.prefix_count
            live.add(profile)
    assert live == set(index.profile_of.values()), "a profile no prefix holds"
    return snapshot


def _result(links, predicted):
    return InferenceResult(
        timestamp=1.0,
        withdrawals_seen=len(predicted),
        inferred_links=tuple(links),
        scores=(),
        prediction=PrefixPrediction(frozenset(predicted), frozenset()),
        accepted=True,
        burst_start=0.0,
    )


def _take_swift_rules(router):
    """Remove the SWIFT rules from the FIB and return them with their priority."""
    fib = router.forwarding
    assert fib.clear_rules(min_priority=SWIFT_RULE_PRIORITY + 1) == 0
    before = fib.rules()
    removed = fib.clear_rules(min_priority=SWIFT_RULE_PRIORITY)
    assert fib.rules() == before[removed:], "SWIFT rules must sit above the defaults"
    return Counter(
        (rule.value, rule.mask, rule.next_hop, SWIFT_RULE_PRIORITY)
        for rule in before[:removed]
    )


def _check(router, table, links, predicted):
    """Fire one inference; the FIB must receive exactly the walk's rules.

    ``table`` is ``backup_table(router)``, read once by the caller, and
    ``predicted`` must cover every prefix protecting each link (what an
    inference predicts when it is right).
    """
    result = _result(links, predicted)
    action = router._apply_inference(PEERS[0], result)
    installed = _take_swift_rules(router)
    expected = walk_rules(
        router.encoder,
        router.encoded_tags,
        table,
        result.inferred_links,
        predicted,
        SWIFT_RULE_PRIORITY,
    )
    if action is None:
        assert not installed
    else:
        assert (action.peer_as, action.inferred_links) == (PEERS[0], result.inferred_links)
        assert installed == Counter(
            (rule.value, rule.mask, rule.next_hop, SWIFT_RULE_PRIORITY)
            for rule in action.rules
        )
    assert installed == expected, (links, installed - expected, expected - installed)


def _check_all_links(router, rng, aggregates=6):
    table = backup_table(router)
    links = _protected_links(table)
    assert links
    for link in links:
        _check(router, table, [link], _protecting(table, link))
    for _ in range(aggregates):
        first = rng.choice(links)
        sharing = [link for link in links if link != first and set(link) & set(first)]
        apart = [link for link in links if not set(link) & set(first)]
        for pool in (sharing, apart):
            if pool:
                pair = [first, rng.choice(pool)]
                predicted = _protecting(table, pair[0]) | _protecting(table, pair[1])
                _check(router, table, pair, predicted)


# -- cold, warm and capacity-limited provisions --------------------------------


def test_cold_provision_rules_match_the_walk():
    _, routes = _random_topology(seed=3)
    router = _router(routes)
    assert _index_snapshot(router) == _table_snapshot(router)
    profiles = set(router.backup_index.profile_of.values())
    assert len(profiles) < len(backup_table(router)) / 5
    _check_all_links(router, random.Random(3), aggregates=20)


def _churn_round(router, rng, prefixes, routes, clock):
    """One quiet-time batch: withdraw / re-announce / path-change / best-peer change."""
    messages = []
    for prefix in rng.sample(prefixes, 30):
        clock += 30.0
        holders = [peer for peer in PEERS if prefix in routes[peer]]
        best = router.speaker.best_route(prefix)
        action = rng.choice(("withdraw", "reannounce", "path", "peer"))
        if action == "withdraw" and best is not None:
            messages.append(Update.withdraw(clock, best.peer_as, prefix))
            continue
        peer = rng.choice(holders)
        path = routes[peer][prefix]
        local_pref = LOCAL_PREF[peer]
        if action == "path":
            path = ASPath((peer, 14 + rng.randrange(3)) + path.asns[2:])
        elif action == "peer":
            local_pref = 300
        attributes = PathAttributes(as_path=path, next_hop=peer, local_pref=local_pref)
        messages.append(Update.announce(clock, peer, prefix, attributes))
    assert router.receive_batch(messages) == []
    return clock


def test_warm_provisions_keep_the_index_equal_to_a_full_rebuild():
    prefixes, routes = _random_topology(seed=11)
    router = _router(routes)
    rng = random.Random(11)
    clock = 100.0
    for number in range(24):
        clock = _churn_round(router, rng, prefixes, routes, clock)
        router.provision()
        assert router.last_provision_stats["mode"] == 1, "expected the warm path"
        assert router.last_provision_stats["dirty_prefixes"] > 0
        assert _index_snapshot(router) == _table_snapshot(router), f"round {number}"
        _check_all_links(router, rng, aggregates=3)
    warm = _index_snapshot(router)
    router.provision(full_rebuild=True)
    assert router.last_provision_stats["mode"] == 0
    assert _index_snapshot(router) == warm


def _assert_tags_carry_the_index_backups(router):
    """Backup group d of every tag names the profile's backup for the
    prefix's position-d link, and is empty where the profile has none."""
    encoded = router.encoded_tags
    layout = encoded.layout
    ids = encoded.next_hop_ids
    depth = router.config.encoder.backup_depth
    profile_of = router.backup_index.profile_of
    for prefix, entry in router.speaker.loc_rib.best_entries():
        profile = profile_of.get(prefix)
        backups = {} if profile is None else profile.next_hops
        tag = encoded.tags[prefix]
        links = entry.as_path.links()
        for position in range(1, depth + 1):
            hop = backups.get(links[position - 1]) if position <= len(links) else None
            group = layout.extract(tag, *layout.backup_groups[position])
            assert group == (0 if hop is None else ids[hop]), (prefix, position)


def test_tags_carry_the_index_backups_cold_and_warm():
    prefixes, routes = _random_topology(seed=17)
    router = _router(routes)
    _assert_tags_carry_the_index_backups(router)
    rng = random.Random(17)
    clock = 100.0
    for _ in range(6):
        clock = _churn_round(router, rng, prefixes, routes, clock)
        router.provision()
        assert router.last_provision_stats["mode"] == 1
        _assert_tags_carry_the_index_backups(router)


def test_capacity_limited_policy_rebuilds_the_index_every_time():
    prefixes, routes = _random_topology(seed=5)
    policy = ReroutingPolicy(capacity_limits={3: 150, 4: 400})
    router = _router(routes, policy=policy)
    rng = random.Random(5)
    clock = 100.0
    for _ in range(3):
        assert _index_snapshot(router) == _table_snapshot(router)
        _check_all_links(router, rng)
        clock = _churn_round(router, rng, prefixes, routes, clock)
        router.provision()
        assert router.last_provision_stats["mode"] == 0


# -- aggregated inferences ----------------------------------------------------


def _aggregate_topology():
    """Three failure sites behind AS 2 — links (5,6), (5,7) and (8,10) — each
    crossed by one group whose backups mix next hops and one that has a single
    alternate, so every link is protected through next hops 3 *and* 4."""
    blocks = iter(prefix_block("70.0.0.0/24", 600)[i:i + 100] for i in range(0, 600, 100))
    routes = {2: {}, 3: {}, 4: {}}

    def group(best, alternates):
        block = next(blocks)
        for peer, hops in ((2, best), *alternates.items()):
            for prefix in block:
                routes[peer][prefix] = ASPath(hops)
        return frozenset(block)

    groups = {
        # Backup via 3 crosses (5,6) (valid for (2,5) only), so the profile
        # is (2,5)->3, (5,6)->4.
        "a": group([2, 5, 6], {3: [3, 5, 6], 4: [4, 9, 6]}),
        "a3": group([2, 5, 6], {3: [3, 11, 6]}),
        "b": group([2, 5, 7], {4: [4, 9, 7]}),
        "b3": group([2, 5, 7], {3: [3, 11, 7]}),
        "c": group([2, 8, 10], {4: [4, 9, 10]}),
        "c3": group([2, 8, 10], {3: [3, 11, 10]}),
    }
    router = _router(routes, local_pref={2: 200, 3: 100, 4: 100}, prefix_threshold=50)
    return router, groups


def test_single_link_inferences_on_the_aggregate_topology():
    router, groups = _aggregate_topology()
    table = backup_table(router)
    for link in _protected_links(table):
        _check(router, table, [link], _protecting(table, link))
    # The mixed profile, unaggregated: the provisioned hop per link.
    assert router.backup_index.next_hops((5, 6)) == {4: 100, 3: 100}
    assert router.backup_index.next_hops((2, 5)) == {3: 300, 4: 100}


def test_aggregated_inference_with_a_shared_endpoint():
    router, groups = _aggregate_topology()
    predicted = groups["a"] | groups["a3"] | groups["b"] | groups["b3"]
    _check(router, backup_table(router), [(5, 6), (5, 7)], predicted)
    # Each group takes the backup its tag carries for the link it crosses:
    # group "a" the (5, 6) backup via 4, not its (2, 5) one via 3.
    router._apply_inference(2, _result([(5, 6), (5, 7)], predicted))
    assert {router.forward(prefix.network) for prefix in groups["a"]} == {4}
    assert {router.forward(prefix.network) for prefix in groups["b3"]} == {3}
    assert {router.forward(prefix.network) for prefix in groups["c"]} == {2}


def test_aggregated_inference_without_a_common_endpoint():
    router, groups = _aggregate_topology()
    predicted = groups["a"] | groups["a3"] | groups["c"] | groups["c3"]
    _check(router, backup_table(router), [(5, 6), (8, 10)], predicted)


# -- links nobody protects -----------------------------------------------------


def _deep_topology(with_shallow_group):
    """Origins 9 and 11 sit five AS hops out behind link (7, 8); the router
    protects path positions 1-4 (``backup_depth``), so nothing holds a backup
    for (8, 9) at position 5 — unless a third group reaches 9 over [2, 8, 9]."""
    prefixes = prefix_block("80.0.0.0/24", 900)
    deep, other, shallow = prefixes[:300], prefixes[300:600], prefixes[600:]
    routes = {2: {}, 3: {}, 4: {}}
    for prefix in deep:
        routes[2][prefix] = ASPath([2, 5, 6, 7, 8, 9])
        routes[3][prefix] = ASPath([3, 9])
    for prefix in other:
        routes[2][prefix] = ASPath([2, 5, 6, 7, 8, 11])
        routes[3][prefix] = ASPath([3, 11])
    if with_shallow_group:
        for prefix in shallow:
            routes[2][prefix] = ASPath([2, 8, 9])
            routes[4][prefix] = ASPath([4, 9])
    router = _router(routes, local_pref={2: 200, 3: 100, 4: 100}, prefix_threshold=50)
    return router, deep, other, shallow


def test_reroute_for_an_unprotected_deep_link_returns_no_action():
    router, deep, other, _ = _deep_topology(with_shallow_group=False)
    assert not router.encoded_tags.layout.position_groups.keys() - {1, 2, 3, 4}
    assert (8, 9) not in router.backup_index.by_link
    assert (7, 8) in router.backup_index.by_link, "position 4 is protected"
    before = [router.forward(prefix.network) for prefix in deep + other]
    assert set(before) == {2}
    # The real thing: origin 9 goes away, the engine blames (8, 9) alone.
    burst = [
        Update.withdraw(10.0 + index * 0.001, 2, prefix)
        for index, prefix in enumerate(deep)
    ]
    actions = router.receive_batch(burst)
    accepted = [result for result in router.engine_for(2).results if result.accepted]
    assert accepted and all(result.inferred_links == ((8, 9),) for result in accepted)
    assert actions == []
    assert router.forwarding.clear_rules(min_priority=SWIFT_RULE_PRIORITY) == 0
    assert [router.forward(prefix.network) for prefix in deep + other] == before
    _check(router, backup_table(router), [(8, 9)], frozenset(deep))


def test_predicted_prefix_not_crossing_the_link_at_a_protected_depth():
    """A predicted prefix that crosses the link past ``backup_depth`` holds
    no backup for it: the reroute moves only the prefixes that do."""
    router, deep, other, shallow = _deep_topology(with_shallow_group=True)
    predicted = frozenset(deep + shallow)
    _check(router, backup_table(router), [(8, 9)], predicted)
    action = router._apply_inference(2, _result([(8, 9)], predicted))
    assert action is not None and {rule.next_hop for rule in action.rules} == {4}
    assert {router.forward(prefix.network) for prefix in shallow} == {4}
    assert {router.forward(prefix.network) for prefix in deep + other} == {2}


# -- a real burst, end to end --------------------------------------------------


def test_engine_driven_reroute_installs_the_walks_rules():
    router, groups = _aggregate_topology()
    failing = sorted(groups["a"] | groups["a3"])
    random.Random(2).shuffle(failing)
    burst = [
        Update.withdraw(10.0 + index * 0.001, 2, prefix)
        for index, prefix in enumerate(failing)
    ]
    actions = router.receive_batch(burst)
    accepted = [result for result in router.engine_for(2).results if result.accepted]
    assert len(actions) == len(accepted) >= 1
    for action, result in zip(actions, accepted):
        assert (5, 6) in result.inferred_links
        expected = walk_rules(
            router.encoder, router.encoded_tags, backup_table(router),
            result.inferred_links, result.prediction.predicted_prefixes,
            SWIFT_RULE_PRIORITY,
        )
        assert expected == Counter(
            (rule.value, rule.mask, rule.next_hop, SWIFT_RULE_PRIORITY)
            for rule in action.rules
        )
    assert {router.forward(prefix.network) for prefix in groups["a"]} == {4}
    assert {router.forward(prefix.network) for prefix in groups["a3"]} == {3}
