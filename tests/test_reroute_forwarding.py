"""The forwarding property of SWIFT's reroute (§4.2, §5), on the data plane.

A prefix's tag carries one backup next hop per protected depth, and a
reroute installs one rule per (encoded position, backup next hop) of each
inferred link, so the backup a rule installs must be the backup the tag
carries.  Stated on ``forward()`` after an accepted inference:

* a prefix that crosses an inferred link L at an encoded depth no deeper
  than ``backup_depth``, and that has an alternate avoiding L, forwards to
  its provisioned backup for an inferred link it crosses, and that backup's
  path avoids that link;
* every other prefix forwards as before.

The probes below are the three ways the tree broke the property: a
reroute-time override that picked a next hop the tag did not carry, a tag
that carried the session link's backup in the position-1 group, and a
protection depth one short of the encoded one.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import prefix_block
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.encoding import EncoderConfig
from repro.core.inference import InferenceResult, PrefixPrediction
from repro.core.swifted_router import SWIFT_RULE_PRIORITY

LOCAL_AS = 1
PRIMARY = 2
PEERS = (2, 3, 4, 5)
LOCAL_PREF = {2: 200, 3: 100, 4: 100, 5: 100}
TRANSIT = (6, 7, 8, 9, 10, 11)
PREFIXES = prefix_block("90.0.0.0/24", 64)


def _canonical(link):
    return link if link[0] <= link[1] else (link[1], link[0])


def _router(groups, backup_depth=4):
    """One prefix per group; a group maps each peer to the path it announces
    (the primary is always the path via AS 2, the most preferred peer)."""
    config = SwiftConfig(
        encoder=EncoderConfig(prefix_threshold=1, backup_depth=backup_depth)
    )
    router = SwiftedRouter(LOCAL_AS, config)
    for peer in PEERS:
        router.add_peer(peer)
        routes = {
            PREFIXES[number]: ASPath(group[peer])
            for number, group in enumerate(groups)
            if peer in group
        }
        router.load_initial_routes(peer, routes, local_pref=LOCAL_PREF[peer])
    router.provision()
    return router


def _infer(router, groups, links):
    """Apply one accepted inference of ``links``; return the action."""
    inferred = {_canonical(link) for link in links}
    predicted = frozenset(
        PREFIXES[number]
        for number, group in enumerate(groups)
        if inferred & set(ASPath(group[PRIMARY]).links())
    )
    result = InferenceResult(
        timestamp=1.0,
        withdrawals_seen=len(predicted),
        inferred_links=tuple(links),
        scores=(),
        prediction=PrefixPrediction(predicted, frozenset()),
        accepted=True,
        burst_start=0.0,
    )
    return router._apply_inference(PRIMARY, result)


def _forwards(router, groups):
    return [router.forward(PREFIXES[number].network) for number in range(len(groups))]


# -- the three probes ------------------------------------------------------------

#: Prefix C's tag carries backup 3 for (2, 5).  The inferred links share
#: endpoint 5, and the deleted override moved the (2, 5) rule to the first
#: backup avoiding AS 5 — next hop 4, which C's tag does not carry.
OVERRIDE = ((
    {2: (2, 5, 6, 9), 3: (3, 5, 6, 9), 4: (4, 8, 7, 6, 9)},
), ((2, 5), (5, 7)))

#: Prefix A's only alternate crosses (2, 5).  The deleted depth-1 fallback
#: put its (1, 2) session-link backup (3) in the position-1 group, so B's
#: (2, 5) rule via 3 caught A too.
SESSION_LINK = ((
    {2: (2, 5, 6), 3: (3, 2, 5, 6)},
    {2: (2, 5, 7), 3: (3, 7)},
), ((2, 5),))

#: (7, 8) sits at position 4, encoded, but only positions 1-3 were
#: protected: no rule, although [3, 9, 8] avoids the link.
DEPTH_FOUR = ((
    {2: (2, 5, 6, 7, 8), 3: (3, 9, 8)},
), ((7, 8),))


def test_reroute_installs_the_backup_the_tag_carries():
    groups, links = OVERRIDE
    router = _router(groups)
    assert router.backup_index.profile_of[PREFIXES[0]].next_hops[(2, 5)] == 3
    assert _infer(router, groups, links) is not None
    assert _forwards(router, groups) == [3]


def test_a_backup_crossing_the_failed_link_is_never_used():
    groups, links = SESSION_LINK
    router = _router(groups)
    assert _infer(router, groups, links) is not None
    assert _forwards(router, groups) == [2, 3]
    assert PREFIXES[0] not in router.backup_index.profile_of


def test_a_link_at_position_four_is_rerouted():
    groups, links = DEPTH_FOUR
    router = _router(groups)
    action = _infer(router, groups, links)
    assert action is not None and {rule.next_hop for rule in action.rules} == {3}
    assert _forwards(router, groups) == [3]


def test_a_link_past_backup_depth_installs_nothing():
    # (6, 7) sits at position 3 with an alternate via 4 avoiding it, but the
    # tag protects two positions: no group names the link and no backup is
    # held for it.  Position 2's backup (3) differs from that alternate.
    groups = ({2: (2, 5, 6, 7), 3: (3, 6, 7), 4: (4, 9, 8, 7)},)
    router = _router(groups, backup_depth=2)
    assert set(router.encoded_tags.layout.position_groups) <= {1, 2}
    assert (6, 7) not in router.backup_index.by_link
    assert router.backup_index.profile_of[PREFIXES[0]].next_hops == {(2, 5): 3, (5, 6): 3}
    assert _infer(router, groups, [(6, 7)]) is None
    assert router.forwarding.clear_rules(min_priority=SWIFT_RULE_PRIORITY) == 0
    assert _forwards(router, groups) == [2]


def test_backup_depth_is_the_one_protection_depth():
    groups = ({2: (2, 5, 6, 7, 8, 9), 3: (3, 9)},)
    router = _router(groups, backup_depth=3)
    assert router.backup_computer.max_depth == 3
    profile = router.backup_index.profile_of[PREFIXES[0]]
    assert list(profile.next_hops) == [(2, 5), (5, 6), (6, 7)]


# -- the property over drawn topologies -----------------------------------------


@st.composite
def _scenarios(draw):
    """Groups of one prefix each: a primary via AS 2 with 1-6 links, and up to
    three alternates drawn over the same transit ASes (AS 2 included), so
    backups share, cross and avoid the primary's links.  Then a single, a
    shared-endpoint or a disjoint pair of inferred links."""
    groups = []
    for number in range(draw(st.integers(1, 6))):
        origin = 100 + number
        transit = draw(st.lists(st.sampled_from(TRANSIT), max_size=5, unique=True))
        group = {PRIMARY: (PRIMARY, *transit, origin)}
        for peer in draw(st.sets(st.sampled_from(PEERS[1:]))):
            hops = draw(st.lists(
                st.sampled_from((PRIMARY,) + TRANSIT), max_size=4, unique=True
            ))
            group[peer] = (peer, *hops, origin)
        groups.append(group)
    primary_links = sorted({
        link for group in groups for link in ASPath(group[PRIMARY]).links()
    })
    known = sorted({
        link for group in groups for path in group.values() for link in ASPath(path).links()
    })
    first = draw(st.sampled_from(primary_links))
    kind = draw(st.sampled_from(("single", "shared", "disjoint")))
    if kind == "shared":
        pool = [link for link in known if link != first and set(link) & set(first)]
    elif kind == "disjoint":
        pool = [link for link in known if not set(link) & set(first)]
    else:
        pool = []
    links = (first, draw(st.sampled_from(pool))) if pool else (first,)
    return tuple(groups), links


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(_scenarios())
@example(OVERRIDE)
@example(SESSION_LINK)
@example(DEPTH_FOUR)
def test_every_rerouted_prefix_takes_its_tag_backup(scenario):
    groups, links = scenario
    router = _router(groups)
    depth = router.config.encoder.backup_depth
    encoded = router.encoded_tags
    before = _forwards(router, groups)
    _infer(router, groups, links)
    after = _forwards(router, groups)
    inferred = {_canonical(link) for link in links}
    for number, group in enumerate(groups):
        prefix = PREFIXES[number]
        alternates = {
            (peer, path) for peer, path in group.items()
            if peer != PRIMARY and not ASPath(path).has_loop()
        }
        crossed = [
            link
            for position, link in enumerate(ASPath(group[PRIMARY]).links(), 1)
            if link in inferred and position <= depth and encoded.is_encoded(link, position)
        ]
        reroutable = [
            link for link in crossed
            if any(link not in ASPath(path).links() for _, path in alternates)
        ]
        if not reroutable:
            assert after[number] == before[number], (number, links)
            continue
        profile = router.backup_index.profile_of.get(prefix)
        backups = {} if profile is None else profile.next_hops
        taken = [link for link in crossed if backups.get(link) == after[number]]
        assert taken, (number, links, after[number], backups)
        for link in taken:
            # The backup's path is the group's alternate at that next hop.
            hop = backups[link]
            assert (hop, group.get(hop)) in alternates
            assert link not in ASPath(group[hop]).links()
