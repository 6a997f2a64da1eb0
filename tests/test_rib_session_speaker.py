"""Tests for RIBs, decision process, sessions and the BGP speaker."""

from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from test_inference_regressions import index_view
from test_replay_pipeline import _event_sets, _heard
from test_reroute_index import PEERS, _random_topology, _router

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.decision import DecisionProcess, gao_rexford_ranking, standard_ranking
from repro.bgp.messages import (
    Announcement,
    KeepAlive,
    Notification,
    OpenMessage,
    Update,
)
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.rib import AdjRibIn, LocRib, RibEntry, RouteChangeKind
from repro.bgp.session import PeeringSession, SessionState
from repro.bgp.speaker import BestRouteChange, BGPSpeaker
from repro.core import SwiftedRouter
from repro.traces.columnar import ColumnarTrace


def _attrs(path, next_hop=None, local_pref=100):
    as_path = ASPath(path)
    return PathAttributes(
        as_path=as_path, next_hop=next_hop or as_path.first_hop, local_pref=local_pref
    )


PFX = prefix_block("10.0.0.0/24", 50)


class TestAdjRibIn:
    def test_announce_withdraw_cycle(self):
        rib = AdjRibIn(peer_as=2)
        change = rib.announce(PFX[0], _attrs([2, 5, 6]))
        assert change.kind == RouteChangeKind.NEW
        change = rib.announce(PFX[0], _attrs([2, 3, 6]))
        assert change.kind == RouteChangeKind.UPDATED
        change = rib.withdraw(PFX[0])
        assert change.kind == RouteChangeKind.WITHDRAWN
        assert rib.withdraw(PFX[0]).kind == RouteChangeKind.UNCHANGED

    def test_link_index_tracks_paths(self):
        rib = AdjRibIn(peer_as=2)
        for prefix in PFX[:10]:
            rib.announce(prefix, _attrs([2, 5, 6]))
        for prefix in PFX[10:15]:
            rib.announce(prefix, _attrs([2, 3, 7]))
        assert rib.prefix_count_via_link((5, 6)) == 10
        assert rib.prefix_count_via_link((6, 5)) == 10
        assert rib.prefix_count_via_link((3, 7)) == 5
        rib.withdraw(PFX[0])
        assert rib.prefix_count_via_link((5, 6)) == 9
        # Re-announcing over a new path moves the prefix between links.
        rib.announce(PFX[1], _attrs([2, 3, 7]))
        assert rib.prefix_count_via_link((5, 6)) == 8
        assert rib.prefix_count_via_link((3, 7)) == 6


class TestDecisionProcess:
    def test_prefers_local_pref_then_length(self):
        process = DecisionProcess()
        entries = [
            RibEntry(PFX[0], _attrs([2, 5, 6], local_pref=100), 2),
            RibEntry(PFX[0], _attrs([3, 6], local_pref=100), 3),
            RibEntry(PFX[0], _attrs([4, 5, 9, 6], local_pref=200), 4),
        ]
        assert process.select(entries).peer_as == 4
        # Without the local-pref boost the shortest path wins.
        entries[2] = RibEntry(PFX[0], _attrs([4, 5, 6], local_pref=100), 4)
        assert process.select(entries).peer_as == 3

    def test_discards_looped_paths(self):
        process = DecisionProcess()
        looped = RibEntry(PFX[0], _attrs([2, 5, 2]), 2)
        assert process.select([looped]) is None

    def test_gao_rexford_ranking_prefers_customer(self):
        relationships = {2: 2, 3: 0}  # 2 = provider, 3 = customer
        process = DecisionProcess(gao_rexford_ranking(lambda asn: relationships[asn]))
        entries = [
            RibEntry(PFX[0], _attrs([2, 6]), 2),
            RibEntry(PFX[0], _attrs([3, 5, 6]), 3),
        ]
        assert process.select(entries).peer_as == 3


class TestPeeringSession:
    def test_processing_updates_rib_and_stats(self):
        session = PeeringSession(1, 2)
        session.establish()
        session.process(Update.announce(1.0, 2, PFX[0], _attrs([2, 6])))
        session.process(Update.withdraw(2.0, 2, PFX[0]))
        assert session.stats.announcements_received == 1
        assert session.stats.withdrawals_received == 1
        assert len(session.rib_in) == 0

    def test_notification_resets_rib(self):
        session = PeeringSession(1, 2)
        session.establish()
        session.process(Update.announce(1.0, 2, PFX[0], _attrs([2, 6])))
        session.process(Notification(timestamp=2.0, peer_as=2))
        assert session.state == SessionState.CLOSED
        assert len(session.rib_in) == 0
        assert session.stats.session_resets == 1

    def test_close_withdraws_every_route_and_tells_the_change_observers(self):
        session = PeeringSession(1, 2)
        session.establish()
        session.process_batch(
            [Update.announce(1.0, 2, prefix, _attrs([2, 6])) for prefix in PFX[:3]]
        )
        heard = []
        session.add_change_observer(lambda s, prefixes: heard.append((s, list(prefixes))))
        changes = session.close()
        assert sorted(change.prefix for change in changes) == PFX[:3]
        assert {change.kind for change in changes} == {RouteChangeKind.WITHDRAWN}
        assert heard == [(session, [change.prefix for change in changes])]
        assert session.state == SessionState.CLOSED
        assert len(session.rib_in) == 0
        assert session.stats.session_resets == 1
        # Closing an empty session is a reset with nothing to tell.
        assert session.close() == []
        assert len(heard) == 1 and session.stats.session_resets == 2

    def test_open_reestablishes_a_closed_session(self):
        session = PeeringSession(1, 2)
        assert session.state == SessionState.IDLE
        session.establish()
        session.close()
        session.process(OpenMessage(timestamp=5.0, peer_as=2))
        assert session.state == SessionState.ESTABLISHED
        session.process(Update.announce(6.0, 2, PFX[0], _attrs([2, 6])))
        assert len(session.rib_in) == 1
        assert session.stats.messages_received == 2
        assert session.stats.last_message_at == 6.0

    def test_keepalive_counts_without_touching_the_rib(self):
        session = PeeringSession(1, 2)
        session.establish()
        session.process(Update.announce(1.0, 2, PFX[0], _attrs([2, 6])))
        heard = []
        session.add_change_observer(lambda s, prefixes: heard.append(prefixes))
        assert session.process(KeepAlive(7.0, 2)) == []
        assert session.process_batch([KeepAlive(8.0, 2)]) == [[]]
        assert heard == []
        assert len(session.rib_in) == 1
        stats = session.stats
        assert (stats.messages_received, stats.last_message_at) == (3, 8.0)
        assert (stats.announcements_received, stats.withdrawals_received) == (1, 0)

    def test_process_batch_equals_process_per_message(self):
        messages = [
            OpenMessage(timestamp=0.0, peer_as=2),
            Update.announce(1.0, 2, PFX[0], _attrs([2, 6])),
            Update.announce(1.5, 2, PFX[1], _attrs([2, 5, 6])),
            Update.withdraw_many(2.0, 2, [PFX[0], PFX[2]]),
            KeepAlive(3.0, 2),
            Notification(timestamp=4.0, peer_as=2),
            OpenMessage(timestamp=5.0, peer_as=2),
            Update.announce(6.0, 2, PFX[3], _attrs([2, 7, 6])),
        ]
        single, batched = PeeringSession(1, 2), PeeringSession(1, 2)
        per_message = [single.process(message) for message in messages]
        assert batched.process_batch(messages) == per_message
        assert batched.stats == single.stats
        assert batched.state == single.state == SessionState.ESTABLISHED
        assert {p: batched.rib_in.get(p) for p in batched.rib_in} == {
            p: single.rib_in.get(p) for p in single.rib_in
        }
        assert batched.stats.session_resets == 1
        assert batched.stats.withdrawals_received == 2


class TestBGPSpeaker:
    def test_best_route_changes_on_withdrawal(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        speaker.add_peer(3)
        speaker.receive(Update.announce(0.0, 2, PFX[0], _attrs([2, 5, 6], local_pref=200)))
        speaker.receive(Update.announce(0.0, 3, PFX[0], _attrs([3, 6])))
        assert speaker.best_route(PFX[0]).peer_as == 2
        changes = _heard(speaker)
        assert speaker.receive(Update.withdraw(1.0, 2, PFX[0])) == 1
        assert len(changes) == 1
        assert changes[0].new.peer_as == 3
        assert speaker.best_route(PFX[0]).peer_as == 3

    def test_loss_of_reachability(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        speaker.receive(Update.announce(0.0, 2, PFX[0], _attrs([2, 6])))
        changes = _heard(speaker)
        speaker.receive(Update.withdraw(1.0, 2, PFX[0]))
        assert changes[0].is_loss_of_reachability
        assert speaker.best_route(PFX[0]) is None

    def test_alternate_routes_sorted_by_preference(self):
        speaker = BGPSpeaker(1)
        for peer in (2, 3, 4):
            speaker.add_peer(peer)
        speaker.receive(Update.announce(0.0, 2, PFX[0], _attrs([2, 5, 6], local_pref=300)))
        speaker.receive(Update.announce(0.0, 3, PFX[0], _attrs([3, 6])))
        speaker.receive(Update.announce(0.0, 4, PFX[0], _attrs([4, 5, 6])))
        alternates = speaker.alternate_routes(PFX[0])
        assert [entry.peer_as for entry in alternates] == [3, 4]

    def test_unknown_peer_raises(self):
        speaker = BGPSpeaker(1)
        with pytest.raises(KeyError):
            speaker.receive(Update.withdraw(0.0, 9, PFX[0]))

    def test_remove_peer_withdraws_routes(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        speaker.receive(Update.announce(0.0, 2, PFX[0], _attrs([2, 6])))
        changes = _heard(speaker)
        assert speaker.remove_peer(2) == 1
        assert changes and changes[0].new is None

    @pytest.mark.parametrize("teardown", ["remove_peer", "notification"])
    def test_teardown_tells_the_best_route_listeners(self, teardown):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        speaker.receive(Update.announce(0.0, 2, PFX[0], _attrs([2, 6])))
        heard = []
        speaker.add_best_route_listener(heard.append)
        if teardown == "remove_peer":
            changed = speaker.remove_peer(2)
        else:
            changed = speaker.receive(Notification(timestamp=1.0, peer_as=2))
        assert changed == 1
        (changes,) = heard
        assert len(changes) == 1 and changes[0].is_loss_of_reachability

    def test_removing_a_peer_without_routes_tells_no_listener(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        speaker.add_peer(3)
        speaker.receive(Update.announce(0.0, 3, PFX[0], _attrs([3, 6])))
        heard = []
        speaker.add_best_route_listener(heard.append)
        assert speaker.remove_peer(2) == 0
        assert heard == []
        assert speaker.peer_ases == [3]
        assert speaker.best_route(PFX[0]).peer_as == 3

    def test_removing_a_peer_falls_back_to_the_next_best_route(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        speaker.add_peer(3)
        speaker.receive(Update.announce(0.0, 2, PFX[0], _attrs([2, 6], local_pref=200)))
        speaker.receive(Update.announce(0.0, 3, PFX[0], _attrs([3, 5, 6])))
        heard = []
        speaker.add_best_route_listener(heard.append)
        assert speaker.remove_peer(2) == 1
        (changes,) = heard
        assert [(c.old.peer_as, c.new.peer_as) for c in changes] == [(2, 3)]
        assert not changes[0].is_loss_of_reachability
        assert speaker.alternate_routes(PFX[0]) == []

    def test_peer_set_is_checked(self):
        speaker = BGPSpeaker(1)
        session = speaker.add_peer(2)
        assert session.state == SessionState.ESTABLISHED
        with pytest.raises(ValueError):
            speaker.add_peer(2)
        speaker.remove_peer(2)
        with pytest.raises(KeyError):
            speaker.remove_peer(2)
        with pytest.raises(KeyError):
            speaker.session(2)


# -- the link queries are scans; the engine holds the one maintained index ------


def _burst_and_reconvergence(router, peer):
    """Fail the busiest link of ``peer``'s session, then re-converge.

    Every prefix over the link is withdrawn 1 ms apart (enough to start a
    burst and fire an inference); a minute later all of them come back —
    every other one over a detour — and a few unrelated prefixes are
    withdrawn for good.  The closing re-announcement is far enough out for
    the engine to have expired those from its detection window.
    """
    rib = router.speaker.session(peer).rib_in
    counts = rib.link_prefix_counts()
    link = max(counts, key=lambda link: (counts[link], link))
    failed = sorted(rib.prefixes_via_link(link))
    assert len(failed) > 200, "the burst must be large enough to trigger inference"
    messages = [
        Update.withdraw(10.0 + number * 0.001, peer, prefix)
        for number, prefix in enumerate(failed)
    ]
    for number, prefix in enumerate(failed):
        path = rib.get(prefix).as_path
        if number % 2:
            path = ASPath((peer, 19) + path.asns[2:])
        attributes = PathAttributes(as_path=path, next_hop=peer, local_pref=200)
        messages.append(Update.announce(70.0 + number * 0.001, peer, prefix, attributes))
    gone = sorted(set(rib.prefixes()).difference(failed))[:5]
    for number, prefix in enumerate(gone):
        messages.append(Update.withdraw(200.0 + number, peer, prefix))
    messages.append(Update.announce(4000.0, peer, failed[-1], attributes))
    return link, messages


@pytest.mark.parametrize("entry_point", ["receive", "receive_columnar"])
def test_derived_link_view_agrees_with_the_engine_index(entry_point):
    _, routes = _random_topology(seed=7, origins=40, per_origin=40)
    router = _router(routes)
    peer = PEERS[0]
    failed_link, messages = _burst_and_reconvergence(router, peer)
    if entry_point == "receive":
        for message in messages:
            router.receive(message)
    else:
        router.receive_columnar(ColumnarTrace.from_messages(messages))
    engine = router.engine_for(peer)
    assert any(failed_link in result.inferred_links for result in engine.results)

    rib = router.speaker.session(peer).rib_in
    index = engine.index
    local_link = (router.local_as, peer)
    derived = Counter(
        link for entry in rib.entries() for link in set(entry.as_path.links())
    )
    assert rib.link_prefix_counts() == dict(derived)
    assert sorted(rib.links()) == sorted(derived)
    assert set(index.routed_for_link) == set(derived) | {local_link}
    for link in index.routed_for_link:
        maintained = index.prefixes_via([link])
        if link == local_link:
            # Only the engine scores the session's own first link.
            assert maintained == frozenset(rib.prefixes())
            continue
        assert rib.prefixes_via_link(link) == maintained, link
        assert rib.prefixes_via_link(link[::-1]) == maintained, link
        assert rib.prefix_count_via_link(link) == index.routed_for_link[link]
    assert rib.prefixes_via_link((64999, 65000)) == frozenset()
    assert rib.prefix_count_via_link((64999, 65000)) == 0


# -- batched and columnar re-selection against the per-message speaker ---------

_POOL = prefix_block("10.9.0.0/24", 4)
_PARITY_PEERS = (2, 3, 4)


def _path_pool(peer):
    """What a peer may announce: two clean paths, a preferred one, a loop."""
    return (
        _attrs([peer, 6]),
        _attrs([peer, 7, 6]),
        _attrs([peer, 6], local_pref=200),
        _attrs([peer, 7, peer]),
    )


_UPDATES = st.lists(
    st.tuples(
        st.integers(0, 2),  # peer (folded onto the peers in play)
        st.lists(st.integers(0, len(_POOL) - 1), max_size=2),  # withdrawals
        st.lists(  # announcements: (prefix, path)
            st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, 3)), max_size=2
        ),
        st.integers(0, 1),  # time step: 0 keeps re-announcements *equal*
    ).filter(lambda update: update[1] or update[2]),
    min_size=1,
    max_size=30,
)


def _parity_speaker(peers, prefix_independent):
    speaker = BGPSpeaker(1, DecisionProcess(prefix_independent=prefix_independent))
    for peer in peers:
        speaker.add_peer(peer)
    return speaker


def _parity_state(speaker):
    loc_rib = speaker.loc_rib
    best = {entry.prefix: entry for entry in loc_rib.best_entries()}
    candidates = {
        prefix: sorted(loc_rib.candidates(prefix), key=lambda entry: entry.peer_as)
        for prefix in _POOL
    }
    return best, candidates


class TestBatchedReselectionParity:
    @settings(max_examples=150, deadline=None)
    @given(
        peer_count=st.integers(1, 3),
        prefix_independent=st.booleans(),
        updates=_UPDATES,
        split=st.integers(0, 30),
    )
    def test_batch_and_columnar_match_per_message(
        self, peer_count, prefix_independent, updates, split
    ):
        peers = _PARITY_PEERS[:peer_count]
        paths = {peer: _path_pool(peer) for peer in peers}
        messages = []
        clock = 0.0
        for peer_index, withdrawn, announced, step in updates:
            peer = peers[peer_index % peer_count]
            clock += step
            messages.append(
                Update(
                    timestamp=clock,
                    peer_as=peer,
                    announcements=tuple(
                        Announcement(_POOL[prefix], paths[peer][path])
                        for prefix, path in announced
                    ),
                    withdrawals=tuple(_POOL[prefix] for prefix in withdrawn),
                )
            )
        # The head builds pre-batch state per message on every speaker, so
        # the batch also meets prefixes that start routed, or unrouted
        # behind a looped sole candidate.
        head, tail = messages[:split], messages[split:]
        speakers = {
            name: _parity_speaker(peers, prefix_independent)
            for name in ("receive", "receive_batch", "receive_columnar")
        }
        for speaker in speakers.values():
            for message in head:
                speaker.receive(message)
        changes = {name: _heard(speaker) for name, speaker in speakers.items()}
        for message in tail:
            speakers["receive"].receive(message)
        assert speakers["receive_batch"].receive_batch(tail) == speakers[
            "receive_columnar"
        ].receive_columnar(ColumnarTrace.from_messages(tail))
        expected_state = _parity_state(speakers["receive"])
        expected_events = _event_sets(changes["receive"])
        for name in ("receive_batch", "receive_columnar"):
            assert _parity_state(speakers[name]) == expected_state, name
            assert _event_sets(changes[name]) == expected_events, name
        for prefix, entry in expected_state[0].items():
            assert not entry.as_path.has_loop(), prefix

    @pytest.mark.parametrize("prefix_independent", [True, False])
    def test_sole_looped_candidate_ends_unrouted(self, prefix_independent):
        speaker = _parity_speaker((2, 3), prefix_independent)
        speaker.receive(Update.announce(0.0, 2, PFX[0], _attrs([2, 6])))
        speaker.receive(Update.announce(0.0, 3, PFX[0], _attrs([3, 7, 3])))
        changes = _heard(speaker)
        assert speaker.receive_batch([Update.withdraw(1.0, 2, PFX[0])]) == 1
        assert [(c.prefix, c.new) for c in changes] == [(PFX[0], None)]
        assert changes[0].is_loss_of_reachability
        assert speaker.best_route(PFX[0]) is None
        assert len(speaker.loc_rib.candidates(PFX[0])) == 1

    @pytest.mark.parametrize("entry_point", ["receive_batch", "receive_columnar"])
    @pytest.mark.parametrize("prefix_independent", [True, False])
    def test_looped_reannounce_of_a_route_from_the_same_batch_is_a_loss(
        self, prefix_independent, entry_point
    ):
        """One UPDATE withdraws a prefix and re-announces it over a loop.

        The prefix's only route arrived earlier in the same batch, so the
        batch starts and ends unrouted; the recovery and the loss in between
        must both be reported, as the per-message speaker reports them.
        """
        batch = [
            Update.announce(0.0, 2, PFX[0], _attrs([2, 6])),
            Update(
                timestamp=1.0,
                peer_as=2,
                announcements=(Announcement(PFX[0], _attrs([2, 7, 2])),),
                withdrawals=(PFX[0],),
            ),
        ]
        reference = _parity_speaker((2,), prefix_independent)
        expected = _heard(reference)
        for message in batch:
            reference.receive(message)
        assert _event_sets(expected) == ([PFX[0]], [PFX[0]])

        speaker = _parity_speaker((2,), prefix_independent)
        changes = _heard(speaker)
        if entry_point == "receive_batch":
            speaker.receive_batch(batch)
        else:
            speaker.receive_columnar(ColumnarTrace.from_messages(batch))
        assert _event_sets(changes) == _event_sets(expected)
        assert _parity_state(speaker) == _parity_state(reference)
        assert speaker.best_route(PFX[0]) is None

    @pytest.mark.parametrize("prefix_independent", [True, False])
    def test_sole_candidate_replaced_by_an_equal_one_emits_nothing(
        self, prefix_independent
    ):
        speaker = _parity_speaker((2,), prefix_independent)
        speaker.receive(Update.announce(5.0, 2, PFX[0], _attrs([2, 6])))
        before = speaker.best_route(PFX[0])
        heard = _heard(speaker)
        assert speaker.receive_batch([Update.announce(5.0, 2, PFX[0], _attrs([2, 6]))]) == 0
        assert heard == []
        assert speaker.best_route(PFX[0]) == before
        # A later timestamp is a different route: same next hop, one change.
        assert speaker.receive_batch([Update.announce(6.0, 2, PFX[0], _attrs([2, 6]))]) == 1
        (change,) = heard
        assert change == BestRouteChange(PFX[0], before, speaker.best_route(PFX[0]))
        assert not change.next_hop_changed and hash(change) == hash(
            BestRouteChange(prefix=PFX[0], old=change.old, new=change.new)
        )


# -- the speaker's column walk against the per-message speaker -----------------

# Three /24s under one /16, so longest-prefix matches have something to choose.
_WALK_POOL = prefix_block("10.9.0.0/24", 3) + [Prefix.from_string("10.9.0.0/16")]
_WALK_ADDRESSES = [prefix.network + 1 for prefix in _WALK_POOL[:3]] + [
    Prefix.from_string("10.9.200.0/24").network + 1
]
_WALK_PEERS = (2, 3)

_ROWS = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(0, 1),  # peer
            st.lists(st.integers(0, len(_WALK_POOL) - 1), max_size=3),  # withdrawals
            st.lists(  # announcements: (prefix, path)
                st.tuples(st.integers(0, len(_WALK_POOL) - 1), st.integers(0, 3)),
                max_size=3,
            ),
        ),
        st.tuples(
            st.sampled_from(["open", "notification", "keepalive"]),
            st.integers(0, 1),
            st.just(()),
            st.just(()),
        ),
    ),
    min_size=1,
    max_size=40,
)


def _walk_messages(rows, start=0.0):
    """Messages from generated rows; a row with no prefixes stays an UPDATE."""
    messages = []
    for number, (kind, peer_index, withdrawn, announced) in enumerate(rows):
        peer = _WALK_PEERS[peer_index]
        timestamp = start + number // 2  # pairs of rows share a timestamp
        if kind == "open":
            messages.append(OpenMessage(timestamp=timestamp, peer_as=peer))
        elif kind == "notification":
            messages.append(Notification(timestamp=timestamp, peer_as=peer))
        elif kind == "keepalive":
            messages.append(KeepAlive(timestamp, peer))
        else:
            paths = _path_pool(peer)
            messages.append(
                Update(
                    timestamp=timestamp,
                    peer_as=peer,
                    announcements=tuple(
                        Announcement(_WALK_POOL[prefix], paths[path])
                        for prefix, path in announced
                    ),
                    withdrawals=tuple(_WALK_POOL[prefix] for prefix in withdrawn),
                )
            )
    return messages


def _session_state(speaker):
    return {
        session.peer_as: (
            session.state,
            vars(session.stats),
            dict(session.rib_in._routes),
        )
        for session in speaker.sessions()
    }


def _lpm_answers(speaker):
    return [
        [speaker.lpm_route(address) for address in _WALK_ADDRESSES],
        list(speaker.loc_rib.best_trie().items()),
    ]


def _same_route(old, new):
    return old is new or (old is not None and new is not None and old == new)


class TestColumnWalkMatchesPerMessage:
    """``receive_columnar`` walks the columns; ``receive`` is the oracle."""

    @settings(max_examples=200, deadline=None)
    @given(head=_ROWS, tail=_ROWS, tries=st.booleans())
    @example(
        # One UPDATE withdraws a prefix and re-announces it over a loop,
        # after the prefix's only route arrived in the same batch.
        head=[("update", 0, [], [])],
        tail=[("update", 0, [], [(0, 0)]), ("update", 0, [0], [(0, 3)])],
        tries=True,
    )
    @example(
        head=[("update", 0, [], [(3, 0), (0, 1)]), ("update", 1, [], [(0, 0)])],
        tail=[
            ("update", 0, [0], []),
            ("notification", 0, (), ()),
            ("update", 1, [], []),
            ("open", 0, (), ()),
            ("update", 0, [], [(1, 2)]),
            ("keepalive", 1, (), ()),
        ],
        tries=True,
    )
    @example(
        # A reset, then the peer's route comes back looped and then clean:
        # a loss and a recovery, on every path.
        head=[("update", 0, [], [(0, 0)])],
        tail=[
            ("notification", 0, (), ()),
            ("update", 0, [], [(0, 3)]),
            ("update", 0, [], [(0, 0)]),
        ],
        tries=False,
    )
    def test_column_walk_matches_per_message_and_batch(self, head, tail, tries):
        head_messages = _walk_messages(head)
        tail_messages = _walk_messages(tail, start=1000.0)
        speakers = {
            name: _parity_speaker(_WALK_PEERS, True)
            for name in ("receive", "receive_batch", "columns")
        }
        for speaker in speakers.values():
            for message in head_messages:
                speaker.receive(message)
            if tries:
                # The best-trie branch of the walk: maintained, not rebuilt.
                speaker.loc_rib.best_trie()
        # First touch, in message order: what the per-message sessions
        # report to their change observers.
        touched = []
        for session in speakers["receive"].sessions():
            session.add_change_observer(lambda _, prefixes: touched.extend(prefixes))
        walked = []
        for session in speakers["columns"].sessions():
            session.add_change_observer(lambda _, prefixes: walked.extend(prefixes))
        before = dict(speakers["columns"].loc_rib._best)

        oracle, batched, changes = (
            _heard(speakers[name]) for name in ("receive", "receive_batch", "columns")
        )
        for message in tail_messages:
            speakers["receive"].receive(message)
        batch_count = speakers["receive_batch"].receive_batch(tail_messages)
        count = speakers["columns"].receive_columnar(
            ColumnarTrace.from_messages(tail_messages)
        )

        columns = speakers["columns"]
        for name in ("receive", "receive_batch"):
            assert _session_state(columns) == _session_state(speakers[name]), name
        for prefix in _WALK_POOL:
            assert columns.loc_rib.candidates(prefix) == speakers[
                "receive"
            ].loc_rib.candidates(prefix)
        assert dict(columns.loc_rib._best) == dict(speakers["receive"].loc_rib._best)
        assert _lpm_answers(columns) == _lpm_answers(speakers["receive"])
        assert _event_sets(changes) == _event_sets(batched)
        assert _event_sets(changes) == _event_sets(oracle)
        assert sorted(walked) == sorted(touched)

        # The final changes close the list, in first-touch order.
        after = columns.loc_rib._best
        final = [
            prefix
            for prefix in dict.fromkeys(touched)
            if not _same_route(before.get(prefix), after.get(prefix))
        ]
        assert count == batch_count == len(final)
        tail_changes = changes[len(changes) - len(final):]
        assert [change.prefix for change in tail_changes] == final
        for change in tail_changes:
            assert _same_route(change.old, before.get(change.prefix))
            assert _same_route(change.new, after.get(change.prefix))


# -- the winner memo: one selection per candidate profile ----------------------


class _SpyDecisionProcess(DecisionProcess):
    def __init__(self, prefix_independent=True):
        super().__init__(prefix_independent=prefix_independent)
        self.selected = []
        self.ranked = 0

    def select(self, candidates):
        candidates = list(candidates)
        self.selected.append(
            (
                tuple(entry.peer_as for entry in candidates),
                tuple(id(entry.attributes) for entry in candidates),
            )
        )
        return super().select(candidates)

    def rank(self, candidates):
        self.ranked += 1
        return super().rank(candidates)


def _grouped_reselect(speaker, prefixes):
    """The grouped two-pass re-selection the memo replaced (reference)."""
    loc_rib = speaker.loc_rib
    candidates_of = loc_rib.candidate_map
    changes = []

    def install(prefix, new):
        old = loc_rib.best(prefix)
        if _same_route(old, new):
            return
        loc_rib.set_best(new, prefix)
        changes.append(BestRouteChange(prefix, old, new))

    groups = {}
    for prefix in prefixes:
        peers = candidates_of(prefix)
        if not peers:
            install(prefix, None)
        elif len(peers) == 1:
            (sole,) = peers.values()
            install(prefix, None if sole.attributes.as_path.has_loop() else sole)
        else:
            key = (tuple(peers), tuple(id(entry.attributes) for entry in peers.values()))
            groups.setdefault(key, []).append(prefix)
    for members in groups.values():
        winner = speaker.decision_process.select(list(candidates_of(members[0]).values()))
        for prefix in members:
            install(prefix, None if winner is None else candidates_of(prefix)[winner.peer_as])
    return changes


def _profile_table(peers=(2, 3, 4), count=40):
    """A table whose prefixes share four candidate profiles, one looped."""
    speaker = BGPSpeaker(1, _SpyDecisionProcess())
    for peer in peers:
        speaker.add_peer(peer)
    shared = {peer: _path_pool(peer) for peer in peers}
    messages = []
    for number, prefix in enumerate(PFX[:count]):
        profile = number % 4
        messages.append(Update.announce(0.0, 2, prefix, shared[2][0]))
        if profile != 3:
            messages.append(Update.announce(0.0, 3, prefix, shared[3][profile]))
        if profile == 2:
            messages.append(Update.announce(0.0, 4, prefix, shared[4][1]))
    speaker.receive_batch(messages)
    return speaker, shared


class TestWinnerMemo:
    def test_select_runs_once_per_candidate_profile(self):
        speaker, shared = _profile_table()
        spy = speaker.decision_process
        spy.selected.clear()
        # Every prefix gets a new route from AS 2: profiles 0-2 keep their
        # other candidates, profile 3 is left with a sole (looped) one.
        batch = [
            Update.announce(1.0, 2, prefix, shared[2][3 if number % 4 == 3 else 2])
            for number, prefix in enumerate(PFX[:40])
        ]
        changes = _heard(speaker)
        speaker.receive_columnar(ColumnarTrace.from_messages(batch))
        profiles = {
            (
                tuple(speaker.loc_rib.candidate_map(prefix)),
                tuple(
                    id(entry.attributes)
                    for entry in speaker.loc_rib.candidate_map(prefix).values()
                ),
            )
            for prefix in PFX[:40]
            if len(speaker.loc_rib.candidate_map(prefix)) > 1
        }
        assert len(profiles) == 3
        assert sorted(spy.selected) == sorted(profiles)
        # Sole looped candidates lose reachability without a selection.
        lost = [change.prefix for change in changes if change.is_loss_of_reachability]
        assert lost == PFX[3:40:4]

    def test_prefix_dependent_rankings_reselect_per_prefix(self):
        speaker = BGPSpeaker(1, _SpyDecisionProcess(prefix_independent=False))
        for peer in (2, 3, 4):
            speaker.add_peer(peer)
        speaker.receive_batch(
            [
                Update.announce(0.0, peer, prefix, _attrs([peer, 6]))
                for peer in (2, 3, 4)
                for prefix in PFX[:10]
            ]
        )
        spy = speaker.decision_process
        spy.ranked = 0
        spy.selected.clear()
        # Two candidates left per prefix: one selection each, all of one
        # profile, and no ranking.
        speaker.receive_columnar(
            ColumnarTrace.from_messages([Update.withdraw_many(1.0, 2, PFX[:10])])
        )
        assert len(spy.selected) == 10
        assert spy.ranked == 0
        assert all(speaker.best_route(prefix).peer_as == 3 for prefix in PFX[:10])
        # Sole candidates left: no decision-process call at all.
        spy.selected.clear()
        speaker.receive_columnar(
            ColumnarTrace.from_messages([Update.withdraw_many(2.0, 3, PFX[:10])])
        )
        assert spy.selected == []
        assert spy.ranked == 0
        assert all(speaker.best_route(prefix).peer_as == 4 for prefix in PFX[:10])

    @settings(max_examples=100, deadline=None)
    @given(updates=_UPDATES, split=st.integers(0, 30))
    def test_memo_equals_the_grouped_loop(self, updates, split):
        peers = _PARITY_PEERS
        messages = []
        clock = 0.0
        for peer_index, withdrawn, announced, step in updates:
            peer = peers[peer_index]
            paths = _path_pool(peer)
            clock += step
            messages.append(
                Update(
                    timestamp=clock,
                    peer_as=peer,
                    announcements=tuple(
                        Announcement(_POOL[prefix], paths[path]) for prefix, path in announced
                    ),
                    withdrawals=tuple(_POOL[prefix] for prefix in withdrawn),
                )
            )
        memo, grouped = (_parity_speaker(peers, True) for _ in range(2))
        pending = []
        for speaker in (memo, grouped):
            speaker.receive_batch(messages[:split])
            batch = speaker.begin_batch()
            for message in messages[split:]:
                batch.add_run(message.peer_as, [message])
            pending.append(list(batch._pending))
        assert pending[0] == pending[1]
        memo_changes = memo._reselect(pending[0], report=True, memo=True)
        grouped_changes = _grouped_reselect(grouped, pending[1])
        assert Counter(memo_changes) == Counter(grouped_changes)
        assert dict(memo.loc_rib._best) == dict(grouped.loc_rib._best)
        order = {prefix: number for number, prefix in enumerate(pending[0])}
        assert [order[change.prefix] for change in memo_changes] == sorted(
            order[change.prefix] for change in memo_changes
        )


# -- the per-message decision: select what has a choice, rank nothing ---------


def _relay_router():
    """A provisioned router whose speaker counts its decision-process calls."""
    router = SwiftedRouter(1)
    for peer in (2, 3):
        router.add_peer(peer)
    router.load_initial_routes(2, {prefix: ASPath([2, 5, 6]) for prefix in PFX[:4]}, local_pref=200)
    router.load_initial_routes(3, {prefix: ASPath([3, 6]) for prefix in PFX[:2]})
    router.provision()
    router.speaker.decision_process = _SpyDecisionProcess()
    return router, router.speaker.decision_process


class TestPerMessageDecision:
    def test_a_withdrawal_leaving_one_candidate_calls_nothing(self):
        router, spy = _relay_router()
        router.receive(Update.withdraw(1.0, 2, PFX[0]))
        assert (spy.selected, spy.ranked) == ([], 0)
        assert router.speaker.best_route(PFX[0]).peer_as == 3
        # Nor does one that leaves none.
        router.receive(Update.withdraw(2.0, 2, PFX[3]))
        assert (spy.selected, spy.ranked) == ([], 0)
        assert router.speaker.best_route(PFX[3]) is None

    def test_an_announcement_leaving_two_candidates_selects_once(self):
        router, spy = _relay_router()
        router.receive(Update.announce(1.0, 3, PFX[2], _attrs([3, 6], local_pref=300)))
        assert len(spy.selected) == 1
        assert spy.ranked == 0
        assert router.speaker.best_route(PFX[2]).peer_as == 3
        # A sole candidate's replacement is decided without a call.
        router.receive(Update.announce(2.0, 2, PFX[3], _attrs([2, 8, 6])))
        assert len(spy.selected) == 1
        assert router.speaker.best_route(PFX[3]).as_path == ASPath([2, 8, 6])


def _length_ranking(entry):
    """Prefix-independent, and peers with equally long paths tie."""
    return (len(entry.as_path),)


def _prefix_ranking(entry):
    """Reads the prefix (so not prefix-independent), with ties across peers."""
    return ((entry.prefix.network >> 8) % 2 * entry.peer_as % 3, len(entry.as_path))


_RANKINGS = {
    "standard": (standard_ranking, True),
    "length": (_length_ranking, True),
    "prefix": (_prefix_ranking, False),
}

_DECISION_MESSAGES = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(0, 3),  # peer (folded onto the peers in play)
            st.lists(st.integers(0, len(_POOL) - 1), max_size=2),  # withdrawals
            st.lists(  # announcements: (prefix, path); path 3 loops
                st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, 3)),
                max_size=3,
            ),
        ),
        st.tuples(st.sampled_from(["notification", "open"]), st.integers(0, 3)),
    ),
    min_size=1,
    max_size=40,
)


def _reference_ranking(candidates, key):
    """Loop-free candidates, most preferred first; ties keep candidate order."""
    return sorted((entry for entry in candidates if not entry.as_path.has_loop()), key=key)


class TestPerMessageDecisionProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        peer_count=st.integers(2, 4),
        ranking=st.sampled_from(sorted(_RANKINGS)),
        rows=_DECISION_MESSAGES,
    )
    def test_best_and_alternates_follow_the_ranking_after_every_message(
        self, peer_count, ranking, rows
    ):
        key, prefix_independent = _RANKINGS[ranking]
        peers = (2, 3, 4, 5)[:peer_count]
        speaker = BGPSpeaker(
            1, DecisionProcess(key, prefix_independent=prefix_independent)
        )
        for peer in peers:
            speaker.add_peer(peer)
        for number, row in enumerate(rows):
            peer = peers[row[1] % peer_count]
            if row[0] == "notification":
                message = Notification(timestamp=float(number), peer_as=peer)
            elif row[0] == "open":
                message = OpenMessage(timestamp=float(number), peer_as=peer)
            else:
                # Equal-length paths from different peers tie under "length";
                # path 2 ties with path 0 on everything but LOCAL_PREF.
                paths = _path_pool(peer)
                message = Update(
                    timestamp=float(number),
                    peer_as=peer,
                    announcements=tuple(
                        Announcement(_POOL[prefix], paths[path]) for prefix, path in row[3]
                    ),
                    withdrawals=tuple(_POOL[prefix] for prefix in row[2]),
                )
            speaker.receive(message)
            for prefix in _POOL:
                ranked = _reference_ranking(speaker.loc_rib.candidates(prefix), key)
                best = speaker.best_route(prefix)
                assert best is (ranked[0] if ranked else None), (number, prefix)
                expected = [entry for entry in ranked if entry is not best]
                assert speaker.alternate_routes(prefix) == expected, (number, prefix)


# -- the Loc-RIB is a view over the sessions' Adj-RIB-Ins ----------------------

_FAMILIES = ("receive", "receive_batch", "receive_columnar")

_ORACLE_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("messages"),
            st.lists(
                st.one_of(
                    st.tuples(
                        st.just("update"),
                        st.integers(0, 2),  # peer
                        st.lists(st.integers(0, len(_POOL) - 1), max_size=2),
                        st.lists(  # announcements: (prefix, path); path 3 loops
                            st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, 3)),
                            max_size=3,
                        ),
                    ),
                    st.tuples(
                        st.sampled_from(["notification", "open"]),
                        st.integers(0, 2),
                        st.just(()),
                        st.just(()),
                    ),
                ),
                min_size=1,
                max_size=8,
            ),
        ),
        st.tuples(st.just("remove_peer"), st.integers(0, 2)),
    ),
    min_size=1,
    max_size=10,
)


def _feed(speaker, family, messages):
    if family == "receive":
        for message in messages:
            speaker.receive(message)
    elif family == "receive_batch":
        speaker.receive_batch(messages)
    else:
        speaker.receive_columnar(ColumnarTrace.from_messages(messages))


def _oracle_messages(rows, clock):
    messages = []
    for kind, peer_index, withdrawn, announced in rows:
        peer = _PARITY_PEERS[peer_index]
        if kind == "notification":
            messages.append(Notification(timestamp=clock, peer_as=peer))
        elif kind == "open":
            messages.append(OpenMessage(timestamp=clock, peer_as=peer))
        else:
            paths = _path_pool(peer)
            messages.append(
                Update(
                    timestamp=clock,
                    peer_as=peer,
                    announcements=tuple(
                        Announcement(_POOL[prefix], paths[path]) for prefix, path in announced
                    ),
                    withdrawals=tuple(_POOL[prefix] for prefix in withdrawn),
                )
            )
    return messages


def _assert_view_is_the_adj_ribs_in(speaker):
    """Candidates are the sessions' routes, and the best is selected from them."""
    for prefix in _POOL:
        routes = [
            session.rib_in.get(prefix)
            for session in speaker.sessions()
            if prefix in session.rib_in
        ]
        candidates = speaker.loc_rib.candidates(prefix)
        assert [id(entry) for entry in candidates] == [id(entry) for entry in routes]
        assert speaker.loc_rib.candidate_map(prefix) == {
            entry.peer_as: entry for entry in routes
        }
        assert speaker.best_route(prefix) == speaker.decision_process.select(routes), prefix


class TestLocRibIsAView:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(_FAMILIES),
        ranking=st.sampled_from(sorted(_RANKINGS)),
        steps=_ORACLE_STEPS,
    )
    def test_candidates_and_best_follow_the_adj_ribs_in(self, family, ranking, steps):
        key, prefix_independent = _RANKINGS[ranking]
        speaker = BGPSpeaker(1, DecisionProcess(key, prefix_independent=prefix_independent))
        for peer in _PARITY_PEERS:
            speaker.add_peer(peer)
        for clock, (kind, *step) in enumerate(steps):
            if kind == "remove_peer":
                peer = _PARITY_PEERS[step[0]]
                if peer in speaker.peer_ases:
                    speaker.remove_peer(peer)
            else:
                messages = _oracle_messages(step[0], float(clock))
                # A removed peer comes back as a new session, last in order.
                for message in messages:
                    if message.peer_as not in speaker.peer_ases:
                        speaker.add_peer(message.peer_as)
                _feed(speaker, family, messages)
            _assert_view_is_the_adj_ribs_in(speaker)

    @pytest.mark.parametrize("family", _FAMILIES)
    def test_a_notification_empties_the_view(self, family):
        speaker = _parity_speaker(_PARITY_PEERS, True)
        speaker.receive_batch(
            [
                Update.announce(0.0, peer, prefix, _path_pool(peer)[0])
                for peer in _PARITY_PEERS
                for prefix in _POOL
            ]
        )
        _feed(speaker, family, [Notification(timestamp=1.0, peer_as=2)])
        for prefix in _POOL:
            assert [entry.peer_as for entry in speaker.loc_rib.candidates(prefix)] == [3, 4]
            assert 2 not in speaker.loc_rib.candidate_map(prefix)
            assert speaker.best_route(prefix).peer_as == 3
        for peer in (3, 4):
            _feed(speaker, family, [Notification(timestamp=2.0, peer_as=peer)])
        for prefix in _POOL:
            assert speaker.loc_rib.candidates(prefix) == []
            assert speaker.loc_rib.candidate_map(prefix) == {}
            assert speaker.best_route(prefix) is None
        _assert_view_is_the_adj_ribs_in(speaker)


# -- change observers receive prefixes; the router patches engines from them --


def test_out_of_band_change_replaced_in_band_is_not_replayed_into_the_engine():
    """An engine delta is the Adj-RIB-In's route at provision time.

    A route loaded behind the router's back and then replaced by a message
    the engine saw must not be replayed over the newer route.
    """
    prefixes = PFX[:3]

    def build():
        router = SwiftedRouter(1)
        for peer in (2, 3):
            router.add_peer(peer)
        router.load_initial_routes(2, {p: ASPath([2, 5, 6]) for p in prefixes}, local_pref=200)
        router.load_initial_routes(3, {p: ASPath([3, 6]) for p in prefixes})
        router.provision()
        router.speaker.receive(Update.announce(1.0, 2, prefixes[0], _attrs([2, 8, 6])))
        router.receive(Update.announce(2.0, 2, prefixes[0], _attrs([2, 9, 6])))
        return router

    warm = build()
    warm.provision()
    assert warm.last_provision_stats["mode"] == 1
    assert warm.speaker.session(2).rib_in.get(prefixes[0]).as_path == ASPath([2, 9, 6])
    assert warm.engine_for(2).current_rib()[prefixes[0]] == ASPath([2, 9, 6])

    cold = build()
    cold.provision(full_rebuild=True)
    for peer in (2, 3):
        warm_engine, cold_engine = warm.engine_for(peer), cold.engine_for(peer)
        assert index_view(warm_engine) == index_view(cold_engine), peer


def test_change_observers_receive_the_changed_prefixes():
    session = PeeringSession(1, 2)
    session.establish()
    seen = []
    session.add_change_observer(lambda s, prefixes: seen.append(list(prefixes)))
    session.process(Update.announce(1.0, 2, PFX[0], _attrs([2, 6])))
    session.process(Update.withdraw(2.0, 2, PFX[1]))  # nothing to withdraw
    session.process_batch(
        [Update.withdraw_many(3.0, 2, [PFX[0], PFX[1]]), KeepAlive(4.0, 2)]
    )
    assert seen == [[PFX[0]], [PFX[0]]]
