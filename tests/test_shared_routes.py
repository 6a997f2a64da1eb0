"""The shared route store: one route per (attribute object, peer) per session.

An :class:`~repro.bgp.rib.AdjRibIn` maps prefix -> a route it interns on
the identity of the announcement's attribute object, counts the prefixes
that hold each route and forgets a route with its last prefix.  Both entry
families store through it: the speaker's column walk (``receive_columnar``)
and the message path (``receive`` through ``PeeringSession.process``,
``receive_batch`` through ``AdjRibIn.announce``).  The property below holds
every session's intern table to the routes its Adj-RIB-In references, and
every answer of the speaker to ``oracles.route_table``, which keeps one
entry per (prefix, peer).
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from oracles.route_table import PerPrefixRoutes, route_value

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Announcement, Notification, OpenMessage, Update
from repro.bgp.prefix import prefix_block
from repro.bgp.speaker import BGPSpeaker
from repro.traces.columnar import ColumnarTrace

_POOL = prefix_block("10.6.0.0/24", 5)
_PEERS = (2, 3, 4)


def _attributes(peer, path):
    """A peer's path ``path``: two clean ones, a preferred one, a loop."""
    hops, local_pref = (
        ([peer, 6], 100),
        ([peer, 7, 6], 100),
        ([peer, 6], 200),
        ([peer, 7, peer], 100),
    )[path]
    return PathAttributes(as_path=ASPath(hops), next_hop=peer, local_pref=local_pref)


#: One attribute object per (peer, path): what an interning parser hands on.
_SHARED = {(peer, path): _attributes(peer, path) for peer in _PEERS for path in range(4)}

_PREFIXES = st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=3, unique=True)
_STEP = st.one_of(
    # Prefixes announced over one path; ``fresh`` draws an equal attribute
    # object instead of the shared one (a duplicate announce when repeated).
    st.tuples(st.just("announce"), st.integers(0, 2), _PREFIXES, st.integers(0, 3), st.booleans()),
    st.tuples(st.just("withdraw"), st.integers(0, 2), _PREFIXES),
    # One UPDATE withdrawing a prefix and announcing it again.
    st.tuples(st.just("flap"), st.integers(0, 2), _PREFIXES, st.integers(0, 3), st.booleans()),
    st.tuples(st.just("notification"), st.integers(0, 2)),
    st.tuples(st.just("open"), st.integers(0, 2)),
)
_CHUNKS = st.lists(st.lists(_STEP, min_size=1, max_size=6), min_size=1, max_size=8)


def _message(step, clock):
    kind, peer_index = step[0], step[1]
    peer = _PEERS[peer_index]
    if kind == "notification":
        return Notification(timestamp=clock, peer_as=peer)
    if kind == "open":
        return OpenMessage(timestamp=clock, peer_as=peer)
    prefixes = [_POOL[number] for number in step[2]]
    if kind == "withdraw":
        return Update.withdraw_many(clock, peer, prefixes)
    path, fresh = step[3], step[4]
    attributes = _attributes(peer, path) if fresh else _SHARED[(peer, path)]
    return Update(
        timestamp=clock,
        peer_as=peer,
        announcements=tuple(Announcement(prefix, attributes) for prefix in prefixes),
        withdrawals=tuple(prefixes) if kind == "flap" else (),
    )


def _feed(speaker, entry_point, messages):
    if entry_point == "receive":
        for message in messages:
            speaker.receive(message)
    elif entry_point == "receive_batch":
        speaker.receive_batch(messages)
    else:
        speaker.receive_columnar(ColumnarTrace.from_messages(messages))


def _assert_interned_exactly_the_referenced_routes(session):
    rib_in = session.rib_in
    held = Counter(map(id, rib_in._routes.values()))
    interned = rib_in._interned
    assert {id(route) for route in interned.values()} == set(held)
    for key, route in interned.items():
        assert key == id(route.attributes)
        assert route.peer_as == session.peer_as
        assert route.prefix_count == held[id(route)]


class TestSharedRouteStore:
    @settings(max_examples=150, deadline=None)
    @given(
        chunks=_CHUNKS,
        entry_point=st.sampled_from(["receive", "receive_batch", "receive_columnar"]),
        listen=st.booleans(),
    )
    def test_interned_routes_and_answers_follow_per_prefix_entries(
        self, chunks, entry_point, listen
    ):
        speaker = BGPSpeaker(1)
        for peer in _PEERS:
            speaker.add_peer(peer)
        if listen:
            speaker.add_best_route_listener(lambda changes: None)
        oracle = PerPrefixRoutes(_PEERS)
        clock = 0.0
        for chunk in chunks:
            messages = []
            for step in chunk:
                clock += 1.0
                messages.append(_message(step, clock))
            _feed(speaker, entry_point, messages)
            for message in messages:
                oracle.receive(message)
            for session in speaker.sessions():
                _assert_interned_exactly_the_referenced_routes(session)
            for prefix in _POOL:
                assert route_value(speaker.best_route(prefix)) == route_value(
                    oracle.best_route(prefix)
                ), prefix
                assert list(map(route_value, speaker.loc_rib.candidates(prefix))) == list(
                    map(route_value, oracle.candidates(prefix))
                ), prefix
                assert list(map(route_value, speaker.alternate_routes(prefix))) == list(
                    map(route_value, oracle.alternate_routes(prefix))
                ), prefix

    def test_prefixes_announced_with_one_attribute_object_share_one_route(self):
        speaker = BGPSpeaker(1)
        speaker.add_peer(2)
        shared = _SHARED[(2, 0)]
        speaker.receive_columnar(
            ColumnarTrace.from_messages(
                [Update.announce(0.0, 2, prefix, shared) for prefix in _POOL]
            )
        )
        rib_in = speaker.session(2).rib_in
        (route,) = rib_in._interned.values()
        assert all(rib_in.get(prefix) is route for prefix in _POOL)
        assert route.prefix_count == len(_POOL)
        assert speaker.best_route(_POOL[0]) is route
        speaker.receive(Update.withdraw_many(1.0, 2, _POOL))
        assert not rib_in._interned and not rib_in._routes
