"""Best routes on read: a speaker with no listener selects when it is read.

A SWIFTED router reads best routes only when it provisions, so its speaker
has no best-route listener and selects nothing while a burst streams in:
every silent call marks the prefixes it touched stale, and the first read
of the Loc-RIB selects each of them once.  These tests hold that to the
eager speaker (one with a listener from the start): every read, whenever it
comes, answers as the eager speaker does, and a listener registered
mid-stream hears what the eager speaker's listener hears from then on.
They also pin the cost: a drive selects nothing, a read selects each stale
candidate profile at most once, and the per-message path builds no
``RouteChange``.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from oracles.route_table import route_value
from test_replay_pipeline import _heard
from test_rib_session_speaker import _best_table, _change_value, _SpyDecisionProcess

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Announcement, Notification, OpenMessage, Update
from repro.bgp.prefix import Prefix, prefix_block
from repro.bgp.rib import RouteChange
from repro.bgp.speaker import BGPSpeaker
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.traces.columnar import ColumnarTrace

# Five /24s under one /16, so longest-prefix matches have something to choose.
_POOL = prefix_block("10.8.0.0/24", 5) + [Prefix.from_string("10.8.0.0/16")]
_ADDRESSES = [prefix.network + 1 for prefix in _POOL[:5]] + [
    Prefix.from_string("10.8.200.0/24").network + 1
]
_PEERS = (2, 3, 4)
# Small enough that a withdrawal of the pool starts a burst and reroutes.
_SENSITIVE = SwiftConfig(
    inference=InferenceConfig(
        detector=BurstDetectorConfig(start_threshold=3, stop_threshold=1),
        schedule=TriggeringSchedule(steps=((4, 10 ** 6),), unconditional_after=4),
    ),
    encoder=EncoderConfig(prefix_threshold=1),
)


def _paths(peer):
    """Two clean paths sharing a link, a preferred one, and a loop."""
    return (
        PathAttributes(as_path=ASPath([peer, 6, 9]), next_hop=peer),
        PathAttributes(as_path=ASPath([peer, 7, 6, 9]), next_hop=peer),
        PathAttributes(as_path=ASPath([peer, 9]), next_hop=peer, local_pref=200),
        PathAttributes(as_path=ASPath([peer, 7, peer]), next_hop=peer),
    )


_ROW = st.one_of(
    st.tuples(
        st.just("update"),
        st.integers(0, 2),  # peer (folded onto the sessions in play)
        st.lists(st.integers(0, len(_POOL) - 1), max_size=2),  # withdrawals
        st.lists(  # announcements: (prefix, path); path 3 loops
            st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, 3)),
            max_size=2,
        ),
    ),
    st.tuples(st.sampled_from(["notification", "open", "burst"]), st.integers(0, 2)),
)

_READS = ("best_route", "lpm_route", "alternate_routes", "routed_prefixes", "len")

_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("feed"),
            st.sampled_from(("receive", "receive_batch", "receive_columnar")),
            st.lists(_ROW, min_size=1, max_size=6),
        ),
        st.tuples(st.just("remove_peer"), st.integers(0, 2)),
        st.tuples(st.just("read"), st.sampled_from(_READS), st.integers(0, len(_POOL) - 1)),
        st.tuples(st.just("provision")),
        st.tuples(st.just("listen")),
    ),
    min_size=1,
    max_size=25,
)


def _messages(rows, clock, session_count):
    messages = []
    for number, (kind, peer_index, *prefixes) in enumerate(rows):
        peer = _PEERS[peer_index % session_count]
        timestamp = clock + number * 0.01
        if kind == "notification":
            messages.append(Notification(timestamp=timestamp, peer_as=peer))
        elif kind == "open":
            messages.append(OpenMessage(timestamp=timestamp, peer_as=peer))
        elif kind == "burst":
            messages.extend(Update.withdraw(timestamp, peer, prefix) for prefix in _POOL)
        else:
            withdrawn, announced = prefixes
            paths = _paths(peer)
            messages.append(
                Update(
                    timestamp=timestamp,
                    peer_as=peer,
                    announcements=tuple(
                        Announcement(_POOL[prefix], paths[path]) for prefix, path in announced
                    ),
                    withdrawals=tuple(_POOL[prefix] for prefix in withdrawn),
                )
            )
    return messages


def _provisioned(session_count, listen):
    """A router over ``session_count`` sessions; ``listen``: eager from the start."""
    router = SwiftedRouter(1, config=_SENSITIVE)
    heard = _heard(router.speaker) if listen else None
    for number, peer in enumerate(_PEERS[:session_count]):
        router.add_peer(peer)
        path = ASPath([peer, 6, 9]) if number % 2 else ASPath([peer, 7, 6, 9])
        router.load_initial_routes(peer, {prefix: path for prefix in _POOL})
    router.provision()
    return router, heard


def _feed(router, entry_point, messages):
    """Feed ``messages`` through a router entry point; return the actions."""
    for message in messages:
        # A removed peer comes back as a new session, last in order.
        if message.peer_as not in router.speaker.peer_ases:
            router.add_peer(message.peer_as)
    if entry_point == "receive":
        return [router.receive(message) for message in messages]
    if entry_point == "receive_batch":
        return router.receive_batch(messages)
    return router.receive_columnar(ColumnarTrace.from_messages(messages))


def _read(router, read, prefix):
    speaker = router.speaker
    if read == "best_route":
        return route_value(speaker.best_route(prefix))
    if read == "lpm_route":
        return [route_value(speaker.lpm_route(address)) for address in _ADDRESSES]
    if read == "alternate_routes":
        return list(map(route_value, speaker.alternate_routes(prefix)))
    if read == "routed_prefixes":
        return speaker.routed_prefixes()
    return len(speaker.loc_rib)


def _provision(router):
    tags = dict(router.provision().tags)
    return tags, [router.forward(address) for address in _ADDRESSES]


class TestEveryReadAnswersAsTheEagerSpeaker:
    @settings(max_examples=150, deadline=None)
    @given(session_count=st.integers(2, 3), steps=_STEPS)
    def test_a_read_gives_the_same_answer_whenever_it_comes(self, session_count, steps):
        lazy, _ = _provisioned(session_count, listen=False)
        eager, expected = _provisioned(session_count, listen=True)
        heard, mark = None, None
        for clock, (kind, *step) in enumerate(steps):
            if kind == "feed":
                entry_point, rows = step
                messages = _messages(rows, float(10 * clock + 10), session_count)
                assert _feed(lazy, entry_point, messages) == _feed(eager, entry_point, messages)
            elif kind == "remove_peer":
                peer = _PEERS[step[0]]
                if peer in eager.speaker.peer_ases:
                    lazy.speaker.remove_peer(peer)
                    eager.speaker.remove_peer(peer)
            elif kind == "read":
                read, prefix = step[0], _POOL[step[1]]
                assert _read(lazy, read, prefix) == _read(eager, read, prefix), read
            elif kind == "provision":
                assert _provision(lazy) == _provision(eager)
            elif heard is None:
                heard, mark = _heard(lazy.speaker), len(expected)
            if heard is not None:
                assert list(map(_change_value, heard)) == list(
                    map(_change_value, expected[mark:])
                ), kind
        assert _best_table(lazy.speaker) == _best_table(eager.speaker)


# -- what a drive and a read cost -------------------------------------------------

_TABLE = prefix_block("30.0.0.0/24", 400)


def _two_session_router():
    """A provisioned router over two sessions whose prefixes share profiles."""
    router = SwiftedRouter(1)
    router.add_peer(2)
    router.add_peer(3)
    router.load_initial_routes(
        2,
        {prefix: ASPath([2, 10 + number % 4, 100 + number % 20])
         for number, prefix in enumerate(_TABLE)},
        local_pref=200,
    )
    router.load_initial_routes(
        3,
        {prefix: ASPath([3, 20 + number % 3, 100 + number % 20])
         for number, prefix in enumerate(_TABLE)},
    )
    router.provision()
    return router


def _burst_and_heal(router):
    """Withdraw every route over the session-2 link (2, 10), then heal it."""
    rib = router.speaker.session(2).rib_in
    failed = sorted(rib.prefixes_via_link((2, 10)))
    messages = [
        Update.withdraw(10.0 + number * 0.001, 2, prefix)
        for number, prefix in enumerate(failed)
    ]
    for number, prefix in enumerate(failed):
        attributes = PathAttributes(
            as_path=ASPath([2, 11, 100 + number % 20]), next_hop=2, local_pref=200
        )
        messages.append(Update.announce(70.0 + number * 0.001, 2, prefix, attributes))
    return messages


def _profile(speaker, prefix):
    """The winner-memo key of a prefix: candidate peers, attribute identities."""
    candidates = speaker.loc_rib.candidate_map(prefix)
    return tuple(candidates), tuple(id(entry.attributes) for entry in candidates.values())


def test_a_drive_selects_nothing_and_a_read_selects_each_profile_once():
    router = _two_session_router()
    spy = router.speaker.decision_process = _SpyDecisionProcess()
    messages = _burst_and_heal(router)
    for start in range(0, len(messages), 50):
        router.receive_columnar(ColumnarTrace.from_messages(messages[start:start + 50]))
    assert spy.selected == []

    touched = {prefix for message in messages for prefix in message.withdrawals}
    profiles = {
        _profile(router.speaker, prefix)
        for prefix in touched
        if len(router.speaker.loc_rib.candidate_map(prefix)) > 1
    }
    assert len(profiles) > 1
    router.speaker.best_route(_TABLE[0])
    assert sorted(spy.selected) == sorted(profiles)

    reference = _two_session_router()
    _heard(reference.speaker)
    reference.receive_columnar(ColumnarTrace.from_messages(messages))
    assert _best_table(router.speaker) == _best_table(reference.speaker)


def test_the_per_message_path_builds_no_route_change(monkeypatch):
    router, reference = _two_session_router(), _two_session_router()
    messages = _burst_and_heal(router)
    built = Counter()
    init = RouteChange.__init__

    def counting_init(self, *args, **kwargs):
        built["changes"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(RouteChange, "__init__", counting_init)
    actions = [router.receive(message) for message in messages]
    assert built["changes"] == 0
    monkeypatch.undo()
    assert actions == [reference.receive(message) for message in messages]
    assert _best_table(router.speaker) == _best_table(reference.speaker)


# -- a listener never reads a stale table --------------------------------------


def _loaded_speaker(listen):
    """Two sessions' tables; ``listen``: a listener from the start."""
    speaker = BGPSpeaker(1)
    heard = _heard(speaker) if listen else None
    for peer in (2, 3):
        speaker.add_peer(peer)
        speaker.receive_batch(
            Update.announce(0.0, peer, prefix, _paths(peer)[0]) for prefix in _POOL
        )
    return speaker, heard


def test_a_silent_batch_open_when_a_listener_registers_commits_unheard():
    """A batch decides when it opens whether it reports.

    One opened silent and committed after a listener registered reports
    nothing, and selects its prefixes at commit: no prefix is stale while a
    listener is registered.
    """
    eager, expected = _loaded_speaker(listen=True)
    lazy, _ = _loaded_speaker(listen=False)
    assert lazy.loc_rib._stale  # the load is not selected yet

    first = [Update.withdraw(1.0, 2, prefix) for prefix in _POOL[:3]]
    second = [Update.announce(2.0, 2, _POOL[0], _paths(2)[2])]
    batch = lazy.begin_batch()
    batch.add_run(2, first)
    heard = _heard(lazy)
    assert not lazy.loc_rib._stale  # registering settled the load
    batch.add_run(2, second)
    batch.commit()
    assert heard == [] and not lazy.loc_rib._stale
    eager.receive_batch(first + second)
    assert _best_table(lazy) == _best_table(eager)

    # From the next batch on, the listener hears what the eager one hears.
    mark = len(expected)
    third = [Update.withdraw(3.0, 3, prefix) for prefix in _POOL]
    lazy.receive_batch(third)
    eager.receive_batch(third)
    assert heard and list(map(_change_value, heard)) == list(
        map(_change_value, expected[mark:])
    )
    assert _best_table(lazy) == _best_table(eager)
