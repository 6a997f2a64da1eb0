"""A speaker reports only to a reader.

Best-route change records are for the best-route listeners, so without one
every speaker entry point — ``receive``, ``receive_batch``,
``receive_columnar``, ``begin_batch().commit()`` and ``remove_peer`` — is
silent: it tracks no reachability transition, builds no ``BestRouteChange``
and leaves selection to the next read of the Loc-RIB.  Every entry point
returns ``None``.  The router's ``receive_batch`` / ``receive_columnar``
read no change either.  These tests hold the silent path to that (no change
record is constructed) and to the reporting one: the same settled best
routes, forwarding answers and reroute actions, and — once a listener is
registered — the same loss / recovery events a per-message speaker reports.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oracles.route_table import route_value
from test_replay_pipeline import _event_sets, _heard
from test_reroute_index import PEERS, _random_topology, _router
from test_rib_session_speaker import _best_table, _burst_and_reconvergence, _change_value

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Announcement, Notification, OpenMessage, Update
from repro.bgp.prefix import prefix_block
from repro.bgp.speaker import BestRouteChange
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.traces.columnar import ColumnarTrace

ENTRY_POINTS = ("receive_columnar", "receive_batch")
SPEAKER_ENTRY_POINTS = (
    "receive",
    "receive_batch",
    "receive_columnar",
    "commit",
    "remove_peer",
)


def _feed(router, entry_point, messages):
    if entry_point == "receive_columnar":
        return router.receive_columnar(ColumnarTrace.from_messages(messages))
    return router.receive_batch(messages)


def _count_change_records(monkeypatch):
    """Count every ``BestRouteChange`` construction from here on."""
    built = Counter()
    init = BestRouteChange.__init__

    def counting_init(self, *args, **kwargs):
        built["records"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(BestRouteChange, "__init__", counting_init)
    return built


def _burst_with_a_loop(router, peer):
    """A burst that reroutes, its re-convergence, then one UPDATE that
    withdraws a prefix and replaces another's route with a looped path."""
    _, messages = _burst_and_reconvergence(router, peer)
    looped = PathAttributes(as_path=ASPath([peer, 11, peer]), next_hop=peer)
    messages.append(
        Update(
            timestamp=4001.0,
            peer_as=peer,
            announcements=(Announcement(messages[-1].announcements[0].prefix, looped),),
            withdrawals=messages[1].withdrawals,
        )
    )
    return messages


@pytest.mark.parametrize("entry_point", ENTRY_POINTS)
def test_a_router_without_a_listener_builds_no_change_record(monkeypatch, entry_point):
    _, routes = _random_topology(seed=7, origins=40, per_origin=40)
    reference, router = _router(routes), _router(routes)
    peer = PEERS[0]
    messages = _burst_with_a_loop(router, peer)
    heard = []
    reference.speaker.add_best_route_listener(heard.extend)
    expected = _feed(reference, entry_point, messages)
    assert expected and heard

    built = _count_change_records(monkeypatch)
    actions = _feed(router, entry_point, messages)
    assert actions == expected
    assert _best_table(router.speaker) == _best_table(reference.speaker)
    assert built["records"] == 0  # the read's settle builds none either

    # A listener turns the reports back on, from the next batch.
    again = []
    router.speaker.add_best_route_listener(again.extend)
    heard.clear()
    withdrawals = [
        Update.withdraw(5000.0 + number, peer, prefix)
        for number, prefix in enumerate(sorted(routes[peer])[:20])
    ]
    _feed(reference, entry_point, withdrawals)
    _feed(router, entry_point, withdrawals)
    assert built["records"] > 0
    assert again and list(map(_change_value, again)) == list(map(_change_value, heard))


# -- the property: silent and reporting batches agree ---------------------------

_POOL = prefix_block("10.7.0.0/24", 6)
_PEERS = (2, 3, 4)
_ADDRESSES = [prefix.network + 1 for prefix in _POOL]
# Small enough that four withdrawals from the preferred session start a
# burst and reroute.
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


_STREAM = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.integers(0, 2),  # peer (folded onto the sessions in play)
            st.lists(st.integers(0, len(_POOL) - 1), max_size=3),  # withdrawals
            st.lists(  # announcements: (prefix, path)
                st.tuples(st.integers(0, len(_POOL) - 1), st.integers(0, 3)),
                max_size=2,
            ),
        ),
        st.tuples(
            st.sampled_from(["open", "notification", "burst"]),
            st.integers(0, 2),
            st.just(()),
            st.just(()),
        ),
    ),
    min_size=1,
    max_size=40,
)


def _stream_messages(rows, peers):
    """Messages from drawn rows; a ``burst`` row withdraws the whole pool,
    one UPDATE per prefix."""
    messages = []
    for number, (kind, peer_index, withdrawn, announced) in enumerate(rows):
        peer = peers[peer_index % len(peers)]
        timestamp = 1.0 + number * 0.01
        if kind == "open":
            messages.append(OpenMessage(timestamp=timestamp, peer_as=peer))
        elif kind == "notification":
            messages.append(Notification(timestamp=timestamp, peer_as=peer))
        elif kind == "burst":
            messages.extend(Update.withdraw(timestamp, peer, prefix) for prefix in _POOL)
        else:
            paths = _paths(peer)
            messages.append(
                Update(
                    timestamp=timestamp,
                    peer_as=peer,
                    announcements=tuple(
                        Announcement(_POOL[prefix], paths[path])
                        for prefix, path in announced
                    ),
                    withdrawals=tuple(_POOL[prefix] for prefix in withdrawn),
                )
            )
    return messages


def _provisioned(peers):
    router = SwiftedRouter(1, config=_SENSITIVE)
    for number, peer in enumerate(peers):
        router.add_peer(peer)
        path = ASPath([peer, 6, 9]) if number % 2 else ASPath([peer, 7, 6, 9])
        router.load_initial_routes(peer, {prefix: path for prefix in _POOL})
    router.provision()
    return router


class TestSilentBatchProperty:
    @settings(max_examples=120, deadline=None)
    @given(
        session_count=st.integers(2, 3),
        rows=_STREAM,
        entry_point=st.sampled_from(ENTRY_POINTS),
    )
    def test_a_listener_changes_nothing_but_what_it_hears(
        self, session_count, rows, entry_point
    ):
        peers = _PEERS[:session_count]
        messages = _stream_messages(rows, peers)
        silent, listened, bare = (_provisioned(peers) for _ in range(3))
        heard, expected = _heard(listened.speaker), _heard(bare.speaker)

        actions = _feed(silent, entry_point, messages)
        assert _feed(listened, entry_point, messages) == actions
        bare.speaker.receive_batch(messages)

        best = _best_table(silent.speaker)
        assert best == _best_table(listened.speaker) == _best_table(bare.speaker)
        assert [silent.forward(address) for address in _ADDRESSES] == [
            listened.forward(address) for address in _ADDRESSES
        ]
        assert _event_sets(heard) == _event_sets(expected)


# -- every speaker entry point ------------------------------------------------


def _speaker_feed(speaker, entry_point, messages, peers):
    """Apply ``messages`` through one speaker entry point; return its returns."""
    if entry_point == "receive":
        return {speaker.receive(message) for message in messages}
    if entry_point == "receive_batch":
        return {speaker.receive_batch(messages)}
    if entry_point == "receive_columnar":
        return {speaker.receive_columnar(ColumnarTrace.from_messages(messages))}
    if entry_point == "commit":
        batch = speaker.begin_batch()
        for message in messages:
            batch.add_run(message.peer_as, [message])
        return {batch.commit()}
    # remove_peer: the messages as one batch, then the first session goes.
    return {speaker.receive_batch(messages), speaker.remove_peer(peers[0])}


def _moved(before, after):
    """The prefixes whose best routes differ between two Loc-RIB snapshots."""
    return {prefix for prefix in {*before, *after} if before.get(prefix) != after.get(prefix)}


class TestEverySpeakerEntryPoint:
    @settings(max_examples=150, deadline=None)
    @given(
        session_count=st.integers(2, 3),
        rows=_STREAM,
        entry_point=st.sampled_from(SPEAKER_ENTRY_POINTS),
    )
    def test_a_listener_changes_nothing_but_what_it_hears(
        self, session_count, rows, entry_point
    ):
        peers = _PEERS[:session_count]
        messages = _stream_messages(rows, peers)
        silent, listened, reference = (_provisioned(peers).speaker for _ in range(3))
        heard, expected = _heard(listened), _heard(reference)
        before = _best_table(silent)

        with pytest.MonkeyPatch.context() as patch:
            built = _count_change_records(patch)
            assert _speaker_feed(silent, entry_point, messages, peers) == {None}
            best = _best_table(silent)
        assert built["records"] == 0
        assert _speaker_feed(listened, entry_point, messages, peers) == {None}
        for message in messages:
            reference.receive(message)
        if entry_point == "remove_peer":
            reference.remove_peer(peers[0])

        assert best == _best_table(listened) == _best_table(reference)
        assert _event_sets(heard) == _event_sets(expected)
        if entry_point == "receive":
            assert list(map(_change_value, heard)) == list(map(_change_value, expected))
        elif entry_point != "remove_peer":
            # A batch's final changes close what it reports: one per prefix
            # whose best route moved, after the transient events.
            moved = _moved(before, best)
            final = heard[len(heard) - len(moved):]
            assert {change.prefix: route_value(change.new) for change in final} == {
                prefix: best.get(prefix) for prefix in moved
            }
