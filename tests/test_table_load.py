"""One table-load path: a table dump enters through the silent column walk.

``SwiftedRouter.load_initial_routes`` (and every other table load) writes the
dump as columns with :func:`~repro.traces.columnar.table_dump` and hands it to
``BGPSpeaker.receive_columnar``.  These tests hold that load to the
message-built reference (``oracles.object_replay.load_table_messages``) on
what a router reads afterwards — the Adj-RIB-Ins, the attribute sharing, the
Loc-RIB, and the tags and backups of the following ``provision()`` — and pin
what it does not build: no message, no route change, no best-route change.
"""

from collections import Counter

from hypothesis import given, settings, strategies as st

from oracles.object_replay import load_table_messages
from oracles.route_table import route_value
from test_rib_session_speaker import _best_table

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import Update
from repro.bgp.prefix import prefix_block
from repro.bgp.rib import RouteChange
from repro.bgp.speaker import BestRouteChange
from repro.core import SwiftConfig, SwiftedRouter
from repro.core.encoding import EncoderConfig
from repro.traces.columnar import KIND_UPDATE, table_dump

_POOL = prefix_block("10.9.0.0/24", 24)
_PEERS = (2, 3, 4)
# Low enough that the drawn tables have threshold-eligible links.
_CONFIG = SwiftConfig(encoder=EncoderConfig(prefix_threshold=2))


def _paths(peer):
    """Clean paths that share links, and two loops."""
    return (
        ASPath([peer, 6, 9]),
        ASPath([peer, 7, 6, 9]),
        ASPath([peer, 8, 9]),
        ASPath([peer, 9]),
        ASPath([peer, 7, peer]),
        ASPath([peer, 6, 7, 6, 9]),
    )


_TABLES = st.lists(
    st.tuples(
        # prefix -> path choice; shared paths are the common case
        st.dictionaries(
            st.integers(0, len(_POOL) - 1), st.integers(0, 5), min_size=1, max_size=24
        ),
        st.sampled_from((50, 100, 200)),  # local_pref
    ),
    min_size=1,
    max_size=3,
)


def _routes(drawn, peer):
    paths = _paths(peer)
    # A fresh ASPath per route for odd choices: sharing is by value, not by object.
    return {
        _POOL[prefix]: paths[choice] if choice % 2 == 0 else ASPath(paths[choice].asns)
        for prefix, choice in drawn.items()
    }


def _entries(router, peer):
    return {
        prefix: route_value(route)
        for prefix, route in router.speaker.session(peer).rib_in.items()
    }


def _route_groups(router, peer):
    """Prefixes grouped by the route they share, one per attribute object."""
    groups = {}
    for prefix, route in router.speaker.session(peer).rib_in.items():
        groups.setdefault(id(route), set()).add(prefix)
    return sorted(sorted(group) for group in groups.values())


def _backups(router):
    index = router.backup_index
    return (
        {prefix: profile.winners for prefix, profile in index.profile_of.items()},
        {link: index.next_hops(link) for link in index.by_link},
    )


class TestTableLoadParity:
    @settings(max_examples=80, deadline=None)
    @given(tables=_TABLES, timestamp=st.sampled_from((0.0, 2.5, 1500.0)))
    def test_the_column_walk_loads_what_the_messages_load(self, tables, timestamp):
        column, reference = SwiftedRouter(1, _CONFIG), SwiftedRouter(1, _CONFIG)
        for peer, (drawn, local_pref) in zip(_PEERS, tables):
            routes = _routes(drawn, peer)
            for router in (column, reference):
                router.add_peer(peer)
            column.load_initial_routes(
                peer, routes, timestamp=timestamp, local_pref=local_pref
            )
            load_table_messages(
                reference.speaker, peer, routes,
                timestamp=timestamp, local_pref=local_pref,
            )

        for peer in column.speaker.peer_ases:
            assert _entries(column, peer) == _entries(reference, peer)
            groups = _route_groups(column, peer)
            assert groups == _route_groups(reference, peer)
            distinct = {attributes.as_path for attributes, _ in _entries(column, peer).values()}
            assert len(groups) == len(distinct)
        assert _best_table(column.speaker) == _best_table(reference.speaker)

        column.provision()
        reference.provision()
        assert column.encoded_tags.tags == reference.encoded_tags.tags
        assert _backups(column) == _backups(reference)


def _counting(monkeypatch, *classes):
    """Count every ``__init__`` call of ``classes`` from here on."""
    built = Counter()
    for cls in classes:
        init = cls.__init__

        def counting_init(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    return built


def test_a_silent_table_load_builds_no_message_or_change_record(monkeypatch):
    prefixes = prefix_block("20.0.0.0/24", 2000)
    tables = {
        2: {prefix: ASPath([2, 10 + number % 7, 100 + number % 50])
            for number, prefix in enumerate(prefixes)},
        3: {prefix: ASPath([3, 20 + number % 5, 100 + number % 50])
            for number, prefix in enumerate(prefixes)},
    }
    router = SwiftedRouter(1)
    built = _counting(monkeypatch, Update, RouteChange, BestRouteChange)
    for peer, local_pref in ((2, 100), (3, 50)):
        router.add_peer(peer)
        router.load_initial_routes(peer, tables[peer], local_pref=local_pref)
    router.provision()
    assert built == Counter()
    assert len(router.speaker.loc_rib) == 2000
    assert len(router.backup_index.profile_of) == 2000


def test_a_table_dump_interns_one_attribute_set_per_path(monkeypatch):
    shared, other = ASPath([2, 6, 9]), ASPath([2, 7, 9])
    routes = {prefix: shared for prefix in _POOL[:10]}
    routes.update({prefix: ASPath(other.asns) for prefix in _POOL[10:]})
    hashed = Counter()
    attribute_hash = PathAttributes.__hash__

    def counting_hash(self):
        hashed["attributes"] += 1
        return attribute_hash(self)

    monkeypatch.setattr(PathAttributes, "__hash__", counting_hash)
    trace = table_dump(routes, 2, local_pref=70, timestamp=3.0)

    # Interning a new attribute set hashes it twice (lookup, store); no row does.
    assert hashed["attributes"] == 2 * 2
    assert len(trace) == len(routes)
    assert set(trace.msg_time) == {3.0} and set(trace.msg_peer) == {2}
    assert set(trace.msg_kind) == {KIND_UPDATE}
    assert list(trace.wd_end) == [0] * len(routes)
    assert list(trace.ann_end) == list(range(1, len(routes) + 1))
    messages = trace.to_messages()
    assert [message.announcements[0].prefix for message in messages] == sorted(routes)
    attributes = [message.announcements[0].attributes for message in messages]
    assert len({id(value) for value in attributes}) == 2
    assert {value.as_path for value in attributes} == {shared, other}
    assert {(value.next_hop, value.local_pref) for value in attributes} == {(2, 70)}
