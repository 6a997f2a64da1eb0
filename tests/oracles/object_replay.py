"""Test oracles: month replay and table loads through the object path.

Production replay is column-native end to end
(:class:`~repro.experiments.month_replay.StreamReplayer` hands every chunk
of runs to ``receive_columnar``).  The comparator the columnar parity matrix
and the inference benchmarks measure against lives here: the same replayer,
same chunking, same counters, but every chunk's runs are expanded into
``BGPMessage`` objects and fed to ``receive_batch``.

Production table loads write the dump as columns
(:func:`~repro.traces.columnar.table_dump`) for ``receive_columnar``.  The
reference they are held to, :func:`load_table_messages`, builds one
``Update`` per route and feeds the stream to ``receive_batch``.
"""

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import Update
from repro.experiments.month_replay import MonthReplayResult, StreamReplayer
from repro.traces.columnar import ColumnarTrace


class ObjectPathReplayer(StreamReplayer):
    """A :class:`StreamReplayer` whose chunks travel as message objects."""

    def _receive(self, chunk):
        sink = self.router if self.swifted else self.speaker
        return sink.receive_batch([message for run in chunk for message in run])


def replay_stream_objects(
    stream: ColumnarTrace, rib, peer_as: int, **options
) -> MonthReplayResult:
    """:func:`~repro.experiments.month_replay.replay_stream`, object path."""
    replayer = ObjectPathReplayer(rib, peer_as, **options)
    replayer.feed(stream)
    return replayer.result()


def load_table_messages(speaker, peer_as, routes, timestamp=0.0, local_pref=100):
    """A table dump as messages: one single-prefix ``Update`` per route, in
    sorted prefix order, with one attribute object per distinct
    (AS path, LOCAL_PREF), through ``speaker.receive_batch``."""
    interned = {}

    def attributes_for(prefix):
        path = routes[prefix]
        key = (path.asns, local_pref)
        attributes = interned.get(key)
        if attributes is None:
            attributes = interned[key] = PathAttributes(
                as_path=path, next_hop=peer_as, local_pref=local_pref
            )
        return attributes

    return speaker.receive_batch(
        Update.announce(timestamp, peer_as, prefix, attributes_for(prefix))
        for prefix in sorted(routes)
    )
