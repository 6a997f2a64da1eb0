"""Test oracle: month replay through the materialising object path.

Production replay is column-native end to end
(:class:`~repro.experiments.month_replay.StreamReplayer` hands every chunk
of runs to ``receive_columnar``).  The comparator the columnar parity matrix
and the inference benchmarks measure against lives here: the same replayer,
same chunking, same counters, but every chunk's runs are expanded into
``BGPMessage`` objects and fed to ``receive_batch``.
"""

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
