"""Test oracle: month/fleet replay through the materialising object path.

Production replay is column-native end to end
(:class:`~repro.experiments.month_replay.StreamReplayer` hands every chunk
of runs to ``receive_columnar``).  The comparator the columnar parity matrix
and the inference benchmarks measure against lives here: the same replayer,
same chunking, same counters, but every chunk's runs are expanded into
``BGPMessage`` objects and fed to ``receive_batch``.
"""

from typing import Iterable, Optional

from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import MonthReplayResult, StreamReplayer
from repro.replay import FleetReplayResult, SessionJob
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


def replay_jobs_objects(
    jobs: Iterable[SessionJob],
    swifted: bool = True,
    swift_config: Optional[SwiftConfig] = None,
) -> FleetReplayResult:
    """Sequential :func:`~repro.replay.replay_jobs` through the object path.

    Events are always collected, as in the fleet driver's worker body, so
    the two results' ``signature()`` compare byte for byte.
    """
    sessions = []
    for job in jobs:
        stream, rib = job.unpack()
        sessions.append(
            replay_stream_objects(
                stream,
                rib,
                job.peer_as,
                swifted=swifted,
                swift_config=swift_config,
                collect_events=True,
            )
        )
    sessions.sort(key=lambda result: result.peer_as)
    return FleetReplayResult(
        workers=1,
        wall_seconds=sum(result.wall_seconds for result in sessions),
        sessions=sessions,
    )
