"""Month-scale replay of a collector session through a (SWIFTED) router.

The paper's evaluation replays months of real BGP update streams; this
driver is the scaled equivalent over the synthetic substrate, built
end-to-end on the columnar trace format: the session's month-long stream
arrives as columns (a synthetic session's is
:meth:`~repro.traces.synthetic.SyntheticTrace.messages_of`, which
:func:`repro.traces.synthetic.cached_trace` memoises on disk and reloads
at array speed), and replay consumes
:meth:`~repro.traces.columnar.ColumnarTrace.iter_batches` — same-peer runs
applied through the batched speaker path, with the inference engines
reading the same column windows
(:meth:`~repro.core.inference.InferenceEngine.process_columnar_run`): no
message object is constructed in either mode.

Two modes:

* ``swifted=True`` (default): the stream drives a
  :class:`~repro.core.swifted_router.SwiftedRouter` — burst inference,
  reroute activations and loss-of-reachability accounting included, all
  column-native;
* ``swifted=False``: the stream drives a bare
  :class:`~repro.bgp.speaker.BGPSpeaker` — no inference machinery at all,
  which is the replay-throughput ceiling of the substrate.

Replay proceeds in chunks of roughly ``chunk_messages`` messages: each chunk
is one speaker batch (decision process once per touched prefix), matching
how a deployment drains its BGP sockets in bulk.  Chunking does not change
results — the batched path's loss/recovery multiset matches per-message
replay regardless of batch boundaries.

This module replays *one* session.  Inference is per session (§4.1), so a
corpus replays as one independent :func:`replay_stream` call per session.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Iterator, List, Optional, Tuple

from repro.bgp.speaker import BGPSpeaker
from repro.core import kernels
from repro.core.swifted_router import SwiftConfig, SwiftedRouter
from repro.traces.columnar import ColumnarRun, ColumnarTrace, table_dump

__all__ = [
    "BACKUP_ORIGIN_AS",
    "BACKUP_PEER_AS",
    "MonthReplayResult",
    "StreamReplayer",
    "backup_alternates",
    "replay_stream",
]

#: A multiset in canonical form: sorted ``(key, count)`` pairs.  Sorting
#: makes the form byte-identical across replays — the property the parity
#: checks rely on.
EventMultiset = Tuple[Tuple[object, int], ...]


def _canonical_multiset(counter: Counter) -> EventMultiset:
    return tuple(sorted(counter.items()))


@dataclass
class MonthReplayResult:
    """Counters of one month-replay run."""

    peer_as: int
    message_count: int
    withdrawal_count: int
    announcement_count: int
    reroutes: int
    losses: int
    recoveries: int
    chunks: int
    wall_seconds: float
    #: Canonical multisets of the replay's events, populated when the run
    #: was asked to ``collect_events`` (the parity checks always do): loss
    #: and recovery events keyed by ``(network, length)`` prefix pairs,
    #: reroute activations keyed by ``(timestamp, peer AS, inferred links,
    #: rerouted-prefix count, rule count)``.
    loss_events: Optional[EventMultiset] = None
    recovery_events: Optional[EventMultiset] = None
    reroute_events: Optional[EventMultiset] = None

    def signature(self) -> tuple:
        """Everything deterministic about the run — no wall-clock noise.

        Two replays of the same stream (in the same or different processes)
        must produce equal signatures; the parity tests compare the pickled
        bytes of these.
        """
        return (
            self.peer_as,
            self.message_count,
            self.withdrawal_count,
            self.announcement_count,
            self.reroutes,
            self.losses,
            self.recoveries,
            self.loss_events,
            self.recovery_events,
            self.reroute_events,
        )


def _chunked_runs(
    stream: ColumnarTrace, chunk_messages: int, kernel=None
) -> Iterator[List[ColumnarRun]]:
    """Group the stream's same-peer runs into ~chunk_messages-sized chunks."""
    chunk: List[ColumnarRun] = []
    pending = 0
    for run in stream.iter_batches(max_run=chunk_messages, kernel=kernel):
        chunk.append(run)
        pending += len(run)
        if pending >= chunk_messages:
            yield chunk
            chunk = []
            pending = 0
    if chunk:
        yield chunk


#: Neighbor AS of the synthetic surviving session backing a SWIFTED replay.
BACKUP_PEER_AS = 64512

#: Fallback origin of a backup alternate when the primary path's own origin
#: cannot be reused (absent, invalid, or colliding with the backup peer).
BACKUP_ORIGIN_AS = BACKUP_PEER_AS + 1


def _alternate_origin(origin_as: Optional[int]) -> int:
    """A collision-free origin for the two-hop backup alternate.

    Reusing the primary origin keeps the alternate pointing at the same
    destination AS, but three cases must fall back to the synthetic
    :data:`BACKUP_ORIGIN_AS`: a missing origin (empty path), a non-positive
    one (``or`` used to conflate 0 with "absent", and :class:`ASPath`
    rejects it anyway), and — the silent one — an origin equal to
    :data:`BACKUP_PEER_AS` itself, which used to produce the looped path
    ``[64512, 64512]`` that loop detection drops, leaving the prefix with
    no backup at all.
    """
    if origin_as is None or origin_as <= 0 or origin_as == BACKUP_PEER_AS:
        return BACKUP_ORIGIN_AS
    return origin_as


def backup_alternates(rib) -> dict:
    """The backup session's loop-free two-hop alternate for every RIB prefix."""
    from repro.bgp.attributes import ASPath

    return {
        prefix: ASPath([BACKUP_PEER_AS, _alternate_origin(path.origin_as)])
        for prefix, path in rib.items()
    }


class StreamReplayer:
    """An incrementally-fed month replay — the engine behind
    :func:`replay_stream`.

    Construction performs the full router setup (initial table load, backup
    session, provisioning); :meth:`feed` then replays any number of columnar
    streams *in arrival order* through the same live router, and
    :meth:`result` snapshots the accumulated counters.  Feeding one whole
    stream and calling :meth:`result` is exactly :func:`replay_stream`;
    feeding the same rows split across several calls produces a
    byte-identical :meth:`~MonthReplayResult.signature`, because chunking
    and run-splitting never change replay results — the property the live
    ingestion tail (:class:`repro.ingest.LiveReplay`) relies on to match
    offline replay window for window.

    ``rib`` is the session's pre-trace Adj-RIB-In snapshot (prefix -> AS
    path): for a synthetic session, the trace's ``rib_of(peer_as)`` beside
    the ``messages_of(peer_as)`` columns it feeds.  The replay is
    zero-object: speaker *and* inference engines consume the raw columns,
    no ``BGPMessage`` is built anywhere, and no session retains the
    messages it processed.

    Every chunk reaches the router (or bare speaker) through
    :meth:`_receive`; the parity matrix's object-path comparator
    (``tests/oracles/object_replay.py``) overrides that one method to feed
    the chunk's materialised messages to ``receive_batch`` instead.

    In SWIFTED mode a second, quiet session (``backup_session``) announces
    a surviving two-hop alternate for every prefix at a lower LOCAL_PREF —
    the Fig. 1 structure where AS 3 survives the (5, 6) failure.  Synthetic
    per-session prefix spaces are disjoint, so without it the router would
    have no backup next-hops and inferences could never install a rule.

    With ``collect_events=True`` the result also carries the canonical
    loss / recovery / reroute multisets (see
    :class:`MonthReplayResult`), which is what the column-vs-object parity
    matrix and the live-tail parity tests compare.

    ``kernel_backend`` names the column-kernel backend
    (:mod:`repro.core.kernels`) for the whole replay — run segmentation and
    the engines' detector and trigger kernels.  ``None``, ``"auto"`` and
    ``"stdlib"`` all select the one backend; an explicit name is injected
    into the SWIFTED router's inference config as well.
    """

    def __init__(
        self,
        rib,
        peer_as: int,
        local_as: int = 1,
        swift_config: Optional[SwiftConfig] = None,
        chunk_messages: int = 50000,
        swifted: bool = True,
        local_pref: int = 100,
        backup_session: bool = True,
        collect_events: bool = False,
        kernel_backend: Optional[str] = None,
    ) -> None:
        self.peer_as = peer_as
        self.swifted = swifted
        self._chunk_messages = chunk_messages
        self._kernel = kernels.get_backend(kernel_backend)
        self._losses = 0
        self._recoveries = 0
        self._reroutes = 0
        self._message_count = 0
        self._withdrawal_count = 0
        self._announcement_count = 0
        self._chunks = 0
        self._wall_seconds = 0.0
        self._loss_counter: Optional[Counter] = Counter() if collect_events else None
        self._recovery_counter: Optional[Counter] = (
            Counter() if collect_events else None
        )
        self._reroute_counter: Optional[Counter] = (
            Counter() if collect_events else None
        )

        loss_counter = self._loss_counter
        recovery_counter = self._recovery_counter

        def count_events(changes) -> None:
            for change in changes:
                if change.is_loss_of_reachability:
                    self._losses += 1
                    if loss_counter is not None:
                        prefix = change.prefix
                        loss_counter[(prefix.network, prefix.length)] += 1
                elif change.is_recovery:
                    self._recoveries += 1
                    if recovery_counter is not None:
                        prefix = change.prefix
                        recovery_counter[(prefix.network, prefix.length)] += 1

        if swifted:
            if kernel_backend is not None:
                # The engines resolve their backend from InferenceConfig;
                # inject the explicit choice so one knob steers the whole
                # path.
                config = swift_config if swift_config is not None else SwiftConfig()
                swift_config = replace(
                    config,
                    inference=replace(
                        config.inference, kernel_backend=kernel_backend
                    ),
                )
            router = SwiftedRouter(local_as, config=swift_config)
            router.add_peer(peer_as)
            router.load_initial_routes(peer_as, rib, local_pref=local_pref)
            if backup_session:
                router.add_peer(BACKUP_PEER_AS)
                router.load_initial_routes(
                    BACKUP_PEER_AS,
                    backup_alternates(rib),
                    local_pref=max(1, local_pref // 2),
                )
            speaker = router.speaker
            speaker.add_best_route_listener(count_events)
            router.provision()
            self.router: Optional[SwiftedRouter] = router
        else:
            speaker = BGPSpeaker(local_as)
            speaker.add_peer(peer_as)
            speaker.receive_columnar(table_dump(rib, peer_as, local_pref=local_pref))
            speaker.add_best_route_listener(count_events)
            self.router = None
        self.speaker = speaker

    def _receive(self, chunk: List[ColumnarRun]):
        """Hand one chunk of same-peer runs to the router (or bare speaker)."""
        sink = self.router if self.swifted else self.speaker
        return sink.receive_columnar(chunk, kernel=self._kernel)

    def feed(self, stream: ColumnarTrace) -> None:
        """Replay one columnar stream (or stream window) through the router."""
        self._message_count += stream.message_count
        self._withdrawal_count += stream.withdrawal_total
        self._announcement_count += stream.announcement_total
        reroute_counter = self._reroute_counter
        begin = time.perf_counter()
        for chunk in _chunked_runs(stream, self._chunk_messages, kernel=self._kernel):
            self._chunks += 1
            result = self._receive(chunk)
            if self.swifted:
                self._reroutes += len(result)
                if reroute_counter is not None:
                    for action in result:
                        reroute_counter[
                            (
                                action.timestamp,
                                action.peer_as,
                                action.inferred_links,
                                len(action.rerouted_prefixes),
                                len(action.rules),
                            )
                        ] += 1
        self._wall_seconds += time.perf_counter() - begin

    def result(self) -> MonthReplayResult:
        """Snapshot the accumulated counters as a :class:`MonthReplayResult`."""
        return MonthReplayResult(
            peer_as=self.peer_as,
            message_count=self._message_count,
            withdrawal_count=self._withdrawal_count,
            announcement_count=self._announcement_count,
            reroutes=self._reroutes,
            losses=self._losses,
            recoveries=self._recoveries,
            chunks=self._chunks,
            wall_seconds=self._wall_seconds,
            loss_events=(
                _canonical_multiset(self._loss_counter)
                if self._loss_counter is not None
                else None
            ),
            recovery_events=(
                _canonical_multiset(self._recovery_counter)
                if self._recovery_counter is not None
                else None
            ),
            reroute_events=(
                _canonical_multiset(self._reroute_counter)
                if self._reroute_counter is not None
                else None
            ),
        )


def replay_stream(
    stream: ColumnarTrace,
    rib,
    peer_as: int,
    local_as: int = 1,
    swift_config: Optional[SwiftConfig] = None,
    chunk_messages: int = 50000,
    swifted: bool = True,
    local_pref: int = 100,
    backup_session: bool = True,
    collect_events: bool = False,
    kernel_backend: Optional[str] = None,
) -> MonthReplayResult:
    """Replay one session's columnar stream through a router.

    The one-shot form of :class:`StreamReplayer` (which carries the full
    parameter documentation): set up the router, feed the whole stream,
    return the result.
    """
    replayer = StreamReplayer(
        rib,
        peer_as,
        local_as=local_as,
        swift_config=swift_config,
        chunk_messages=chunk_messages,
        swifted=swifted,
        local_pref=local_pref,
        backup_session=backup_session,
        collect_events=collect_events,
        kernel_backend=kernel_backend,
    )
    replayer.feed(stream)
    return replayer.result()
