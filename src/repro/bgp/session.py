"""BGP peering sessions and message streams.

A :class:`PeeringSession` models one eBGP session between the SWIFTED router
(or a route collector) and a neighbor AS.  It carries a time-ordered
:class:`MessageStream`, tracks session state, and maintains the per-session
Adj-RIB-In that the SWIFT inference engine reads.  The paper runs inference
"on a per-session basis (enabling parallelism)" (§4.1), so the session is the
natural unit of work throughout this code base.

A session applies message objects only.  Columnar runs are walked into its
Adj-RIB-In, state, statistics and change observers by
:meth:`repro.bgp.speaker.SpeakerBatch.add_columnar_run`, exactly as
``process_batch(run.materialise())`` would.  Change observers receive the
changed *prefixes*, never messages, so they do not force materialisation.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.bgp.messages import BGPMessage, MessageType, Notification, OpenMessage, Update
from repro.bgp.prefix import Prefix
from repro.bgp.rib import AdjRibIn, RouteChange, RouteChangeKind

__all__ = ["MessageStream", "PeeringSession", "SessionState", "SessionStats"]

_UNCHANGED = RouteChangeKind.UNCHANGED


class SessionState(Enum):
    """Simplified BGP FSM states (only the ones our models need)."""

    IDLE = "idle"
    ESTABLISHED = "established"
    CLOSED = "closed"


class MessageStream:
    """A time-ordered sequence of BGP messages.

    Messages are kept sorted by timestamp; appending out-of-order messages is
    allowed (the collector dump readers may interleave files) and handled via
    insertion sort on the timestamp key.
    """

    def __init__(self, messages: Optional[Iterable[BGPMessage]] = None) -> None:
        self._messages: List[BGPMessage] = []
        self._timestamps: List[float] = []
        if messages is not None:
            for message in messages:
                self.append(message)

    def append(self, message: BGPMessage) -> None:
        """Add a message, keeping the stream sorted by timestamp."""
        if not self._timestamps or message.timestamp >= self._timestamps[-1]:
            self._messages.append(message)
            self._timestamps.append(message.timestamp)
            return
        index = bisect.bisect_right(self._timestamps, message.timestamp)
        self._messages.insert(index, message)
        self._timestamps.insert(index, message.timestamp)

    def extend(self, messages: Iterable[BGPMessage]) -> None:
        """Append several messages.

        An already-sorted batch that starts at or after the stream's current
        end is appended with two list concatenations; anything else falls
        back to per-message insertion.
        """
        batch = messages if isinstance(messages, (list, tuple)) else list(messages)
        if not batch:
            return
        timestamps = [message.timestamp for message in batch]
        in_order = all(a <= b for a, b in zip(timestamps, timestamps[1:]))
        if in_order and (not self._timestamps or timestamps[0] >= self._timestamps[-1]):
            self._messages.extend(batch)
            self._timestamps.extend(timestamps)
            return
        for message in batch:
            self.append(message)

    def __len__(self) -> int:
        return len(self._messages)

    def __iter__(self) -> Iterator[BGPMessage]:
        return iter(self._messages)

    def __getitem__(self, index):
        return self._messages[index]

    @property
    def start_time(self) -> Optional[float]:
        """Timestamp of the first message, or ``None`` when empty."""
        return self._timestamps[0] if self._timestamps else None

    @property
    def end_time(self) -> Optional[float]:
        """Timestamp of the last message, or ``None`` when empty."""
        return self._timestamps[-1] if self._timestamps else None

    @property
    def duration(self) -> float:
        """Time spanned by the stream in seconds (0.0 when < 2 messages)."""
        if len(self._timestamps) < 2:
            return 0.0
        return self._timestamps[-1] - self._timestamps[0]

    def updates(self) -> Iterator[Update]:
        """Iterate over UPDATE messages only."""
        for message in self._messages:
            if isinstance(message, Update):
                yield message

    def withdrawal_count(self) -> int:
        """Total number of withdrawn prefixes in the stream."""
        return sum(len(m.withdrawals) for m in self.updates())

    def announcement_count(self) -> int:
        """Total number of announced prefixes in the stream."""
        return sum(len(m.announcements) for m in self.updates())

    def withdrawals_in_window(self, start: float, end: float) -> int:
        """Number of withdrawn prefixes with ``start <= timestamp < end``."""
        lo = bisect.bisect_left(self._timestamps, start)
        hi = bisect.bisect_left(self._timestamps, end)
        total = 0
        for message in self._messages[lo:hi]:
            if isinstance(message, Update):
                total += len(message.withdrawals)
        return total


@dataclass
class SessionStats:
    """Running counters a session keeps about its own traffic."""

    messages_received: int = 0
    announcements_received: int = 0
    withdrawals_received: int = 0
    session_resets: int = 0
    last_message_at: Optional[float] = None


class PeeringSession:
    """One eBGP session between a local router and a neighbor AS.

    The session owns an Adj-RIB-In updated as messages are processed, a
    recorded :class:`MessageStream` (so bursts can be re-analysed), running
    statistics, and an optional list of observers invoked on every processed
    UPDATE — this is the hook the SWIFT engine uses to watch the stream in
    real time.

    Parameters
    ----------
    local_as:
        The AS number of the router terminating the session locally.
    peer_as:
        The neighbor AS number.
    name:
        Optional human-readable name (collector peers use e.g. ``"rrc00-3356"``).
    """

    def __init__(self, local_as: int, peer_as: int, name: Optional[str] = None) -> None:
        self.local_as = local_as
        self.peer_as = peer_as
        self.name = name or f"{local_as}-{peer_as}"
        self.state = SessionState.IDLE
        self.rib_in = AdjRibIn(peer_as)
        self.stream = MessageStream()
        self.stats = SessionStats()
        # Replay workloads that never re-analyse the raw stream can switch
        # recording off: month-scale replays otherwise hold every processed
        # message alive, and the columnar fast path can only skip message
        # materialisation entirely when nothing records the objects.
        self.record_stream = True
        self._observers: List[Callable[["PeeringSession", Update, List[RouteChange]], None]] = []
        self._change_observers: List[Callable[["PeeringSession", List[Prefix]], None]] = []

    # -- lifecycle --------------------------------------------------------

    def establish(self, timestamp: float = 0.0) -> OpenMessage:
        """Bring the session up and return the OPEN message that did it."""
        self.state = SessionState.ESTABLISHED
        message = OpenMessage(timestamp=timestamp, peer_as=self.peer_as)
        self.stream.append(message)
        return message

    def close(self, timestamp: float = 0.0, reason: str = "") -> List[RouteChange]:
        """Tear the session down (hard reset) with a recorded NOTIFICATION.

        Like :meth:`process` on a NOTIFICATION, returns one ``WITHDRAWN``
        change per route the Adj-RIB-In held, and the change observers get
        their prefixes.
        """
        changes = self._reset()
        self.stream.append(
            Notification(timestamp=timestamp, peer_as=self.peer_as, reason=reason)
        )
        self._notify_change_observers([change.prefix for change in changes])
        return changes

    def _reset(self) -> List[RouteChange]:
        """Close the session and withdraw every route it held.

        The withdrawals come back as ``WITHDRAWN`` changes, so a reset reaches
        whatever reads the Adj-RIB-In's changes (the speaker's re-selection,
        the router's engine deltas) exactly as withdrawals on the wire would.  Observers are the caller's
        to notify, with the rest of its call's changes.
        """
        self.state = SessionState.CLOSED
        self.stats.session_resets += 1
        return self.rib_in.withdraw_all()

    # -- observers --------------------------------------------------------

    def add_observer(
        self,
        callback: Callable[["PeeringSession", Update, List[RouteChange]], None],
    ) -> None:
        """Register a callback invoked after each processed UPDATE."""
        self._observers.append(callback)

    def add_change_observer(
        self,
        callback: Callable[["PeeringSession", List[Prefix]], None],
    ) -> None:
        """Register a callback fed the prefixes whose route from the peer changed.

        Change observers receive ``(session, prefixes)``: the prefix of every
        announcement and of every withdrawal that removed a route, in message
        order (a prefix may repeat), read the route from ``rib_in`` if they
        need it, and — unlike :meth:`add_observer` observers — do **not**
        force the speaker's column walk to materialise messages.  One call
        per processing call (per message for :meth:`process`, per run for the
        batched paths); empty lists are skipped.
        """
        self._change_observers.append(callback)

    # -- message processing -----------------------------------------------

    def process(self, message: BGPMessage) -> List[RouteChange]:
        """Apply a message to the session state and return resulting changes.

        OPEN establishes, NOTIFICATION closes (withdrawing every route: the
        changes returned), KEEPALIVE only refreshes statistics and UPDATE
        mutates the Adj-RIB-In.
        """
        stats = self.stats
        timestamp = message.timestamp
        stats.messages_received += 1
        stats.last_message_at = timestamp
        if self.record_stream:
            self.stream.append(message)

        if not isinstance(message, Update):
            if message.type == MessageType.NOTIFICATION:
                changes = self._reset()
                self._notify_change_observers([change.prefix for change in changes])
                return changes
            if message.type == MessageType.OPEN:
                self.state = SessionState.ESTABLISHED
            return []

        rib_in = self.rib_in
        withdrawals = message.withdrawals
        announcements = message.announcements
        changes: List[RouteChange] = [rib_in.withdraw(p, timestamp) for p in withdrawals]
        for announcement in announcements:
            changes.append(
                rib_in.announce(announcement.prefix, announcement.attributes, timestamp)
            )
        stats.withdrawals_received += len(withdrawals)
        stats.announcements_received += len(announcements)

        for observer in self._observers:
            observer(self, message, changes)
        if self._change_observers:
            self._notify_change_observers(
                [change.prefix for change in changes if change.kind is not _UNCHANGED]
            )
        return changes

    def process_batch(
        self, messages: Iterable[BGPMessage]
    ) -> List[List[RouteChange]]:
        """Bulk :meth:`process`: apply a run of messages in one call.

        Returns one change list per message (same order), so callers that
        need message boundaries — e.g. the batched speaker tracking
        reachability transitions — keep them.  Semantically identical to
        calling :meth:`process` per message, with two bulk-mode
        amortisations: the stream records the run in one extend, and the
        statistics counters fold in once at the end (an observer reading
        ``stats`` mid-run sees the pre-run values).
        """
        if not isinstance(messages, (list, tuple)):
            messages = list(messages)
        per_message: List[List[RouteChange]] = []
        stats = self.stats
        if self.record_stream:
            self.stream.extend(messages)
        rib_in = self.rib_in
        rib_withdraw = rib_in.withdraw
        rib_announce = rib_in.announce
        observers = self._observers
        count = 0
        withdrawals = 0
        announcements = 0
        last_at = stats.last_message_at
        append_result = per_message.append
        for message in messages:
            count += 1
            timestamp = message.timestamp
            last_at = timestamp
            if not isinstance(message, Update):
                if message.type == MessageType.NOTIFICATION:
                    append_result(self._reset())
                    continue
                if message.type == MessageType.OPEN:
                    self.state = SessionState.ESTABLISHED
                append_result([])
                continue
            changes: List[RouteChange] = []
            changes_append = changes.append
            for prefix in message.withdrawals:
                changes_append(rib_withdraw(prefix, timestamp))
                withdrawals += 1
            for announcement in message.announcements:
                changes_append(
                    rib_announce(announcement.prefix, announcement.attributes, timestamp)
                )
                announcements += 1
            for observer in observers:
                observer(self, message, changes)
            append_result(changes)
        stats.messages_received += count
        stats.withdrawals_received += withdrawals
        stats.announcements_received += announcements
        if count:
            stats.last_message_at = last_at
        if self._change_observers:
            self._notify_change_observers(
                [
                    change.prefix
                    for changes in per_message
                    for change in changes
                    if change.kind is not _UNCHANGED
                ]
            )
        return per_message

    def _notify_change_observers(self, prefixes: List[Prefix]) -> None:
        """Fire the change observers once with a call's changed prefixes."""
        if prefixes:
            for observer in self._change_observers:
                observer(self, prefixes)

    # -- convenience ------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"PeeringSession(name={self.name!r}, local_as={self.local_as}, "
            f"peer_as={self.peer_as}, state={self.state.value}, "
            f"routes={len(self.rib_in)})"
        )
