"""BGP peering sessions.

A :class:`PeeringSession` models one eBGP session between the SWIFTED router
(or a route collector) and a neighbor AS.  It keeps routes, not history: the
per-session Adj-RIB-In that the SWIFT inference engine reads, the session
state and running counters.  No processed message is retained.  The paper
runs inference "on a per-session basis (enabling parallelism)" (§4.1), so the
session is the natural unit of work throughout this code base.

A session applies message objects only.  Columnar runs are walked into its
Adj-RIB-In, state, statistics and change observers by
:meth:`repro.bgp.speaker.SpeakerBatch.add_columnar_run`, exactly as
``process_batch(run.materialise())`` would.  Change observers receive the
changed *prefixes*, never messages, so a columnar run builds no message.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, List, Optional

from repro.bgp.messages import BGPMessage, MessageType, Update
from repro.bgp.prefix import Prefix
from repro.bgp.rib import AdjRibIn, RouteChange, RouteChangeKind

__all__ = ["PeeringSession", "SessionState", "SessionStats"]

_UNCHANGED = RouteChangeKind.UNCHANGED


class SessionState(Enum):
    """Simplified BGP FSM states (only the ones our models need)."""

    IDLE = "idle"
    ESTABLISHED = "established"
    CLOSED = "closed"


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

    The session owns an Adj-RIB-In updated as messages are processed, its
    state, running statistics, and the change observers fed the prefixes
    whose route from the peer changed (the SWIFTED router's dirty-prefix
    tracking).

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
        self.stats = SessionStats()
        self._change_observers: List[Callable[["PeeringSession", List[Prefix]], None]] = []

    # -- lifecycle --------------------------------------------------------

    def establish(self) -> None:
        """Bring the session up, as a received OPEN does."""
        self.state = SessionState.ESTABLISHED

    def close(self) -> List[RouteChange]:
        """Tear the session down (hard reset), as a received NOTIFICATION does.

        Like :meth:`process` on a NOTIFICATION, returns one ``WITHDRAWN``
        change per route the Adj-RIB-In held, and the change observers get
        their prefixes.
        """
        changes = self._reset()
        self._notify_change_observers([change.prefix for change in changes])
        return changes

    def _reset(self) -> List[RouteChange]:
        """Close the session and withdraw every route it held.

        The withdrawals come back as ``WITHDRAWN`` changes, so a reset reaches
        whatever reads the Adj-RIB-In's changes (the speaker's re-selection,
        the router's engine deltas) exactly as withdrawals on the wire would.
        Observers are the caller's to notify, with the rest of its call's
        changes.
        """
        self.state = SessionState.CLOSED
        self.stats.session_resets += 1
        return self.rib_in.withdraw_all()

    # -- observers --------------------------------------------------------

    def add_change_observer(
        self,
        callback: Callable[["PeeringSession", List[Prefix]], None],
    ) -> None:
        """Register a callback fed the prefixes whose route from the peer changed.

        Change observers receive ``(session, prefixes)``: the prefix of every
        announcement and of every withdrawal that removed a route, in message
        order (a prefix may repeat), and read the route from ``rib_in`` if
        they need it.  One call per processing call (per message for
        :meth:`process`, per run for the batched paths); empty lists are
        skipped.
        """
        self._change_observers.append(callback)

    # -- message processing -----------------------------------------------

    def process(self, message: BGPMessage) -> List[Prefix]:
        """Apply a message to the session state; return the changed prefixes.

        OPEN establishes, NOTIFICATION closes (withdrawing every route),
        KEEPALIVE only refreshes statistics and UPDATE mutates the
        Adj-RIB-In.  The prefixes are the ones the change observers get: of
        every announcement and of every withdrawal that removed a route, in
        message order.  Like the speaker's column walk, the per-message path
        builds no :class:`~repro.bgp.rib.RouteChange` for an UPDATE.
        """
        stats = self.stats
        stats.messages_received += 1
        stats.last_message_at = message.timestamp

        if not isinstance(message, Update):
            if message.type == MessageType.NOTIFICATION:
                changed = [change.prefix for change in self._reset()]
                self._notify_change_observers(changed)
                return changed
            if message.type == MessageType.OPEN:
                self.state = SessionState.ESTABLISHED
            return []

        rib_in = self.rib_in
        drop = rib_in._drop
        store = rib_in._store
        withdrawals = message.withdrawals
        announcements = message.announcements
        changed = [prefix for prefix in withdrawals if drop(prefix) is not None]
        for announcement in announcements:
            prefix = announcement.prefix
            store(prefix, announcement.attributes)
            changed.append(prefix)
        stats.withdrawals_received += len(withdrawals)
        stats.announcements_received += len(announcements)

        if self._change_observers:
            self._notify_change_observers(changed)
        return changed

    def process_batch(
        self, messages: Iterable[BGPMessage]
    ) -> List[List[RouteChange]]:
        """Bulk :meth:`process`: apply a run of messages in one call.

        Returns one change list per message (same order), so callers that
        need message boundaries — e.g. the batched speaker tracking
        reachability transitions — keep them.  Semantically identical to
        calling :meth:`process` per message, except that the statistics
        counters fold in once at the end and the change observers fire once
        per call.
        """
        per_message: List[List[RouteChange]] = []
        stats = self.stats
        rib_in = self.rib_in
        rib_withdraw = rib_in.withdraw
        rib_announce = rib_in.announce
        count = 0
        withdrawals = 0
        announcements = 0
        last_at = stats.last_message_at
        append_result = per_message.append
        for message in messages:
            count += 1
            last_at = message.timestamp
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
                changes_append(rib_withdraw(prefix))
                withdrawals += 1
            for announcement in message.announcements:
                changes_append(rib_announce(announcement.prefix, announcement.attributes))
                announcements += 1
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
