"""Run-time safety monitor for fast-rerouted traffic (§3.3, Assumption 1).

SWIFT's safety argument assumes that, during an outage, other routers only
change the forwarding paths actually affected by the outage.  If the backup
next-hop a SWIFTED router reroutes to later switches away from the path it
had been offering (for unrelated reasons), a transient inter-domain loop can
form.  The paper notes that "SWIFT can quickly detect and mitigate such a
loop: s can monitor whether n stops offering the BGP path to which it has
fast-rerouted, and select another backup next-hop."

:class:`LoopGuard` implements that monitor: it remembers, per reroute action,
the backup next-hop and the AS path it was offering, watches the subsequent
BGP updates from that next-hop, and reports (or automatically repairs)
reroutes whose backup path disappeared or changed onto the failed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix

__all__ = ["GuardedReroute", "LoopGuard", "LoopAlert"]

Link = Tuple[int, int]


def _canonical(link: Link) -> Link:
    return link if link[0] <= link[1] else (link[1], link[0])


@dataclass(frozen=True)
class GuardedReroute:
    """One reroute decision being monitored."""

    prefix: Prefix
    backup_next_hop: int
    backup_path: ASPath
    avoided_links: Tuple[Link, ...]


@dataclass(frozen=True)
class LoopAlert:
    """Raised (returned) when a monitored backup stops being safe."""

    prefix: Prefix
    backup_next_hop: int
    reason: str
    timestamp: float


class LoopGuard:
    """Watches the backup next-hops used by active SWIFT reroutes.

    Parameters
    ----------
    on_alert:
        Optional callback invoked with each :class:`LoopAlert`; a SWIFTED
        router wires this to "pick another backup next-hop / fall back to
        per-prefix BGP" logic.
    """

    def __init__(self, on_alert: Optional[Callable[[LoopAlert], None]] = None) -> None:
        self._guards: Dict[Prefix, GuardedReroute] = {}
        self._on_alert = on_alert
        self.alerts: List[LoopAlert] = []

    # -- registration ---------------------------------------------------------

    def watch(
        self,
        prefix: Prefix,
        backup_next_hop: int,
        backup_path: ASPath,
        avoided_links: Sequence[Link],
    ) -> None:
        """Start monitoring one rerouted prefix."""
        self._guards[prefix] = GuardedReroute(
            prefix=prefix,
            backup_next_hop=backup_next_hop,
            backup_path=backup_path,
            avoided_links=tuple(_canonical(link) for link in avoided_links),
        )

    def watch_reroute(
        self,
        rerouted_prefixes: Sequence[Prefix],
        backup_next_hop: int,
        backup_path_of: Callable[[Prefix], Optional[ASPath]],
        avoided_links: Sequence[Link],
    ) -> int:
        """Monitor a whole reroute action; returns how many prefixes are watched."""
        count = 0
        for prefix in rerouted_prefixes:
            path = backup_path_of(prefix)
            if path is None:
                continue
            self.watch(prefix, backup_next_hop, path, avoided_links)
            count += 1
        return count

    def release_all(self) -> None:
        """Stop monitoring everything (SWIFT rules removed)."""
        self._guards.clear()

    @property
    def watched_count(self) -> int:
        """Number of prefixes currently monitored."""
        return len(self._guards)

    # -- monitoring --------------------------------------------------------------

    def observe(self, message: BGPMessage) -> List[LoopAlert]:
        """Inspect one BGP message from any peer; return any alerts it causes.

        Two conditions raise an alert for a monitored prefix when the message
        comes from its backup next-hop:

        * the next-hop withdraws the prefix — the backup path is gone;
        * the next-hop announces a new path that traverses one of the links
          the reroute was meant to avoid — following it would re-enter the
          failed region (and can create the loop described in §3.3).
        """
        if not isinstance(message, Update):
            return []
        alerts: List[LoopAlert] = []
        for prefix in message.withdrawals:
            guard = self._guards.get(prefix)
            if guard is not None and guard.backup_next_hop == message.peer_as:
                alerts.append(
                    LoopAlert(
                        prefix=prefix,
                        backup_next_hop=guard.backup_next_hop,
                        reason="backup next-hop withdrew the prefix",
                        timestamp=message.timestamp,
                    )
                )
        for announcement in message.announcements:
            guard = self._guards.get(announcement.prefix)
            if guard is None or guard.backup_next_hop != message.peer_as:
                continue
            new_links = {
                _canonical(link) for link in announcement.attributes.as_path.links()
            }
            crossed = new_links & set(guard.avoided_links)
            if crossed:
                alerts.append(
                    LoopAlert(
                        prefix=announcement.prefix,
                        backup_next_hop=guard.backup_next_hop,
                        reason=(
                            "backup next-hop switched onto an avoided link "
                            f"{sorted(crossed)[0]}"
                        ),
                        timestamp=message.timestamp,
                    )
                )
        for alert in alerts:
            self._guards.pop(alert.prefix, None)
            self.alerts.append(alert)
            if self._on_alert is not None:
                self._on_alert(alert)
        return alerts

    def observe_stream(self, messages: Sequence[BGPMessage]) -> List[LoopAlert]:
        """Inspect a sequence of messages; returns all raised alerts."""
        alerts: List[LoopAlert] = []
        for message in messages:
            alerts.extend(self.observe(message))
        return alerts
