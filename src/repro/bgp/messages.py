"""BGP message types.

The SWIFT input is a timestamped stream of UPDATE messages, each carrying
announcements (prefix + attributes) and/or withdrawals (prefix only).  We
also model OPEN / KEEPALIVE / NOTIFICATION so that session lifecycle can be
exercised by the session and speaker modules, and so the synthetic trace
generator can emit session resets (a common real-world cause of bursts).

Every message type is a frozen, slotted dataclass: an instance holds its
fields and no ``__dict__``, because a controller relaying every UPDATE of
every session keeps many of them in flight at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence, Tuple

from repro.bgp.attributes import PathAttributes
from repro.bgp.prefix import Prefix

__all__ = [
    "Announcement",
    "BGPMessage",
    "KeepAlive",
    "MessageType",
    "Notification",
    "OpenMessage",
    "Update",
    "Withdraw",
]


class MessageType(Enum):
    """The four BGP message types (RFC 4271) at the abstraction we need."""

    OPEN = "open"
    UPDATE = "update"
    KEEPALIVE = "keepalive"
    NOTIFICATION = "notification"


@dataclass(frozen=True, slots=True)
class BGPMessage:
    """Base class for all messages.

    ``timestamp`` is in seconds (float, arbitrary epoch); ``peer_as`` is the
    AS the message was received from (i.e. the eBGP neighbor on the session),
    which is how RouteViews/RIS attribute messages to vantage points.
    """

    timestamp: float
    peer_as: int

    @property
    def type(self) -> MessageType:
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class OpenMessage(BGPMessage):
    """Session establishment message."""

    hold_time: float = 90.0

    @property
    def type(self) -> MessageType:
        return MessageType.OPEN


@dataclass(frozen=True, slots=True)
class KeepAlive(BGPMessage):
    """Session keepalive."""

    @property
    def type(self) -> MessageType:
        return MessageType.KEEPALIVE


@dataclass(frozen=True, slots=True)
class Notification(BGPMessage):
    """Session teardown / error notification."""

    error_code: int = 6
    error_subcode: int = 0
    reason: str = ""

    @property
    def type(self) -> MessageType:
        return MessageType.NOTIFICATION


@dataclass(frozen=True, slots=True)
class Announcement:
    """A single (prefix, attributes) announcement inside an UPDATE."""

    prefix: Prefix
    attributes: PathAttributes

    def __reduce__(self):
        # Constructor-call pickling: traces serialise millions of these and
        # the dataclass ``__setstate__`` path is several times slower to
        # restore.
        return (Announcement, (self.prefix, self.attributes))


@dataclass(frozen=True, slots=True)
class Update(BGPMessage):
    """A BGP UPDATE message.

    A single UPDATE can carry several announcements sharing the same
    attribute set plus an arbitrary list of withdrawals ("update packing",
    §2.1.1 of the paper).  For convenience the synthetic generator usually
    emits one prefix per message, as observed in the wild when communities
    differ per prefix.
    """

    announcements: Tuple[Announcement, ...] = field(default_factory=tuple)
    withdrawals: Tuple[Prefix, ...] = field(default_factory=tuple)

    @property
    def type(self) -> MessageType:
        return MessageType.UPDATE

    def __reduce__(self):
        # See Announcement.__reduce__: constructor-call pickling keeps trace
        # caches fast to restore.
        return (
            Update,
            (self.timestamp, self.peer_as, self.announcements, self.withdrawals),
        )

    @property
    def prefix_count(self) -> int:
        """Total number of prefixes touched by this message."""
        return len(self.announcements) + len(self.withdrawals)

    @staticmethod
    def announce(
        timestamp: float,
        peer_as: int,
        prefix: Prefix,
        attributes: PathAttributes,
    ) -> "Update":
        """Build an UPDATE announcing a single prefix."""
        return Update(
            timestamp=timestamp,
            peer_as=peer_as,
            announcements=(Announcement(prefix, attributes),),
        )

    @staticmethod
    def withdraw(timestamp: float, peer_as: int, prefix: Prefix) -> "Update":
        """Build an UPDATE withdrawing a single prefix."""
        return Update(timestamp=timestamp, peer_as=peer_as, withdrawals=(prefix,))

    @staticmethod
    def withdraw_many(
        timestamp: float, peer_as: int, prefixes: Sequence[Prefix]
    ) -> "Update":
        """Build an UPDATE withdrawing several prefixes at once."""
        return Update(
            timestamp=timestamp, peer_as=peer_as, withdrawals=tuple(prefixes)
        )


# ``Withdraw`` is a convenience alias: a withdrawal-only Update.  Exposed as a
# distinct name because much of the SWIFT pipeline only cares about the
# withdrawal stream.
Withdraw = Update.withdraw
