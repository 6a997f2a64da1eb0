"""Test oracle: a speaker's route tables kept as per-prefix entries.

An :class:`~repro.bgp.rib.AdjRibIn` shares one route among every prefix its
peer announced with the same attribute object, and the Loc-RIB's best table
holds those shared routes.  The reference here keeps one entry per
(prefix, peer), applies each message on its own, and answers every query by
ranking the prefix's entries with a
:class:`~repro.bgp.decision.DecisionProcess`.  Speakers are compared with it,
and with each other, through :func:`route_value`: a route's
``(attributes, peer AS)``, since routes held by two speakers are never the
same object.
"""

from repro.bgp.decision import DecisionProcess
from repro.bgp.messages import MessageType, Update


def route_value(entry):
    """``(attributes, peer AS)`` of a route or entry, ``None`` for ``None``."""
    return None if entry is None else (entry.attributes, entry.peer_as)


class PerPrefixEntry:
    """One route of one prefix from one peer."""

    __slots__ = ("prefix", "attributes", "peer_as")

    def __init__(self, prefix, attributes, peer_as):
        self.prefix = prefix
        self.attributes = attributes
        self.peer_as = peer_as

    @property
    def as_path(self):
        return self.attributes.as_path


class PerPrefixRoutes:
    """Per-session ``prefix -> entry`` tables, in session order."""

    def __init__(self, peers, decision_process=None):
        self.decision_process = decision_process or DecisionProcess()
        self.tables = {peer: {} for peer in peers}

    def receive(self, message):
        table = self.tables[message.peer_as]
        if isinstance(message, Update):
            for prefix in message.withdrawals:
                table.pop(prefix, None)
            for announcement in message.announcements:
                table[announcement.prefix] = PerPrefixEntry(
                    announcement.prefix, announcement.attributes, message.peer_as
                )
        elif message.type is MessageType.NOTIFICATION:
            table.clear()

    def candidates(self, prefix):
        return [table[prefix] for table in self.tables.values() if prefix in table]

    def best_route(self, prefix):
        return self.decision_process.select(self.candidates(prefix))

    def alternate_routes(self, prefix):
        ranked = self.decision_process.rank(self.candidates(prefix))
        best = self.best_route(prefix)
        if best is None:
            return ranked
        return [entry for entry in ranked if entry.peer_as != best.peer_as]
