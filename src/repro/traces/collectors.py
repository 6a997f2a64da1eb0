"""Route collectors and collector peers.

RouteViews and RIPE RIS operate collectors, each maintaining BGP sessions
with tens of peer routers around the world; the paper uses 15 collectors and
213 peering sessions (§6.1).  This module models that fleet: a
:class:`CollectorPeer` is one peering session with its own table size and
activity level, a :class:`Collector` groups several peers, and
:func:`build_collector_fleet` creates a realistic mix (a few very large
transit feeds, many medium ones).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List

__all__ = ["Collector", "CollectorPeer", "build_collector_fleet"]


@dataclass(frozen=True)
class CollectorPeer:
    """One peering session between a collector and a peer router.

    ``table_size`` is the number of prefixes the peer announces to the
    collector; ``activity_multiplier`` scales how many bursts the session
    sees in a month (62% of sessions see 1-10 bursts, 24% more than 10 and
    14% none, per §2.2.1).
    """

    collector: str
    peer_as: int
    table_size: int
    activity_multiplier: float = 1.0
    flapping: bool = False

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``"rrc00-AS3356"``."""
        return f"{self.collector}-AS{self.peer_as}"


@dataclass
class Collector:
    """A route collector with its set of peering sessions."""

    name: str
    project: str
    peers: List[CollectorPeer] = field(default_factory=list)

    @property
    def peer_count(self) -> int:
        """Number of peering sessions this collector maintains."""
        return len(self.peers)


# Names follow the real projects: RouteViews collectors and RIPE RIS "rrc" boxes.
_ROUTEVIEWS_NAMES = (
    "route-views2",
    "route-views3",
    "route-views4",
    "route-views6",
    "route-views.eqix",
    "route-views.isc",
    "route-views.kixp",
    "route-views.linx",
    "route-views.sydney",
    "route-views.wide",
)
_RIS_NAMES = ("rrc00", "rrc01", "rrc03", "rrc04", "rrc05")


def build_collector_fleet(
    peer_count: int = 213,
    seed: int = 0,
    min_table_size: int = 4000,
    max_table_size: int = 120000,
    flapping_peers: int = 0,
) -> List[Collector]:
    """Create a fleet of collectors totalling ``peer_count`` peering sessions.

    Sessions are spread over 10 RouteViews and 5 RIS collectors (the paper's
    mix).  Table sizes are drawn log-uniformly between the bounds so the
    fleet contains both small customer feeds and large transit feeds, and
    activity multipliers reproduce the observed spread in per-session burst
    counts.  ``flapping_peers`` sessions are marked as flapping — the paper
    excludes 5 such peers from its analysis (§6.1), and we reproduce that
    filtering capability.
    """
    if peer_count <= 0:
        raise ValueError("peer_count must be positive")
    rng = random.Random(seed)
    collectors = [
        Collector(name=name, project="routeviews") for name in _ROUTEVIEWS_NAMES
    ] + [Collector(name=name, project="ris") for name in _RIS_NAMES]

    next_asn = 2900
    flapping_budget = flapping_peers
    for index in range(peer_count):
        collector = collectors[index % len(collectors)]
        log_min, log_max = math.log(min_table_size), math.log(max_table_size)
        table_size = int(round(math.exp(rng.uniform(log_min, log_max))))
        # Activity: 14% quiet, 62% normal (x1), 24% busy (x3-6).
        draw = rng.random()
        if draw < 0.14:
            activity = 0.0
        elif draw < 0.76:
            activity = rng.uniform(0.3, 1.5)
        else:
            activity = rng.uniform(2.0, 6.0)
        flapping = flapping_budget > 0
        if flapping:
            flapping_budget -= 1
            activity = max(activity, 8.0)
        peer = CollectorPeer(
            collector=collector.name,
            peer_as=next_asn,
            table_size=table_size,
            activity_multiplier=activity,
            flapping=flapping,
        )
        collector.peers.append(peer)
        next_asn += rng.randrange(3, 50)
    return collectors
