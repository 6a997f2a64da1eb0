"""Valley-free route computation over an AS graph.

Implements the standard three-phase algorithm for Gao–Rexford routing to a
single origin AS:

1. **Customer routes** — announcements travel uphill from the origin along
   customer→provider edges; every AS on such a chain learns a customer route
   and prefers the shortest one.
2. **Peer routes** — ASes owning a customer route (or originating the prefix)
   announce it over peering links; the receiving AS accepts it only if it has
   no customer route.
3. **Provider routes** — ASes owning any route announce it downhill to their
   customers; customers accept it only if they have neither a customer nor a
   peer route, preferring the shortest provider route.

Within a phase ties are broken by shortest AS path and then lowest neighbor
ASN, giving a deterministic outcome.  The result records, for every AS, its
best path to the origin *and* the set of candidate paths offered by each
neighbor (what would sit in its per-neighbor Adj-RIB-In), which is what the
vantage-point construction needs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.topology.as_graph import ASGraph

__all__ = ["GaoRexfordRouting", "RouteComputation"]


# Route classes, lower = more preferred.
_CLASS_ORIGIN = -1
_CLASS_CUSTOMER = 0
_CLASS_PEER = 1
_CLASS_PROVIDER = 2


@dataclass
class _Route:
    """Internal per-AS routing state towards one origin."""

    route_class: int
    path: Tuple[int, ...]  # AS path towards the origin, next AS first, origin last.

    @property
    def length(self) -> int:
        return len(self.path)


@dataclass
class RouteComputation:
    """Routing towards one origin AS.

    Attributes
    ----------
    origin:
        The origin AS number.
    best_path:
        Mapping AS -> best AS path towards the origin (tuple, next AS first,
        origin last).  The origin itself maps to an empty tuple.  ASes with no
        route are absent.
    route_class:
        Mapping AS -> preference class of its best route (0 customer, 1 peer,
        2 provider, -1 origin).
    """

    origin: int
    best_path: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    route_class: Dict[int, int] = field(default_factory=dict)

    def path_of(self, asn: int) -> Optional[Tuple[int, ...]]:
        """Best AS path of ``asn`` towards the origin, or ``None``."""
        return self.best_path.get(asn)

    def links_used_by(self, asn: int) -> List[Tuple[int, int]]:
        """Canonical AS links crossed by ``asn``'s best path (including first hop)."""
        path = self.best_path.get(asn)
        if path is None:
            return []
        full = (asn,) + path
        return [
            (a, b) if a <= b else (b, a) for a, b in zip(full, full[1:])
        ]

    def exported_path(
        self, graph: ASGraph, exporter: int, importer: int
    ) -> Optional[Tuple[int, ...]]:
        """The path ``exporter`` would announce to ``importer`` (or ``None``).

        Applies valley-free export filtering and sender-side loop avoidance:
        a route whose path already contains the importer is never offered.
        """
        if exporter == self.origin:
            path: Tuple[int, ...] = (exporter,)
        elif exporter in self.best_path:
            path = (exporter,) + self.best_path[exporter]
        else:
            return None
        if importer in path:
            return None
        exporter_class = self.route_class.get(exporter, _CLASS_ORIGIN)
        if exporter_class in (_CLASS_ORIGIN, _CLASS_CUSTOMER):
            return path
        # Peer/provider-learned routes are only exported to customers.
        link = graph.link(exporter, importer)
        if link.relationship_from(exporter) == "customer":
            return path
        return None


class GaoRexfordRouting:
    """Computes valley-free routing towards origins over an :class:`ASGraph`."""

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph

    # -- public API --------------------------------------------------------

    def compute(self, origin: int) -> RouteComputation:
        """Compute the routing of every AS towards ``origin``."""
        graph = self.graph
        if not graph.has_as(origin):
            raise KeyError(f"unknown origin AS {origin}")

        routes: Dict[int, _Route] = {origin: _Route(_CLASS_ORIGIN, ())}

        # Phase 1: customer routes propagate uphill (towards providers).
        # Dijkstra-like expansion on path length with deterministic tie break.
        heap: List[Tuple[int, int, int]] = []  # (path_len, announcing_as, receiving_as)
        for provider in graph.providers_of(origin):
            heapq.heappush(heap, (1, origin, provider))
        while heap:
            length, sender, receiver = heapq.heappop(heap)
            current = routes.get(receiver)
            candidate_path = (sender,) + routes[sender].path
            if receiver in candidate_path:
                continue
            if current is not None and current.route_class <= _CLASS_CUSTOMER:
                if current.length <= len(candidate_path):
                    continue
            routes[receiver] = _Route(_CLASS_CUSTOMER, candidate_path)
            for provider in graph.providers_of(receiver):
                heapq.heappush(heap, (length + 1, receiver, provider))

        # Phase 2: peer routes (single peering hop at the top of the path).
        peer_updates: Dict[int, _Route] = {}
        for asn, route in routes.items():
            if route.route_class not in (_CLASS_ORIGIN, _CLASS_CUSTOMER):
                continue
            for peer in self.graph.peers_of(asn):
                existing = routes.get(peer)
                if existing is not None and existing.route_class <= _CLASS_CUSTOMER:
                    continue
                candidate_path = (asn,) + route.path
                if peer in candidate_path:
                    continue
                candidate = _Route(_CLASS_PEER, candidate_path)
                best_so_far = peer_updates.get(peer)
                if best_so_far is None or _better(candidate, best_so_far):
                    peer_updates[peer] = candidate
        for asn, route in peer_updates.items():
            existing = routes.get(asn)
            if existing is None or _better(route, existing):
                routes[asn] = route

        # Phase 3: provider routes propagate downhill to customers.
        heap = []
        for asn, route in routes.items():
            for customer in graph.customers_of(asn):
                heapq.heappush(heap, (len(route.path) + 1, asn, customer))
        while heap:
            length, sender, receiver = heapq.heappop(heap)
            sender_route = routes.get(sender)
            if sender_route is None:
                continue
            candidate_path = (sender,) + sender_route.path
            if receiver in candidate_path:
                continue
            candidate = _Route(_CLASS_PROVIDER, candidate_path)
            existing = routes.get(receiver)
            if existing is not None and not _better(candidate, existing):
                continue
            routes[receiver] = candidate
            for customer in graph.customers_of(receiver):
                heapq.heappush(heap, (length + 1, receiver, customer))

        computation = RouteComputation(origin=origin)
        for asn, route in routes.items():
            if asn == origin:
                computation.best_path[asn] = ()
                computation.route_class[asn] = _CLASS_ORIGIN
            else:
                computation.best_path[asn] = route.path
                computation.route_class[asn] = route.route_class
        return computation


def _better(a: _Route, b: _Route) -> bool:
    """True when route ``a`` is strictly preferred over ``b``."""
    if a.route_class != b.route_class:
        return a.route_class < b.route_class
    if a.length != b.length:
        return a.length < b.length
    return a.path < b.path
