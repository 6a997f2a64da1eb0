"""The AS-level graph with inter-AS business relationships.

This is the substrate on which the control-plane simulator propagates routes
and on which link failures are injected.  Each node is an AS originating a
set of prefixes (as in the paper's Fig. 1 where "each AS i originates a
distinct set of prefixes S_i"), each edge is an AS link annotated with a
business relationship (customer-provider or peer-peer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.bgp.prefix import Prefix

__all__ = ["ASGraph", "ASLink", "ASNode", "Relationship", "canonical_link"]


class Relationship(Enum):
    """Business relationship of an AS link, from the perspective of ``(a, b)``.

    ``CUSTOMER_PROVIDER`` means ``a`` is a customer of ``b`` (``a`` pays ``b``);
    ``PEER_PEER`` is settlement-free peering.  Sibling relationships are rare
    and not modelled.
    """

    CUSTOMER_PROVIDER = "c2p"
    PEER_PEER = "p2p"


def canonical_link(a: int, b: int) -> Tuple[int, int]:
    """Return the undirected (sorted-endpoint) form of an AS link."""
    return (a, b) if a <= b else (b, a)


@dataclass
class ASNode:
    """An autonomous system in the graph."""

    asn: int
    prefixes: List[Prefix] = field(default_factory=list)
    tier: Optional[int] = None

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"invalid AS number {self.asn}")

    @property
    def prefix_count(self) -> int:
        """Number of prefixes originated by this AS."""
        return len(self.prefixes)


@dataclass(frozen=True)
class ASLink:
    """An undirected AS adjacency with its business relationship.

    The relationship is stored relative to the canonical (sorted) endpoint
    order: for ``CUSTOMER_PROVIDER`` the *customer* attribute names which
    endpoint pays the other.
    """

    a: int
    b: int
    relationship: Relationship
    customer: Optional[int] = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("self-loop AS links are not allowed")
        if self.relationship == Relationship.CUSTOMER_PROVIDER:
            if self.customer not in (self.a, self.b):
                raise ValueError(
                    "customer must be one of the link endpoints for a c2p link"
                )
        elif self.customer is not None:
            raise ValueError("peer-peer links have no customer endpoint")

    @property
    def endpoints(self) -> Tuple[int, int]:
        """The link endpoints in canonical order."""
        return canonical_link(self.a, self.b)

    @property
    def provider(self) -> Optional[int]:
        """The provider endpoint for c2p links, ``None`` for p2p."""
        if self.relationship != Relationship.CUSTOMER_PROVIDER:
            return None
        return self.b if self.customer == self.a else self.a

    def other(self, asn: int) -> int:
        """Return the endpoint that is not ``asn``."""
        if asn == self.a:
            return self.b
        if asn == self.b:
            return self.a
        raise ValueError(f"AS {asn} is not an endpoint of {self.endpoints}")

    def relationship_from(self, asn: int) -> str:
        """Relationship as seen from ``asn``: 'customer', 'provider' or 'peer'.

        The returned label describes what the *other* endpoint is to ``asn``:
        e.g. ``"customer"`` means the neighbor across this link is a customer
        of ``asn``.
        """
        if self.relationship == Relationship.PEER_PEER:
            return "peer"
        if asn == self.provider:
            return "customer"
        if asn == self.customer:
            return "provider"
        raise ValueError(f"AS {asn} is not an endpoint of {self.endpoints}")


class ASGraph:
    """An undirected AS-level graph with relationships and originated prefixes."""

    def __init__(self) -> None:
        self._nodes: Dict[int, ASNode] = {}
        self._links: Dict[Tuple[int, int], ASLink] = {}
        self._adjacency: Dict[int, Set[int]] = {}
        # Each AS's neighbours by what they are to it ("customer",
        # "provider", "peer"), in ``_adjacency`` iteration order: derived on
        # the first query and dropped for both endpoints whenever a link
        # comes or goes, so the relationship queries of a routing
        # computation are list copies.
        self._neighbours: Dict[int, Dict[str, List[int]]] = {}

    # -- construction ------------------------------------------------------

    def add_as(self, asn: int, prefixes: Optional[Sequence[Prefix]] = None) -> ASNode:
        """Add an AS (idempotent); optionally extend its originated prefixes."""
        node = self._nodes.get(asn)
        if node is None:
            node = ASNode(asn=asn)
            self._nodes[asn] = node
            self._adjacency[asn] = set()
        if prefixes:
            node.prefixes.extend(prefixes)
        return node

    def add_link(
        self,
        a: int,
        b: int,
        relationship: Relationship = Relationship.PEER_PEER,
        customer: Optional[int] = None,
    ) -> ASLink:
        """Add an undirected link; both endpoints are created if missing."""
        self.add_as(a)
        self.add_as(b)
        link = ASLink(a=a, b=b, relationship=relationship, customer=customer)
        key = canonical_link(a, b)
        if key in self._links:
            raise ValueError(f"link {key} already exists")
        self._links[key] = link
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._forget_neighbours(a, b)
        return link

    def add_customer_provider(self, customer: int, provider: int) -> ASLink:
        """Add a customer-provider link (``customer`` pays ``provider``)."""
        return self.add_link(
            customer, provider, Relationship.CUSTOMER_PROVIDER, customer=customer
        )

    def add_peering(self, a: int, b: int) -> ASLink:
        """Add a settlement-free peering link."""
        return self.add_link(a, b, Relationship.PEER_PEER)

    def remove_link(self, a: int, b: int) -> ASLink:
        """Remove a link (used to inject failures); returns the removed link."""
        key = canonical_link(a, b)
        link = self._links.pop(key, None)
        if link is None:
            raise KeyError(key)
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)
        self._forget_neighbours(a, b)
        return link

    def restore_link(self, link: ASLink) -> None:
        """Re-insert a previously removed link (failure repair)."""
        key = link.endpoints
        if key in self._links:
            raise ValueError(f"link {key} already present")
        self._links[key] = link
        self._adjacency[link.a].add(link.b)
        self._adjacency[link.b].add(link.a)
        self._forget_neighbours(link.a, link.b)

    def _forget_neighbours(self, a: int, b: int) -> None:
        self._neighbours.pop(a, None)
        self._neighbours.pop(b, None)

    # -- queries -----------------------------------------------------------

    def node(self, asn: int) -> ASNode:
        """Return the node for ``asn`` (KeyError if unknown)."""
        return self._nodes[asn]

    def has_as(self, asn: int) -> bool:
        """True if the AS exists in the graph."""
        return asn in self._nodes

    def has_link(self, a: int, b: int) -> bool:
        """True if the (undirected) link exists."""
        return canonical_link(a, b) in self._links

    def link(self, a: int, b: int) -> ASLink:
        """Return the link between ``a`` and ``b`` (KeyError if absent)."""
        return self._links[canonical_link(a, b)]

    def neighbors(self, asn: int) -> FrozenSet[int]:
        """The ASes adjacent to ``asn``."""
        return frozenset(self._adjacency.get(asn, frozenset()))

    def degree(self, asn: int) -> int:
        """Number of AS links incident to ``asn``."""
        return len(self._adjacency.get(asn, ()))

    def customers_of(self, asn: int) -> List[int]:
        """Neighboring ASes that are customers of ``asn``."""
        return self._neighbours_of(asn, "customer")

    def providers_of(self, asn: int) -> List[int]:
        """Neighboring ASes that are providers of ``asn``."""
        return self._neighbours_of(asn, "provider")

    def peers_of(self, asn: int) -> List[int]:
        """Neighboring ASes in a settlement-free peering with ``asn``."""
        return self._neighbours_of(asn, "peer")

    def _neighbours_of(self, asn: int, relationship: str) -> List[int]:
        by_relationship = self._neighbours.get(asn)
        if by_relationship is None:
            by_relationship = {"customer": [], "provider": [], "peer": []}
            for other in self._adjacency.get(asn, ()):
                by_relationship[self.link(asn, other).relationship_from(asn)].append(other)
            self._neighbours[asn] = by_relationship
        return list(by_relationship[relationship])

    def ases(self) -> List[int]:
        """All AS numbers, sorted."""
        return sorted(self._nodes)

    def nodes(self) -> Iterator[ASNode]:
        """Iterate over all AS nodes."""
        return iter(self._nodes.values())

    def links(self) -> Iterator[ASLink]:
        """Iterate over all AS links."""
        return iter(self._links.values())

    def link_keys(self) -> List[Tuple[int, int]]:
        """All link endpoint pairs in canonical order, sorted."""
        return sorted(self._links)

    @property
    def as_count(self) -> int:
        """Number of ASes."""
        return len(self._nodes)

    @property
    def link_count(self) -> int:
        """Number of AS links."""
        return len(self._links)

    @property
    def average_degree(self) -> float:
        """Average node degree (2 * links / nodes)."""
        if not self._nodes:
            return 0.0
        return 2.0 * len(self._links) / len(self._nodes)

    def total_prefix_count(self) -> int:
        """Total number of prefixes originated across all ASes."""
        return sum(node.prefix_count for node in self._nodes.values())

    def origin_of(self, prefix: Prefix) -> Optional[int]:
        """Return the AS originating ``prefix`` (linear scan; cached by callers)."""
        for node in self._nodes.values():
            if prefix in node.prefixes:
                return node.asn
        return None

    def is_connected(self) -> bool:
        """True when the graph is a single connected component."""
        if not self._nodes:
            return True
        start = next(iter(self._nodes))
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return len(seen) == len(self._nodes)

    def copy(self) -> "ASGraph":
        """Deep-ish copy (nodes share prefix objects, which are immutable)."""
        clone = ASGraph()
        for node in self._nodes.values():
            new_node = clone.add_as(node.asn, list(node.prefixes))
            new_node.tier = node.tier
        for link in self._links.values():
            clone.add_link(link.a, link.b, link.relationship, link.customer)
        return clone
