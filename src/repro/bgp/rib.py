"""Routing Information Bases.

A SWIFTED router needs, per peering session, the set of prefixes currently
reachable and their AS paths: that is the Adj-RIB-In.  The Loc-RIB stores the
outcome of the decision process across all sessions, which is what the SWIFT
encoding algorithm reads to compute tags (the "best AS paths" column in
Fig. 5 of the paper).
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.prefix import Prefix
from repro.bgp.trie import PrefixTrie

__all__ = ["AdjRibIn", "LocRib", "RibEntry", "RouteChange", "RouteChangeKind"]


class RibEntry:
    """A route stored in a RIB: a prefix with its attributes and source peer.

    A plain ``__slots__`` class rather than a dataclass: one entry is built
    per announcement on the replay hot path, and a frozen dataclass pays an
    ``object.__setattr__`` per field per construction.  Treat instances as
    immutable all the same.
    """

    __slots__ = ("prefix", "attributes", "peer_as", "learned_at")

    def __init__(
        self,
        prefix: Prefix,
        attributes: PathAttributes,
        peer_as: int,
        learned_at: float = 0.0,
    ) -> None:
        self.prefix = prefix
        self.attributes = attributes
        self.peer_as = peer_as
        self.learned_at = learned_at

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RibEntry):
            return NotImplemented
        return (
            self.prefix == other.prefix
            and self.attributes == other.attributes
            and self.peer_as == other.peer_as
            and self.learned_at == other.learned_at
        )

    def __hash__(self) -> int:
        return hash((self.prefix, self.attributes, self.peer_as, self.learned_at))

    def __repr__(self) -> str:
        return (
            f"RibEntry(prefix={self.prefix!r}, attributes={self.attributes!r}, "
            f"peer_as={self.peer_as}, learned_at={self.learned_at})"
        )

    @property
    def as_path(self) -> ASPath:
        """Shortcut to the entry's AS path."""
        return self.attributes.as_path

    @property
    def next_hop(self) -> int:
        """Shortcut to the entry's next hop (an AS number in our model)."""
        return self.attributes.next_hop


class RouteChangeKind(Enum):
    """What happened to the best route for a prefix after an input event."""

    NEW = "new"
    UPDATED = "updated"
    WITHDRAWN = "withdrawn"
    UNCHANGED = "unchanged"


class RouteChange:
    """Result of feeding one announcement/withdrawal through a RIB.

    Like :class:`RibEntry`, a ``__slots__`` class for construction speed on
    the replay hot path; treat instances as immutable.
    """

    __slots__ = ("kind", "prefix", "old", "new")

    def __init__(
        self,
        kind: RouteChangeKind,
        prefix: Prefix,
        old: Optional[RibEntry] = None,
        new: Optional[RibEntry] = None,
    ) -> None:
        self.kind = kind
        self.prefix = prefix
        self.old = old
        self.new = new

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RouteChange):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.prefix == other.prefix
            and self.old == other.old
            and self.new == other.new
        )

    def __repr__(self) -> str:
        return (
            f"RouteChange(kind={self.kind!r}, prefix={self.prefix!r}, "
            f"old={self.old!r}, new={self.new!r})"
        )


class AdjRibIn:
    """Per-peer RIB holding the routes announced on one session.

    Mirrors the RIB a border router maintains per eBGP neighbor: the route
    table is the only state kept current on announce/withdraw.  The link
    queries (:meth:`prefixes_via_link`, :meth:`link_prefix_counts`, ...)
    scan that table — they serve tests and tooling.  SWIFT's Path Share metric
    P(l, t) is *not* answered from here: the inference engine maintains its
    own burst-aware :class:`~repro.core.fit_score.LinkPrefixIndex`, which
    interns the session's routes by AS path (one group of prefixes per
    distinct path, link -> groups) and is kept in sync per message.
    """

    def __init__(self, peer_as: int) -> None:
        self.peer_as = peer_as
        self._routes: Dict[Prefix, RibEntry] = {}

    # -- mutation ---------------------------------------------------------

    def announce(
        self, prefix: Prefix, attributes: PathAttributes, timestamp: float = 0.0
    ) -> RouteChange:
        """Install or replace the route for ``prefix``."""
        old = self._routes.get(prefix)
        entry = RibEntry(
            prefix=prefix,
            attributes=attributes,
            peer_as=self.peer_as,
            learned_at=timestamp,
        )
        self._routes[prefix] = entry
        kind = RouteChangeKind.UPDATED if old is not None else RouteChangeKind.NEW
        return RouteChange(kind=kind, prefix=prefix, old=old, new=entry)

    def withdraw(self, prefix: Prefix, timestamp: float = 0.0) -> RouteChange:
        """Remove the route for ``prefix`` if present."""
        old = self._routes.pop(prefix, None)
        if old is None:
            return RouteChange(kind=RouteChangeKind.UNCHANGED, prefix=prefix)
        return RouteChange(kind=RouteChangeKind.WITHDRAWN, prefix=prefix, old=old)

    def withdraw_all(self) -> List[RouteChange]:
        """Remove every route (session reset), each reported as withdrawn."""
        withdrawn = RouteChangeKind.WITHDRAWN
        changes = [
            RouteChange(withdrawn, prefix, old) for prefix, old in self._routes.items()
        ]
        # In place, never rebound: the speaker's Loc-RIB reads this dict.
        self._routes.clear()
        return changes

    # -- queries ----------------------------------------------------------

    def get(self, prefix: Prefix) -> Optional[RibEntry]:
        """Return the route for ``prefix`` or ``None``."""
        return self._routes.get(prefix)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._routes

    def __len__(self) -> int:
        return len(self._routes)

    def __iter__(self) -> Iterator[Prefix]:
        return iter(self._routes)

    def prefixes(self) -> Iterator[Prefix]:
        """Iterate over all prefixes with a route."""
        return iter(self._routes)

    def entries(self) -> Iterator[RibEntry]:
        """Iterate over all stored routes."""
        return iter(self._routes.values())

    def prefixes_via_link(self, link: Tuple[int, int]) -> frozenset:
        """Prefixes whose current AS path traverses the (undirected) link."""
        return frozenset(
            prefix
            for prefix, entry in self._routes.items()
            if entry.as_path.traverses(link)
        )

    def prefix_count_via_link(self, link: Tuple[int, int]) -> int:
        """Number of prefixes currently routed over the link."""
        return len(self.prefixes_via_link(link))

    def links(self) -> Iterator[Tuple[int, int]]:
        """Iterate over every AS link traversed by at least one route."""
        return iter(self.link_prefix_counts())

    def link_prefix_counts(self) -> Dict[Tuple[int, int], int]:
        """Snapshot mapping link -> number of prefixes routed over it."""
        counts: Dict[Tuple[int, int], int] = {}
        for entry in self._routes.values():
            # set(): a looped path crosses a link twice, the prefix counts once.
            for link in set(entry.as_path.links()):
                counts[link] = counts.get(link, 0) + 1
        return counts


class LocRib:
    """The router-wide best-route table, and a view over every session's routes.

    Stores, per prefix, the best entry chosen by the decision process.  The
    candidate entries (one per peer announcing the prefix) are not copied:
    they are read through a registry of the sessions' Adj-RIB-In route
    tables, in session order.  The candidates are what SWIFT mines for
    backup next-hops: "the AS paths received from AS 4 also uses (5, 6)"
    reasoning in §5 requires knowing all the alternatives, not only the best
    one.

    Best routes are selected on read.  A speaker with no best-route listener
    only marks the prefixes its calls touched (:meth:`mark_stale`); every read
    of the best table — :meth:`best`, :meth:`best_entries`, :meth:`prefixes`,
    ``len()``, ``in``, :meth:`best_trie` and :meth:`best_lookup` — first
    settles the whole stale set with one call of ``select``, the owning
    speaker's re-selection.  So a read answers what an eagerly selecting
    speaker would, and a prefix touched by many calls between two reads is
    selected once.  The candidate reads (:meth:`candidates`,
    :meth:`candidate_map`) read the sessions' tables and never settle.
    """

    def __init__(self, select: Callable[[List[Prefix]], None]) -> None:
        self._best: Dict[Prefix, RibEntry] = {}
        # Prefixes whose best route may be out of date, in first-touch order
        # (a dict as an ordered set), and the selection that settles them.
        self._stale: Dict[Prefix, None] = {}
        self._select = select
        # peer -> that session's AdjRibIn._routes, in session order.  The
        # tables are shared, not copied: AdjRibIn keeps one dict for its life.
        self._tables: Dict[int, Dict[Prefix, RibEntry]] = {}
        # Their ``get`` methods, in the same order: one probe per session.
        self._getters: List[Callable[[Prefix], Optional[RibEntry]]] = []
        # LPM view over _best, built lazily on the first longest-prefix
        # query (bulk-loaded from the sorted best table) and maintained
        # incrementally afterwards; None until then, so a router that never
        # asks LPM questions pays nothing.
        self._best_trie: Optional[PrefixTrie[RibEntry]] = None

    # -- mutation ---------------------------------------------------------

    def add_source(self, rib_in: AdjRibIn) -> None:
        """Read ``rib_in``'s routes as the candidates of its peer."""
        self._tables[rib_in.peer_as] = rib_in._routes
        self._getters = [routes.get for routes in self._tables.values()]

    def remove_source(self, peer_as: int) -> None:
        """Stop reading the routes of ``peer_as``."""
        del self._tables[peer_as]
        self._getters = [routes.get for routes in self._tables.values()]

    def set_best(self, entry: Optional[RibEntry], prefix: Optional[Prefix] = None) -> None:
        """Install ``entry`` as best route (or clear it when ``entry`` is None)."""
        if entry is None:
            if prefix is None:
                raise ValueError("prefix required when clearing a best route")
            removed = self._best.pop(prefix, None)
            if removed is not None and self._best_trie is not None:
                self._best_trie.remove(prefix)
        else:
            self._best[entry.prefix] = entry
            if self._best_trie is not None:
                self._best_trie.insert(entry.prefix, entry)

    def mark_stale(self, prefixes: Iterable[Prefix]) -> None:
        """Leave the best routes of ``prefixes`` to be selected on the next read."""
        self._stale.update(dict.fromkeys(prefixes))

    def settle(self) -> None:
        """Select the best route of every stale prefix, in first-touch order."""
        stale = self._stale
        if stale:
            self._stale = {}
            self._select(list(stale))

    # -- queries ----------------------------------------------------------

    def best(self, prefix: Prefix) -> Optional[RibEntry]:
        """Return the best route for ``prefix`` or ``None``."""
        if self._stale:
            self.settle()
        return self._best.get(prefix)

    def candidates(self, prefix: Prefix) -> List[RibEntry]:
        """All candidate routes for ``prefix``, in session order."""
        found = []
        for get in self._getters:
            entry = get(prefix)
            if entry is not None:
                found.append(entry)
        return found

    def candidate_map(self, prefix: Prefix) -> Dict[int, RibEntry]:
        """The peer -> candidate mapping of ``prefix``, in session order."""
        found = {}
        for peer, routes in self._tables.items():
            entry = routes.get(prefix)
            if entry is not None:
                found[peer] = entry
        return found

    def best_entries(self) -> Iterator[RibEntry]:
        """Iterate over all best routes."""
        self.settle()
        return iter(self._best.values())

    def prefixes(self) -> Iterator[Prefix]:
        """Iterate over prefixes that have a best route."""
        self.settle()
        return iter(self._best)

    def __len__(self) -> int:
        self.settle()
        return len(self._best)

    def __contains__(self, prefix: Prefix) -> bool:
        if self._stale:
            self.settle()
        return prefix in self._best

    def best_trie(self) -> PrefixTrie[RibEntry]:
        """The LPM view over the best-route table (built lazily, kept live).

        First call bulk-loads the compressed trie from the sorted best
        table; :meth:`set_best` keeps it incrementally in sync afterwards.
        """
        self.settle()
        trie = self._best_trie
        if trie is None:
            trie = PrefixTrie()
            trie.build_from_sorted(sorted(self._best.items()))
            self._best_trie = trie
        return trie

    def best_lookup(self, address: int) -> Optional[RibEntry]:
        """Longest-prefix-match best route for a 32-bit destination address."""
        match = self.best_trie().lookup(address)
        return match[1] if match is not None else None
