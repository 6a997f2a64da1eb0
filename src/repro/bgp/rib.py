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
    """A stored route: an attribute object and the peer that announced it.

    Each :class:`AdjRibIn` keeps one route per attribute object and shares it
    among every prefix the peer announced with those attributes, so a route
    carries no prefix: ``prefix_count`` counts the prefixes that point at it,
    and the route leaves its session's intern table with the last one.
    Within a session identity is equality — two routes of one peer with the
    same attribute object are the same object — so the class defines no
    value ``__eq__`` or ``__hash__``.  A plain ``__slots__`` class; treat
    ``attributes`` and ``peer_as`` as immutable.
    """

    __slots__ = ("attributes", "peer_as", "prefix_count")

    def __init__(self, attributes: PathAttributes, peer_as: int) -> None:
        self.attributes = attributes
        self.peer_as = peer_as
        self.prefix_count = 0

    def __repr__(self) -> str:
        return f"RibEntry(attributes={self.attributes!r}, peer_as={self.peer_as})"

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

    A ``__slots__`` class for construction speed on the replay hot path,
    compared by identity; treat instances as immutable.
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

    def __repr__(self) -> str:
        return (
            f"RouteChange(kind={self.kind!r}, prefix={self.prefix!r}, "
            f"old={self.old!r}, new={self.new!r})"
        )


class AdjRibIn:
    """Per-peer RIB holding the routes announced on one session.

    Mirrors the RIB a border router maintains per eBGP neighbor: the route
    table is the only state kept current on announce/withdraw.  It maps
    prefix -> a route shared by every prefix announced with the same
    attribute object: the table interns one :class:`RibEntry` per attribute
    object (by identity — both parse paths intern attribute objects, so
    path-sharing prefixes share one), counts its prefixes, and forgets it
    with its last prefix.  The link
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
        # id(attributes) -> the route of those attributes, while a prefix
        # holds it (the route keeps the attribute object, so its id is not
        # reused in the meantime).
        self._interned: Dict[int, RibEntry] = {}

    # -- mutation ---------------------------------------------------------

    def _store(self, prefix: Prefix, attributes: PathAttributes) -> Optional[RibEntry]:
        """Point ``prefix`` at the shared route of ``attributes``.

        Returns the route the prefix held before, or ``None``.  Every entry
        family stores through here: :meth:`announce`, the session's
        per-message path and the speaker's column walk.
        """
        route = self._interned.get(id(attributes))
        if route is None:
            route = self._interned[id(attributes)] = RibEntry(attributes, self.peer_as)
        route.prefix_count += 1
        routes = self._routes
        old = routes.get(prefix)
        routes[prefix] = route
        if old is not None:
            old.prefix_count -= 1
            if not old.prefix_count:
                del self._interned[id(old.attributes)]
        return old

    def _drop(self, prefix: Prefix) -> Optional[RibEntry]:
        """Remove the route of ``prefix``; return it, or ``None`` if it had none."""
        old = self._routes.pop(prefix, None)
        if old is not None:
            old.prefix_count -= 1
            if not old.prefix_count:
                del self._interned[id(old.attributes)]
        return old

    def announce(self, prefix: Prefix, attributes: PathAttributes) -> RouteChange:
        """Install or replace the route for ``prefix``."""
        old = self._store(prefix, attributes)
        kind = RouteChangeKind.UPDATED if old is not None else RouteChangeKind.NEW
        return RouteChange(kind, prefix, old, self._routes[prefix])

    def withdraw(self, prefix: Prefix) -> RouteChange:
        """Remove the route for ``prefix`` if present."""
        old = self._drop(prefix)
        if old is None:
            return RouteChange(RouteChangeKind.UNCHANGED, prefix)
        return RouteChange(RouteChangeKind.WITHDRAWN, prefix, old)

    def withdraw_all(self) -> List[RouteChange]:
        """Remove every route (session reset), each reported as withdrawn."""
        withdrawn = RouteChangeKind.WITHDRAWN
        changes = [
            RouteChange(withdrawn, prefix, old) for prefix, old in self._routes.items()
        ]
        # In place, never rebound: the speaker's Loc-RIB reads this dict.
        self._routes.clear()
        self._interned.clear()
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

    def items(self) -> Iterator[Tuple[Prefix, RibEntry]]:
        """Iterate over ``(prefix, route)`` pairs; a shared route repeats."""
        return iter(self._routes.items())

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

    def set_best(self, prefix: Prefix, route: Optional[RibEntry]) -> None:
        """Install ``route`` as the best route of ``prefix`` (clear it on ``None``)."""
        if route is None:
            removed = self._best.pop(prefix, None)
            if removed is not None and self._best_trie is not None:
                self._best_trie.remove(prefix)
        else:
            self._best[prefix] = route
            if self._best_trie is not None:
                self._best_trie.insert(prefix, route)

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

    def best_entries(self) -> Iterator[Tuple[Prefix, RibEntry]]:
        """Iterate over ``(prefix, best route)`` pairs."""
        self.settle()
        return iter(self._best.items())

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
