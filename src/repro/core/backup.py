"""Backup next-hop computation and rerouting policies (§3.2, §5).

Before any outage, a SWIFTED router pre-computes, for every prefix and for
every AS link at positions 1 to ``max_depth`` of the prefix's primary path,
the next-hop to use should that link fail.  A valid backup next-hop for
(prefix, link) is a neighbor offering an alternate route for the prefix
whose AS path does not traverse the link (the Fig. 3 / §5 rule).  The
prefix's tag carries exactly these backups, one per protected depth, and a
reroute installs one rule per (encoded position, backup next-hop) of the
inferred link: the backup a rule installs is the backup the tag carries.

A backup is therefore its next hop: the data plane never reads the backup
route's AS path.  A prefix's backups are the tuple of ``(link, next_hop)``
per protected link, and a :class:`BackupProfileIndex` interns each distinct
tuple once, however many prefixes hold it.

The selection among valid candidates honours operator *rerouting policies*
(§3.2): preferences between neighbor classes (customer / peer / provider),
per-neighbor bans, and capacity caps preventing large traffic volumes from
being shifted onto low-bandwidth or nearly-saturated links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.bgp.rib import RibEntry

__all__ = [
    "BackupComputer",
    "BackupProfile",
    "BackupProfileIndex",
    "RankedAlternates",
    "ReroutingPolicy",
]

Link = Tuple[int, int]


def _canonical(link: Link) -> Link:
    return link if link[0] <= link[1] else (link[1], link[0])


@dataclass(frozen=True)
class ReroutingPolicy:
    """Operator preferences constraining backup next-hop selection.

    Attributes
    ----------
    forbidden_next_hops:
        Neighbors that must never be used as backups (e.g. expensive transit).
    preferences:
        Mapping neighbor AS -> preference value; *lower is preferred*.  Absent
        neighbors get :attr:`default_preference`.  Operators typically derive
        this from the business relationship (customer 0, peer 1, provider 2).
    capacity_limits:
        Mapping neighbor AS -> maximum number of prefixes that may be
        rerouted onto it in one SWIFT activation.  Stands in for the paper's
        bandwidth/95th-percentile concerns: prefix count is the proxy for
        traffic volume available at the control plane.
    default_preference:
        Preference used for neighbors absent from ``preferences``.
    """

    forbidden_next_hops: FrozenSet[int] = frozenset()
    preferences: Mapping[int, int] = field(default_factory=dict)
    capacity_limits: Mapping[int, int] = field(default_factory=dict)
    default_preference: int = 10

    def preference_of(self, neighbor: int) -> int:
        """Preference value of a neighbor (lower is better)."""
        return self.preferences.get(neighbor, self.default_preference)

    def allows(self, neighbor: int) -> bool:
        """Whether the neighbor may be used as a backup at all."""
        return neighbor not in self.forbidden_next_hops

    def capacity_of(self, neighbor: int) -> Optional[int]:
        """Prefix-count cap for the neighbor, or ``None`` when unlimited."""
        return self.capacity_limits.get(neighbor)


class RankedAlternates(list):
    """What :meth:`BackupComputer.rank` returns: one prefix's policy-allowed
    alternates, most preferred first.  :meth:`BackupComputer.select` takes
    the type as proof that the filter-and-sort is already done."""

    __slots__ = ()


#: One backup next hop per protected link, in link order: ``(link, next_hop)``.
Winners = Tuple[Tuple[Link, int], ...]


class BackupProfile:
    """One distinct tuple of per-link backup next hops, shared by
    ``prefix_count`` prefixes.

    ``next_hops`` (protected link -> backup next hop) is what the tag encoder
    writes for every prefix holding the profile, and what a reroute of the
    link installs for them.
    """

    __slots__ = ("winners", "next_hops", "prefix_count")

    def __init__(self, winners: Winners) -> None:
        self.winners = winners
        self.next_hops: Dict[Link, int] = dict(winners)
        self.prefix_count = 0


class BackupProfileIndex:
    """A router's backup state: ``prefix -> profile`` and
    ``link -> backup profiles protecting it``.

    Profiles are interned by value and carry their prefix count: a reroute
    reads a link's few hundred profiles instead of walking the predicted
    prefixes, and moving one prefix between profiles is O(1).
    """

    def __init__(self) -> None:
        self._interned: Dict[Winners, BackupProfile] = {}
        #: Prefix -> its profile, and protected link -> the profiles holding a
        #: backup for it (``prefix_count`` >= 1 each); read-only for callers.
        self.profile_of: Dict[Prefix, BackupProfile] = {}
        self.by_link: Dict[Link, Set[BackupProfile]] = {}

    def profile_for(self, winners: Winners) -> Optional[BackupProfile]:
        """The interned profile equal to ``winners`` (``None`` when empty)."""
        if not winners:
            return None
        profile = self._interned.get(winners)
        if profile is None:
            profile = self._interned[winners] = BackupProfile(winners)
        return profile

    def assign(self, prefix: Prefix, profile: Optional[BackupProfile]) -> None:
        """Move ``prefix`` onto ``profile``; unshared profiles leave the index."""
        old = self.profile_of.get(prefix)
        if old is profile:
            return
        if old is not None:
            old.prefix_count -= 1
            if not old.prefix_count:
                del self._interned[old.winners]
                for link in old.next_hops:
                    profiles = self.by_link[link]
                    profiles.remove(old)
                    if not profiles:
                        del self.by_link[link]
        if profile is None:
            del self.profile_of[prefix]
            return
        self.profile_of[prefix] = profile
        profile.prefix_count += 1
        if profile.prefix_count == 1:
            for link in profile.next_hops:
                self.by_link.setdefault(link, set()).add(profile)

    def next_hops(self, link: Link) -> Dict[int, int]:
        """Backup next-hop -> number of prefixes protecting ``link`` with it."""
        link = _canonical(link)
        counts: Dict[int, int] = {}
        for profile in self.by_link.get(link, ()):
            hop = profile.next_hops[link]
            counts[hop] = counts.get(hop, 0) + profile.prefix_count
        return counts


class BackupComputer:
    """Computes per-prefix, per-link backup next-hops from alternate routes.

    Parameters
    ----------
    policy:
        The operator's rerouting policy; defaults to "anything goes".
    max_depth:
        Only the links at positions 1 to ``max_depth`` of the primary AS path
        are protected: one per backup group of the tag, so a router passes
        its :attr:`~repro.core.encoding.EncoderConfig.backup_depth` (the
        paper encodes up to depth 4; farther links rarely cause large bursts
        because intermediate ASes usually know a backup, §5).
    """

    def __init__(
        self,
        policy: Optional[ReroutingPolicy] = None,
        max_depth: int = 4,
    ) -> None:
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        self.policy = policy or ReroutingPolicy()
        self.max_depth = max_depth

    # -- per-prefix computation -------------------------------------------------

    def protected_links(self, primary_path: ASPath) -> List[Link]:
        """The AS links of the primary path to protect, nearest first.

        Position 1 is the link between the primary next-hop and the
        following AS, as in the tag's part 1; the session link to the
        neighbor is implied by the primary next-hop and never protected.
        """
        return list(primary_path.links()[: self.max_depth])

    def rank(self, alternates: Sequence[RibEntry]) -> RankedAlternates:
        """The alternates of one prefix the policy allows, most preferred first.

        The order — (preference, path length, next hop), ties in input order
        — does not depend on the protected link, so one ranking serves every
        link of the prefix: the candidates valid for a link are a
        subsequence of it, in the order a per-link sort would give them.
        """
        policy = self.policy
        forbidden = policy.forbidden_next_hops
        ranked = RankedAlternates(
            entry for entry in alternates if entry.attributes.next_hop not in forbidden
        )
        if len(ranked) > 1:
            preference_of = policy.preference_of

            def key(entry: RibEntry) -> Tuple[int, int, int]:
                attributes = entry.attributes
                next_hop = attributes.next_hop
                return (preference_of(next_hop), len(attributes.as_path.asns), next_hop)

            ranked.sort(key=key)
        return ranked

    def select(
        self,
        protected_link: Link,
        alternates: Sequence[RibEntry],
        usage: Optional[Dict[int, int]] = None,
    ) -> Optional[RibEntry]:
        """Choose the best backup of one prefix for one protected link.

        Returns the winning alternate itself — its ``next_hop`` is the
        backup — or ``None``: the first entry of the
        prefix's ranking (:meth:`rank`; ``alternates`` is ranked here unless
        it already is a :class:`RankedAlternates`) that is valid for the link
        and has capacity left.  A candidate is
        valid when its AS path does not traverse the protected link (the
        Fig. 3 / §5 rule: "only AS 3 can be used as a backup next-hop, since
        the AS paths received from AS 4 also use (5, 6)").

        ``usage`` tracks how many prefixes have already been assigned to each
        neighbor during this computation; it is consulted (and updated) to
        enforce the policy's capacity limits.
        """
        protected_link = _canonical(protected_link)
        if type(alternates) is not RankedAlternates:
            alternates = self.rank(alternates)
        capacity_limits = self.policy.capacity_limits
        for entry in alternates:
            attributes = entry.attributes
            if protected_link in attributes.as_path.links():
                continue
            if usage is not None:
                next_hop = attributes.next_hop
                capacity = capacity_limits.get(next_hop)
                if capacity is not None and usage.get(next_hop, 0) >= capacity:
                    continue
                usage[next_hop] = usage.get(next_hop, 0) + 1
            return entry
        return None

    def select_winners(
        self,
        primary_path: ASPath,
        alternates: Sequence[RibEntry],
        usage: Optional[Dict[int, int]] = None,
    ) -> Winners:
        """The backup next hop of every protected link of one prefix that has one.

        ``(link, next_hop)`` per link, nearest first — the value a
        :class:`BackupProfile` interns.  The alternates are ranked once;
        each link's :meth:`select` walks that ranking for its first valid
        entry.  Which of several equally ranked entries wins cannot change
        the hop: the ranking key ends with the next hop, so entries that
        tie on it share one.
        """
        ranked = self.rank(alternates)
        select = self.select
        winners = []
        for link in self.protected_links(primary_path):
            entry = select(link, ranked, usage)
            if entry is not None:
                winners.append((link, entry.attributes.next_hop))
        return tuple(winners)

    # -- table-wide computation -------------------------------------------------

    def compute_table(
        self,
        best_routes: Mapping[Prefix, RibEntry],
        alternates_of: Callable[[Prefix], Sequence[RibEntry]],
        candidates_of: Optional[Callable[[Prefix], Mapping[int, RibEntry]]] = None,
    ) -> BackupProfileIndex:
        """Return a new :class:`BackupProfileIndex` holding the backups of every
        prefix and every protected link of its best path.

        The selection is *profile-grouped*: prefixes whose best route and
        candidates are built from the same attribute objects (the common
        case — table dumps intern attributes, so whole path-sharing prefix
        groups reference one set) rank identically for every protected
        link, because validity and preference read only the candidates' AS
        paths and next hops.  Each distinct (best profile, candidates
        profile) is therefore ranked once — ``alternates_of`` is called for
        one representative prefix per profile when ``candidates_of`` is
        given — and its interned :class:`BackupProfile` assigned to all
        member prefixes.  A cold ``provision()`` costs O(profiles x links)
        selections plus one index store per prefix.

        Policies with capacity limits keep the per-prefix
        :meth:`compute_table_reference` path: their global usage accounting
        makes selections order-dependent and inherently ungroupable.

        Parameters
        ----------
        best_routes:
            The Loc-RIB best route of each prefix.
        alternates_of:
            Callable returning the alternate candidate routes of a prefix.
            The router passes :meth:`repro.core.swifted_router.SwiftedRouter._alternates`:
            the loop-free candidates of the peers other than the best
            route's, in session order.
        candidates_of:
            Optional cheap accessor for the prefix's raw peer -> candidate
            mapping (:meth:`repro.bgp.rib.LocRib.candidate_map`).  When
            given, profile keys are built from it and the (sorting)
            ``alternates_of`` runs once per profile instead of once per
            prefix; selections are unchanged because members of a profile
            share their candidate objects, listed in session order.
        """
        index = BackupProfileIndex()
        if self.policy.capacity_limits:
            for prefix, winners in self.compute_table_reference(
                best_routes, alternates_of
            ).items():
                index.assign(prefix, index.profile_for(winners))
            return index
        # profile key -> the interned backup profile (None: no backups)
        groups: Dict[Tuple, Optional[BackupProfile]] = {}
        assign = index.assign
        for prefix, best in best_routes.items():
            key, alternates = self._profile_key(prefix, best, alternates_of, candidates_of)
            if key in groups:
                profile = groups[key]
            else:
                if alternates is None:
                    alternates = alternates_of(prefix)
                profile = groups[key] = index.profile_for(
                    self.select_winners(best.as_path, alternates)
                )
            assign(prefix, profile)
        return index

    @staticmethod
    def _profile_key(
        prefix: Prefix,
        best: RibEntry,
        alternates_of: Callable[[Prefix], Sequence[RibEntry]],
        candidates_of: Optional[Callable[[Prefix], Mapping[int, RibEntry]]],
    ) -> Tuple[Tuple, Optional[Sequence[RibEntry]]]:
        """Grouping key of a prefix's candidate profile (and its alternates,
        when the key had to fetch them): the best route and the candidate
        routes themselves, by identity.  A session shares one route among
        every prefix its peer announced with the same attribute object, so
        profiles sharing routes are exactly the groups interned table loads
        produce, and identity keys in O(1) where structural comparison would
        re-walk paths.
        """
        if candidates_of is not None:
            alternates = None
            profile = tuple(candidates_of(prefix).values())
        else:
            alternates = alternates_of(prefix)
            profile = tuple(alternates)
        return (best, profile), alternates

    def compute_table_reference(
        self,
        best_routes: Mapping[Prefix, RibEntry],
        alternates_of: Callable[[Prefix], Sequence[RibEntry]],
    ) -> Dict[Prefix, Winners]:
        """Ungrouped per-prefix selection (the pre-grouping reference):
        prefix -> its :meth:`select_winners`, for every prefix that has a
        backup.

        Kept as the always-correct path: capacity-limited policies require
        it (usage accounting is global and order-dependent), and the parity
        suite asserts :meth:`compute_table` interns exactly these tuples on
        capacity-free policies.
        """
        usage: Dict[int, int] = {}
        table: Dict[Prefix, Winners] = {}
        for prefix, best in best_routes.items():
            winners = self.select_winners(best.as_path, alternates_of(prefix), usage)
            if winners:
                table[prefix] = winners
        return table
