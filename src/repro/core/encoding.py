"""The SWIFT data-plane tag encoding algorithm (§5).

Every packet entering a SWIFTED router receives a fixed-width tag (48 bits by
default, carried in the destination MAC).  The tag has two parts:

* **Part 1 — AS links traversed.**  For each AS-path *position* (position 1
  is the link between the primary next-hop and the following AS; the link
  between the router and its neighbor needs no encoding since it is implied
  by the primary next-hop), a dedicated group of bits identifies which AS
  link the packet's current best path crosses at that position.  Only links
  carrying at least ``prefix_threshold`` prefixes (1,500 in the paper) and
  appearing within the first ``backup_depth`` positions are encoded; the
  encoder allocates identifiers greedily, heaviest links first, until the
  part-1 bit budget is exhausted.

* **Part 2 — next-hops.**  One group identifies the primary next-hop and
  group ``d`` (1 to ``backup_depth``) the backup next-hop of the path's
  position-``d`` link.  With 48-bit tags, 18 bits of part 1 and depth 4
  this yields 30 / 5 = 6 bits per group, i.e. 64 distinct next-hops (§5,
  "Partitioning bits").

``backup_depth`` is the one protection depth: part 1 encodes the positions
part 2 carries a backup for, and the router protects exactly those links
(:class:`~repro.core.backup.BackupComputer`).  Upon an inference "link ``l``
failed at position ``d``", the router installs a single wildcard rule per
backup next-hop: match packets whose position-``d`` group equals the
identifier of ``l`` *and* whose depth-``d`` backup group equals that
next-hop, and forward them to it — rerouting every affected prefix at once,
regardless of how many there are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix

__all__ = ["EncodedTags", "EncoderConfig", "TagEncoder", "TagLayout", "WildcardRule"]

Link = Tuple[int, int]


def _canonical(link: Link) -> Link:
    return link if link[0] <= link[1] else (link[1], link[0])


@dataclass(frozen=True)
class EncoderConfig:
    """Bit budget and thresholds of the encoding (paper defaults)."""

    total_bits: int = 48
    path_bits: int = 18
    backup_depth: int = 4
    prefix_threshold: int = 1500

    def __post_init__(self) -> None:
        if self.total_bits <= 0:
            raise ValueError("total_bits must be positive")
        if not 0 < self.path_bits < self.total_bits:
            raise ValueError("path_bits must be positive and below total_bits")
        if self.backup_depth < 1:
            raise ValueError("backup_depth must be at least 1")
        if self.prefix_threshold < 0:
            raise ValueError("prefix_threshold must be non-negative")

    @property
    def nexthop_bits(self) -> int:
        """Bits left for part 2 (primary + backups)."""
        return self.total_bits - self.path_bits

    @property
    def nexthop_groups(self) -> int:
        """Number of next-hop groups: one primary plus one per protected depth."""
        return 1 + self.backup_depth

    @property
    def bits_per_nexthop(self) -> int:
        """Bits per next-hop group (identifier 0 is reserved for "none")."""
        return self.nexthop_bits // self.nexthop_groups

    @property
    def max_next_hops(self) -> int:
        """How many distinct next-hops each group can name (0 is reserved)."""
        return (1 << self.bits_per_nexthop) - 1


@dataclass(frozen=True)
class WildcardRule:
    """A ternary match on the tag: ``(tag & mask) == value``."""

    value: int
    mask: int
    next_hop: int
    description: str = ""

    def matches(self, tag: int) -> bool:
        """Whether a concrete tag matches this rule."""
        return (tag & self.mask) == self.value


@dataclass
class TagLayout:
    """Where each bit group lives inside the tag.

    Groups are described as ``(shift, width)`` pairs: the group's value is
    ``(tag >> shift) & ((1 << width) - 1)``.  Part 1 occupies the high bits
    (position 1 first), part 2 the low bits (primary group first, then backup
    groups by increasing depth).
    """

    total_bits: int
    position_groups: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    primary_group: Tuple[int, int] = (0, 0)
    backup_groups: Dict[int, Tuple[int, int]] = field(default_factory=dict)

    def extract(self, tag: int, shift: int, width: int) -> int:
        """Extract a group's value from a concrete tag."""
        return (tag >> shift) & ((1 << width) - 1)


@dataclass
class EncodedTags:
    """The result of running the encoder over a RIB snapshot.

    ``link_loads``, ``eligible_loads``, ``next_hop_counts`` and
    ``fully_encoded`` carry the encoder's working state forward so that a
    later :meth:`TagEncoder.encode_delta` can re-encode only the prefixes
    whose routes changed.  That call patches this object *in place* — the
    same ``link_loads`` dict, a few entries changed — so a warm
    re-provision never copies a table-sized structure.

    ``tags`` is the forwarding table's stage 1 itself:
    :meth:`~repro.dataplane.fib.TwoStageForwardingTable.load_tags` adopts
    the dict :meth:`TagEncoder.encode` built, and from then on that table's
    :meth:`~repro.dataplane.fib.TwoStageForwardingTable.update_tags` is its
    only writer.  ``encode_delta`` does not write ``tags``; it returns the
    stage-1 patch for ``update_tags`` to apply, so a caller that runs it
    without a forwarding table must apply the patch itself to keep ``tags``
    current.  Do not write ``tags`` directly once a table holds it: the
    table's per-length counts and probes follow ``update_tags`` alone.

    ``eligible_loads`` is the subset of ``link_loads`` at or above
    ``config.prefix_threshold``: the only entries the identifier allocation
    reads, tens where ``link_loads`` holds thousands.
    """

    config: EncoderConfig
    layout: TagLayout
    tags: Dict[Prefix, int]
    link_ids: Dict[int, Dict[Link, int]]
    next_hop_ids: Dict[int, int]
    encoded_prefix_count: int
    link_loads: Dict[Tuple[Link, int], int] = field(default_factory=dict)
    eligible_loads: Dict[Tuple[Link, int], int] = field(default_factory=dict)
    next_hop_counts: Dict[int, int] = field(default_factory=dict)
    fully_encoded: Set[Prefix] = field(default_factory=set)

    @property
    def skipped_links(self) -> List[Tuple[Link, int, int]]:
        """Threshold-eligible ``(link, position, load)`` the bit budget
        rejected, heaviest first.  Computed on demand: a report, not state."""
        link_ids = self.link_ids
        return [
            (link, position, load)
            for (link, position), load in sorted(
                self.eligible_loads.items(), key=lambda item: -item[1]
            )
            if link not in link_ids.get(position, ())
        ]

    @property
    def encoded_links(self) -> FrozenSet[Tuple[Link, int]]:
        """Every (link, position) pair that received an identifier."""
        pairs: Set[Tuple[Link, int]] = set()
        for position, mapping in self.link_ids.items():
            for link in mapping:
                pairs.add((link, position))
        return frozenset(pairs)

    def is_encoded(self, link: Link, position: int) -> bool:
        """Whether ``link`` at ``position`` can be matched by a tag rule."""
        return _canonical(link) in self.link_ids.get(position, {})


class TagEncoder:
    """Builds SWIFT tags from a RIB snapshot and a backup table."""

    def __init__(self, config: Optional[EncoderConfig] = None) -> None:
        self.config = config or EncoderConfig()

    # -- public API ----------------------------------------------------------

    def encode(
        self,
        best_paths: Mapping[Prefix, ASPath],
        backups: Optional[Mapping[Prefix, Mapping[Link, int]]] = None,
        neighbors: Optional[Sequence[int]] = None,
    ) -> EncodedTags:
        """Compute the tag of every prefix.

        Parameters
        ----------
        best_paths:
            The Loc-RIB: prefix -> best AS path (neighbor first, origin last).
        backups:
            Optional backups, prefix -> protected link -> backup next hop
            (a router hands each prefix its
            :attr:`~repro.core.backup.BackupProfile.next_hops`).  When
            omitted, part 2 only carries the primary next-hop.
        neighbors:
            Optional explicit next-hop universe; defaults to every next-hop
            seen in ``best_paths`` and ``backups``.
        """
        config = self.config
        backups = backups or {}

        link_loads = self._link_loads(best_paths)
        floor = self._eligibility_floor()
        eligible_loads = {key: load for key, load in link_loads.items() if load >= floor}
        link_ids = self._allocate_link_ids(eligible_loads)
        layout = self._build_layout(link_ids)
        next_hop_counts = self._next_hop_counts(best_paths, backups, neighbors)
        next_hop_ids = self._ids_from_counts(next_hop_counts)

        tags: Dict[Prefix, int] = {}
        fully: Set[Prefix] = set()
        no_backups: Mapping[Link, int] = {}
        for prefix, path in best_paths.items():
            tag, fully_encoded = self._tag_for(
                path, backups.get(prefix, no_backups), link_ids, next_hop_ids, layout
            )
            tags[prefix] = tag
            if fully_encoded:
                fully.add(prefix)

        return EncodedTags(
            config=config,
            layout=layout,
            tags=tags,
            link_ids=link_ids,
            next_hop_ids=next_hop_ids,
            encoded_prefix_count=len(fully),
            link_loads=link_loads,
            eligible_loads=eligible_loads,
            next_hop_counts=next_hop_counts,
            fully_encoded=fully,
        )

    def encode_delta(
        self,
        previous: EncodedTags,
        changes: Sequence[
            Tuple[
                Prefix,
                Optional[ASPath],
                Optional[ASPath],
                Mapping[Link, int],
                Mapping[Link, int],
            ]
        ],
        neighbors: Optional[Sequence[int]] = None,
    ) -> Optional[Dict[Prefix, Optional[int]]]:
        """Re-encode the changed prefixes only and return the stage-1 patch.

        ``previous``'s encoder state is patched in place; its ``tags`` are
        not (see :class:`EncodedTags`).

        ``changes`` carries one entry per prefix whose best route or backups
        changed since ``previous`` was produced: ``(prefix, old_path,
        new_path, old_backups, new_backups)`` with ``None`` paths meaning
        absent and the backups as protected link -> backup next hop.

        Check, then commit.  The route deltas are first gathered per
        ``(link, position)`` and per next hop without touching ``previous``;
        the two identifier allocations are then re-derived from them — the
        link one only when a changed key is or becomes threshold-eligible,
        and then over ``eligible_loads`` alone; the next-hop one only when a
        count moved, over the router's neighbors.  When either allocation
        would land elsewhere the result is ``None``, ``previous`` is exactly
        as it was, and the caller must run a full :meth:`encode`.  Otherwise
        the deltas are committed to ``previous.link_loads`` /
        ``eligible_loads`` / ``next_hop_counts`` / ``fully_encoded``, and the
        result is ``{prefix: new tag or None}`` for the prefixes whose tag
        changed — the stage-1 patch.  ``previous.tags`` is left to the
        patch's one writer, the forwarding table's
        :meth:`~repro.dataplane.fib.TwoStageForwardingTable.update_tags`
        (stage 1 *is* that dict).  The cost is O(changed prefixes) plus the
        allocation checks; nothing table-sized is copied, sorted or scanned.
        """
        depth = self.config.backup_depth
        load_delta: Dict[Tuple[Link, int], int] = {}
        count_delta: Dict[int, int] = {}
        for _, old_path, new_path, old_backups, new_backups in changes:
            if old_path is not new_path:
                for path, step in ((old_path, -1), (new_path, 1)):
                    if path is None:
                        continue
                    for position, link in enumerate(path.links()[:depth], 1):
                        key = (link, position)
                        load_delta[key] = load_delta.get(key, 0) + step
                    first = path.first_hop
                    if first is not None:
                        count_delta[first] = count_delta.get(first, 0) + step
            for hop in old_backups.values():
                count_delta[hop] = count_delta.get(hop, 0) - 1
            for hop in new_backups.values():
                count_delta[hop] = count_delta.get(hop, 0) + 1

        # -- check: would either identifier allocation move? -------------------
        link_loads = previous.link_loads
        floor = self._eligibility_floor()
        staged_loads: Dict[Tuple[Link, int], int] = {}  # key -> load after
        eligible_loads: Optional[Dict[Tuple[Link, int], int]] = None
        for key, delta in load_delta.items():
            if not delta:
                continue
            before = link_loads.get(key, 0)
            after = before + delta
            staged_loads[key] = after
            if before >= floor or after >= floor:
                if eligible_loads is None:
                    eligible_loads = previous.eligible_loads.copy()
                if after >= floor:
                    eligible_loads[key] = after
                else:
                    del eligible_loads[key]
        if (
            eligible_loads is not None
            and self._allocate_link_ids(eligible_loads) != previous.link_ids
        ):
            return None
        next_hop_counts: Optional[Dict[int, int]] = None
        if any(count_delta.values()):
            next_hop_counts = self._patched_counts(
                previous.next_hop_counts, count_delta, neighbors or ()
            )
            if self._ids_from_counts(next_hop_counts) != previous.next_hop_ids:
                return None

        # -- commit ------------------------------------------------------------
        for key, load in staged_loads.items():
            if load > 0:
                link_loads[key] = load
            else:
                link_loads.pop(key, None)
        if eligible_loads is not None:
            previous.eligible_loads = eligible_loads
        if next_hop_counts is not None:
            previous.next_hop_counts = next_hop_counts

        link_ids, next_hop_ids, layout = previous.link_ids, previous.next_hop_ids, previous.layout
        tags, fully = previous.tags, previous.fully_encoded
        tag_patch: Dict[Prefix, Optional[int]] = {}
        for prefix, _, new_path, _, new_backups in changes:
            if new_path is None:
                if prefix in tags:
                    tag_patch[prefix] = None
                fully.discard(prefix)
                continue
            tag, fully_encoded = self._tag_for(
                new_path, new_backups, link_ids, next_hop_ids, layout
            )
            if tags.get(prefix) != tag:
                tag_patch[prefix] = tag
            if fully_encoded:
                fully.add(prefix)
            else:
                fully.discard(prefix)
        previous.encoded_prefix_count = len(fully)
        return tag_patch

    def reroute_rules(
        self,
        encoded: EncodedTags,
        link: Link,
        backups_by_next_hop: Mapping[int, int],
    ) -> List[WildcardRule]:
        """Wildcard rules rerouting all traffic crossing ``link``.

        ``backups_by_next_hop`` maps backup next-hop AS -> number of prefixes
        protecting ``link`` through it at provision time
        (:meth:`~repro.core.backup.BackupProfileIndex.next_hops`; the count
        only feeds the rule descriptions).  One rule is emitted per (position
        where the link is encoded, backup next-hop), as in §6.5; it matches
        the tags whose backup group at that position names the next-hop.
        """
        link = _canonical(link)
        rules: List[WildcardRule] = []
        for position, mapping in sorted(encoded.link_ids.items()):
            identifier = mapping.get(link)
            if identifier is None:
                continue
            shift, width = encoded.layout.position_groups[position]
            backup_shift, backup_width = encoded.layout.backup_groups[position]
            for next_hop, count in sorted(backups_by_next_hop.items()):
                next_hop_id = encoded.next_hop_ids.get(next_hop)
                if next_hop_id is None:
                    continue
                value = (identifier << shift) | (next_hop_id << backup_shift)
                mask = (((1 << width) - 1) << shift) | (
                    ((1 << backup_width) - 1) << backup_shift
                )
                rules.append(
                    WildcardRule(
                        value=value,
                        mask=mask,
                        next_hop=next_hop,
                        description=(
                            f"link {link} at position {position} -> AS {next_hop}"
                            f" ({count} prefixes)"
                        ),
                    )
                )
        return rules

    # -- internals ---------------------------------------------------------------

    def _link_loads(
        self, best_paths: Mapping[Prefix, ASPath]
    ) -> Dict[Tuple[Link, int], int]:
        """Number of prefixes crossing each (link, position) pair."""
        depth = self.config.backup_depth
        loads: Dict[Tuple[Link, int], int] = {}
        for path in best_paths.values():
            for position, link in enumerate(path.links()[:depth], 1):
                key = (link, position)
                loads[key] = loads.get(key, 0) + 1
        return loads

    def _eligibility_floor(self) -> int:
        """Smallest load that makes a (link, position) worth an identifier."""
        return max(1, self.config.prefix_threshold)

    def _allocate_link_ids(
        self, eligible_loads: Mapping[Tuple[Link, int], int]
    ) -> Dict[int, Dict[Link, int]]:
        """Greedy identifier allocation under the part-1 bit budget.

        ``eligible_loads`` holds the (link, position) loads at or above the
        prefix threshold.  Links are considered heaviest first; a link is
        accepted if, after (possibly) widening its position's bit group to
        fit one more identifier, the total width of all groups still fits
        ``path_bits``.  Identifier 0 of every group is reserved to mean
        "nothing encoded".
        """
        config = self.config
        eligible = sorted(
            ((load, link, position) for (link, position), load in eligible_loads.items()),
            key=lambda item: (-item[0], item[2], item[1]),
        )
        counts: Dict[int, int] = {}
        accepted: Dict[int, Dict[Link, int]] = {}

        def total_width(position_counts: Mapping[int, int]) -> int:
            return sum(
                _bits_needed(count + 1) for count in position_counts.values()
            )

        for load, link, position in eligible:
            trial = dict(counts)
            trial[position] = trial.get(position, 0) + 1
            if total_width(trial) > config.path_bits:
                continue
            counts = trial
            accepted.setdefault(position, {})[link] = counts[position]
        return accepted

    def _build_layout(self, link_ids: Mapping[int, Mapping[Link, int]]) -> TagLayout:
        config = self.config
        layout = TagLayout(total_bits=config.total_bits)
        # Part 1: position groups, packed from the top of the tag downwards.
        cursor = config.total_bits
        for position in sorted(link_ids):
            width = _bits_needed(len(link_ids[position]) + 1)
            cursor -= width
            layout.position_groups[position] = (cursor, width)
        # Part 2: primary group then backup groups, packed from bit 0 upwards.
        width = config.bits_per_nexthop
        layout.primary_group = (0, width)
        for depth in range(1, config.backup_depth + 1):
            layout.backup_groups[depth] = (depth * width, width)
        return layout

    def _next_hop_counts(
        self,
        best_paths: Mapping[Prefix, ASPath],
        backups: Mapping[Prefix, Mapping[Link, int]],
        neighbors: Optional[Sequence[int]],
    ) -> Dict[int, int]:
        """Usage count of every next-hop neighbor (the allocation input)."""
        counts: Dict[int, int] = {}
        if neighbors:
            for neighbor in neighbors:
                counts[neighbor] = counts.get(neighbor, 0)
        for path in best_paths.values():
            first = path.first_hop
            if first is not None:
                counts[first] = counts.get(first, 0) + 1
        for per_link in backups.values():
            for hop in per_link.values():
                counts[hop] = counts.get(hop, 0) + 1
        return counts

    def _ids_from_counts(self, counts: Mapping[int, int]) -> Dict[int, int]:
        """Assign identifiers (1..max) to next-hop neighbors, busiest first."""
        ordered = sorted(counts, key=lambda asn: (-counts[asn], asn))
        limit = self.config.max_next_hops
        return {asn: index + 1 for index, asn in enumerate(ordered[:limit])}

    @staticmethod
    def _patched_counts(
        counts: Mapping[int, int], count_delta: Mapping[int, int], neighbors: Sequence[int]
    ) -> Dict[int, int]:
        """``counts`` after ``count_delta``, as a new (neighbor-sized) dict.

        A next hop nothing uses any more keeps an entry — and with it a claim
        on an identifier — only while it is one of ``neighbors``.
        """
        patched: Dict[int, int] = {}
        for hop in (*counts, *(hop for hop in count_delta if hop not in counts)):
            count = counts.get(hop, 0) + count_delta.get(hop, 0)
            if count > 0:
                patched[hop] = count
            elif hop in neighbors:
                patched[hop] = 0
        return patched

    def _tag_for(
        self,
        path: ASPath,
        prefix_backups: Mapping[Link, int],
        link_ids: Mapping[int, Mapping[Link, int]],
        next_hop_ids: Mapping[int, int],
        layout: TagLayout,
    ) -> Tuple[int, bool]:
        tag = 0
        fully_encoded = True
        links = path.links()[: self.config.backup_depth]

        # Part 1: the link identifier of every encoded position of the path.
        position_groups = layout.position_groups
        if not position_groups:
            fully_encoded = not links
        else:
            for position, link in enumerate(links, 1):
                group = position_groups.get(position)
                if group is None:
                    fully_encoded = False
                    continue
                identifier = link_ids[position].get(link)
                if identifier is None:
                    fully_encoded = False
                    continue
                tag |= identifier << group[0]

        # Part 2: primary next-hop and per-depth backup next-hops.
        primary = path.first_hop
        if primary is not None:
            primary_id = next_hop_ids.get(primary)
            if primary_id is not None:
                tag |= primary_id << layout.primary_group[0]
            else:
                fully_encoded = False

        # Depth d carries the backup of the path's position-d link (the
        # backups are keyed by link).
        if prefix_backups:
            backup_hop = prefix_backups.get
            for depth, link in enumerate(links, 1):
                hop = backup_hop(link)
                if hop is None:
                    continue
                shift = layout.backup_groups[depth][0]
                backup_id = next_hop_ids.get(hop)
                if backup_id is None:
                    fully_encoded = False
                    continue
                tag |= backup_id << shift
        return tag, fully_encoded


def _bits_needed(distinct_values: int) -> int:
    """Bits needed to represent ``distinct_values`` distinct values."""
    if distinct_values <= 1:
        return 0
    return math.ceil(math.log2(distinct_values))
