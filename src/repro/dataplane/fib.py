"""The SWIFT two-stage forwarding table.

The vanilla router of §2.1.2 forwards with a longest-prefix-match FIB whose
entries are installed one prefix at a time (hence the tens of seconds of
downtime for large bursts; :mod:`repro.casestudy.vanilla` models its
timing).  A SWIFTED router keeps that first stage for tagging and adds a
second stage matching on the tag; rerouting a whole burst is then a handful
of high-priority wildcard rule insertions (§3.2).

Stage 1 is an exact-match dict from prefix to tag.  A longest-prefix match
probes it once per prefix length present, longest first, with the bare
``(address & mask, length)`` tuple: a :class:`Prefix` *is* that tuple, so the
probe hashes and compares in C.  ``table_churn``'s table carries 13 lengths
and a DFZ table mostly the 17 from /8 to /24, so a lookup is at most that
many dict probes, and an update is one dict store or pop.  A router's stage 1
is its encoding's tag dict itself (:meth:`TwoStageForwardingTable.load_tags`
adopts it), so the tags are held once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.prefix import NETMASKS, Prefix
from repro.core.encoding import WildcardRule
from repro.dataplane.packet import Packet

__all__ = ["ForwardingDecision", "TwoStageForwardingTable"]


@dataclass(frozen=True)
class ForwardingDecision:
    """Outcome of forwarding one packet."""

    next_hop: Optional[int]
    matched_prefix: Optional[Prefix] = None
    matched_rule: Optional[WildcardRule] = None
    tag: Optional[int] = None

    @property
    def dropped(self) -> bool:
        """True when no entry matched (blackhole)."""
        return self.next_hop is None


def _matching_order(item: Tuple[int, int, WildcardRule]) -> Tuple[int, int]:
    """Sort key of ``(priority, sequence, rule)``: highest priority first,
    among equals the most recent first."""
    return (-item[0], -item[1])


class TwoStageForwardingTable:
    """The SWIFT two-stage table.

    Stage 1 maps a destination prefix to a tag (and is *not* touched when
    SWIFT reroutes): a dict keyed by prefix, a count of stored prefixes per
    length, and the ``(mask, length)`` probes of the present lengths, longest
    first, rebuilt only when a length appears or disappears.  Stage 2 holds
    forwarding rules matched against the tag:
    low-priority default rules forward on the primary next-hop encoded in the
    tag, and SWIFT inserts high-priority wildcard rules to reroute affected
    traffic.  Priorities are integers, higher wins; insertion order breaks
    ties (newest first), matching how a router's TCAM would be programmed.
    """

    def __init__(self) -> None:
        self._stage1: Dict[Prefix, int] = {}
        self._length_counts: List[int] = [0] * 33
        self._probes: Tuple[Tuple[int, int], ...] = ()
        self._rules: List[Tuple[int, int, WildcardRule]] = []  # (priority, seq, rule)
        self._sequence = 0
        self.stage1_updates = 0
        self.stage2_updates = 0

    # -- stage 1 -----------------------------------------------------------

    def _reprobe(self) -> None:
        """Rebuild the probes from the per-length counts, longest first."""
        counts = self._length_counts
        self._probes = tuple(
            (NETMASKS[length], length) for length in range(32, -1, -1) if counts[length]
        )

    def set_tag(self, prefix: Prefix, tag: int) -> None:
        """Associate ``tag`` with ``prefix`` in the tagging stage."""
        self.update_tags({prefix: tag})

    def load_tags(self, tags: Dict[Prefix, int]) -> None:
        """Make ``tags`` stage 1 (provisioning, not a reroute operation).

        The table adopts the dict, copying nothing: a router hands it
        :attr:`EncodedTags.tags <repro.core.encoding.EncodedTags.tags>`, and
        from then on :meth:`update_tags` and :meth:`set_tag` write into it.
        A prefix absent from ``tags`` leaves the table: its old tag was
        encoded under an identifier allocation that no longer holds.
        """
        self._stage1 = tags
        lengths = Counter(map(itemgetter(1), tags))
        self._length_counts = [lengths[length] for length in range(33)]
        self._reprobe()
        self.stage1_updates += len(tags)

    def update_tags(self, patch: Dict[Prefix, Optional[int]]) -> None:
        """Patch stage 1 in place: set or (``None``) remove individual tags.

        The incremental re-provisioning path uses this instead of reloading
        every tag, so a warm provision's forwarding update is proportional
        to the number of changed prefixes.  It is the one writer of a
        router's tags (:meth:`~repro.core.encoding.TagEncoder.encode_delta`
        only computes ``patch``), so it sees each prefix's prior presence
        and keeps the per-length counts right.
        """
        stage1 = self._stage1
        counts = self._length_counts
        reprobe = False
        for prefix, tag in patch.items():
            if tag is None:
                if stage1.pop(prefix, None) is not None:
                    length = prefix[1]
                    counts[length] -= 1
                    reprobe = reprobe or not counts[length]
            else:
                if prefix not in stage1:
                    length = prefix[1]
                    counts[length] += 1
                    reprobe = reprobe or counts[length] == 1
                stage1[prefix] = tag
        if reprobe:
            self._reprobe()
        self.stage1_updates += len(patch)

    def tag_of(self, destination: int) -> Optional[int]:
        """Tag that stage 1 would stamp on a packet for ``destination``."""
        get = self._stage1.get
        for mask, length in self._probes:
            tag = get((destination & mask, length))
            if tag is not None:
                return tag
        return None

    # -- stage 2 -----------------------------------------------------------

    def install_rule(self, rule: WildcardRule, priority: int = 0) -> None:
        """Install a stage-2 rule at the given priority."""
        self._sequence += 1
        self._rules.append((priority, self._sequence, rule))
        self._rules.sort(key=_matching_order)
        self.stage2_updates += 1

    def install_rules(self, rules: Sequence[WildcardRule], priority: int = 0) -> int:
        """Install several rules (one sort for all); returns how many."""
        for rule in rules:
            self._sequence += 1
            self._rules.append((priority, self._sequence, rule))
        self._rules.sort(key=_matching_order)
        self.stage2_updates += len(rules)
        return len(rules)

    def clear_rules(self, min_priority: Optional[int] = None) -> int:
        """Remove all rules (or only those at or above ``min_priority``)."""
        if min_priority is None:
            removed = len(self._rules)
            self._rules = []
        else:
            before = len(self._rules)
            self._rules = [item for item in self._rules if item[0] < min_priority]
            removed = before - len(self._rules)
        self.stage2_updates += removed
        return removed

    @property
    def rule_count(self) -> int:
        """Number of stage-2 rules currently installed."""
        return len(self._rules)

    def rules(self) -> List[WildcardRule]:
        """The stage-2 rules in matching order (highest priority first)."""
        return [rule for _, _, rule in self._rules]

    # -- forwarding ----------------------------------------------------------

    def _matching_rule(self, tag: int) -> Optional[WildcardRule]:
        """The first stage-2 rule, in matching order, that ``tag`` hits."""
        for _, _, rule in self._rules:
            if (tag & rule.mask) == rule.value:
                return rule
        return None

    def forward(self, packet: Packet) -> ForwardingDecision:
        """Run a packet through both stages."""
        tag = self.tag_of(packet.destination)
        if tag is None:
            return ForwardingDecision(next_hop=None)
        packet.tag = tag
        rule = self._matching_rule(tag)
        if rule is None:
            return ForwardingDecision(next_hop=None, tag=tag)
        packet.egress_next_hop = rule.next_hop
        return ForwardingDecision(next_hop=rule.next_hop, matched_rule=rule, tag=tag)

    def forward_address(self, destination: int) -> Optional[int]:
        """Next-hop for a bare destination address: :meth:`forward`'s answer
        without a :class:`Packet` or a :class:`ForwardingDecision`."""
        tag = self.tag_of(destination)
        if tag is None:
            return None
        rule = self._matching_rule(tag)
        return rule.next_hop if rule is not None else None
