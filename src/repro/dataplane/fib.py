"""The SWIFT two-stage forwarding table.

The vanilla router of §2.1.2 forwards with a longest-prefix-match FIB whose
entries are installed one prefix at a time (hence the tens of seconds of
downtime for large bursts; :mod:`repro.casestudy.vanilla` models its
timing).  A SWIFTED router keeps that first stage for tagging and adds a
second stage matching on the tag; rerouting a whole burst is then a handful
of high-priority wildcard rule insertions (§3.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bgp.prefix import Prefix
from repro.bgp.trie import PrefixTrie
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
    SWIFT reroutes).  Stage 2 holds forwarding rules matched against the tag:
    low-priority default rules forward on the primary next-hop encoded in the
    tag, and SWIFT inserts high-priority wildcard rules to reroute affected
    traffic.  Priorities are integers, higher wins; insertion order breaks
    ties (newest first), matching how a router's TCAM would be programmed.
    """

    def __init__(self) -> None:
        self._stage1: PrefixTrie[int] = PrefixTrie()
        self._rules: List[Tuple[int, int, WildcardRule]] = []  # (priority, seq, rule)
        self._sequence = 0
        self.stage1_updates = 0
        self.stage2_updates = 0

    # -- stage 1 -----------------------------------------------------------

    def set_tag(self, prefix: Prefix, tag: int) -> None:
        """Associate ``tag`` with ``prefix`` in the tagging stage."""
        self._stage1.insert(prefix, tag)
        self.stage1_updates += 1

    def load_tags(self, tags: Dict[Prefix, int]) -> None:
        """Bulk-load stage 1 (initial provisioning, not a reroute operation)."""
        if not self._stage1:
            self._stage1.build_from_sorted(sorted(tags.items()))
        else:
            for prefix, tag in tags.items():
                self._stage1.insert(prefix, tag)
        self.stage1_updates += len(tags)

    def update_tags(self, patch: Dict[Prefix, Optional[int]]) -> None:
        """Patch stage 1 in place: set or (``None``) remove individual tags.

        The incremental re-provisioning path uses this instead of reloading
        every tag, so a warm provision's forwarding update is proportional
        to the number of changed prefixes.
        """
        for prefix, tag in patch.items():
            if tag is None:
                try:
                    self._stage1.remove(prefix)
                except KeyError:
                    pass
            else:
                self._stage1.insert(prefix, tag)
        self.stage1_updates += len(patch)

    def tag_of(self, destination: int) -> Optional[int]:
        """Tag that stage 1 would stamp on a packet for ``destination``."""
        match = self._stage1.lookup(destination)
        return match[1] if match is not None else None

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
        match = self._stage1.lookup(destination)
        if match is None:
            return None
        rule = self._matching_rule(match[1])
        return rule.next_hop if rule is not None else None
