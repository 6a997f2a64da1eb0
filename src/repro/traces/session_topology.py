"""Per-session AS-path topology for synthetic traces.

A route collector session (or a SWIFTED router's session) sees, for every
reachable prefix, an AS path starting at the peer AS.  The set of those paths
forms a tree-like structure hanging off the peer: a handful of first-hop
transit ASes, each with its own customer cone, down to origin ASes announcing
heavy-tailed numbers of prefixes.  Bursts are failures of links inside that
structure.

:class:`SessionTopology` generates and stores that structure for one session:
the AS tree, the per-origin prefixes, the resulting RIB (prefix -> AS path),
an optional *alternate parent* per AS (used to decide whether prefixes are
re-routed or withdrawn when a link above them fails), and popular-origin
annotations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.prefix import Prefix
from repro.traces.popularity import POPULAR_ORGANIZATIONS

__all__ = ["SessionTopology", "SessionTopologyConfig"]


@dataclass(frozen=True)
class SessionTopologyConfig:
    """Shape parameters of the AS structure behind one peering session.

    Defaults produce a session carrying ~20k prefixes over a few thousand
    ASes, a scaled-down but structurally faithful version of a transit
    feed.  ``alternate_probability`` controls how often an AS has a second
    attachment point, i.e. how often a failure translates into path updates
    instead of withdrawals (remote failures being "often partial", §3.1).
    """

    peer_as: int = 3356
    total_prefixes: int = 20000
    first_hop_count: int = 10
    max_depth: int = 6
    branching: int = 3
    heavy_tail_alpha: float = 1.25
    alternate_probability: float = 0.35
    popular_origin_count: int = 6
    prefix_length: int = 24
    base_asn: int = 10000
    prefix_base_octet: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.total_prefixes <= 0:
            raise ValueError("total_prefixes must be positive")
        if self.first_hop_count <= 0:
            raise ValueError("first_hop_count must be positive")
        if self.max_depth < 2:
            raise ValueError("max_depth must be at least 2")
        if not 0.0 <= self.alternate_probability <= 1.0:
            raise ValueError("alternate_probability must be in [0, 1]")


@dataclass
class _ASNode:
    """One AS in the per-session tree."""

    asn: int
    parent: Optional[int]
    depth: int
    children: List[int]
    alternate_parent: Optional[int] = None
    prefixes: List[Prefix] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.prefixes is None:
            self.prefixes = []


class SessionTopology:
    """The AS structure and RIB behind one peering session."""

    def __init__(self, config: SessionTopologyConfig) -> None:
        self.config = config
        self.peer_as = config.peer_as
        self._nodes: Dict[int, _ASNode] = {}
        self._rib: Dict[Prefix, ASPath] = {}
        self._prefix_origin: Dict[Prefix, int] = {}
        self._popular_asns: Set[int] = set()
        self._build(random.Random(config.seed))

    # -- construction -------------------------------------------------------

    def _build(self, rng: random.Random) -> None:
        config = self.config
        root = _ASNode(asn=config.peer_as, parent=None, depth=0, children=[])
        self._nodes[config.peer_as] = root

        next_asn = config.base_asn
        frontier: List[int] = []
        for _ in range(config.first_hop_count):
            node = self._add_node(next_asn, parent=config.peer_as, depth=1)
            frontier.append(node.asn)
            next_asn += 1

        # Grow the tree breadth-first until we have enough ASes to host the
        # prefix population (roughly one origin per ~5 prefixes, heavy tail).
        target_as_count = max(
            config.first_hop_count + 1, config.total_prefixes // 5
        )
        target_as_count = min(target_as_count, 4 * config.total_prefixes + 10)
        while len(self._nodes) < target_as_count and frontier:
            parent_asn = frontier.pop(0)
            parent = self._nodes[parent_asn]
            if parent.depth >= config.max_depth:
                continue
            children = max(0, int(round(rng.expovariate(1.0 / config.branching))))
            for _ in range(children):
                if len(self._nodes) >= target_as_count:
                    break
                node = self._add_node(next_asn, parent=parent_asn, depth=parent.depth + 1)
                next_asn += 1
                frontier.append(node.asn)
        # If the tree stalled (frontier exhausted), attach remaining ASes to
        # random existing transit nodes so we always reach the target count.
        transit_pool = [
            asn for asn, node in self._nodes.items() if node.depth < config.max_depth
        ]
        while len(self._nodes) < target_as_count and transit_pool:
            parent_asn = transit_pool[rng.randrange(len(transit_pool))]
            parent = self._nodes[parent_asn]
            node = self._add_node(next_asn, parent=parent_asn, depth=parent.depth + 1)
            next_asn += 1
            if node.depth < config.max_depth:
                transit_pool.append(node.asn)

        self._assign_alternates(rng)
        self._assign_prefixes(rng)
        self._mark_popular(rng)

    def _add_node(self, asn: int, parent: int, depth: int) -> _ASNode:
        node = _ASNode(asn=asn, parent=parent, depth=depth, children=[])
        self._nodes[asn] = node
        self._nodes[parent].children.append(asn)
        return node

    def _assign_alternates(self, rng: random.Random) -> None:
        """Give some ASes a second attachment point outside their own subtree."""
        config = self.config
        all_asns = [asn for asn in self._nodes if asn != self.peer_as]
        for asn in all_asns:
            if rng.random() >= config.alternate_probability:
                continue
            node = self._nodes[asn]
            subtree = self.subtree(asn)
            candidates = [
                other
                for other, other_node in self._nodes.items()
                if other not in subtree
                and other != node.parent
                and other_node.depth <= node.depth
            ]
            if candidates:
                node.alternate_parent = candidates[rng.randrange(len(candidates))]

    def _assign_prefixes(self, rng: random.Random) -> None:
        """Hand out prefixes to origin ASes with a heavy-tailed size distribution.

        The allocation is heavy tailed at two levels: across first-hop
        subtrees (so that, as on real transit feeds, a single upstream link
        can carry the majority of the table — which is what makes very large
        bursts possible) and across origins within a subtree.
        """
        config = self.config
        origins = [asn for asn in self._nodes if asn != self.peer_as]
        if not origins:
            raise ValueError("session topology has no origin candidates")
        # Weight each first-hop subtree with a heavy-tailed draw, then weight
        # each origin inside its subtree; the product, normalised, drives the
        # final allocation.
        first_hops = list(self._nodes[self.peer_as].children)
        subtree_weight: Dict[int, float] = {
            first_hop: rng.paretovariate(0.55) for first_hop in first_hops
        }
        first_hop_of: Dict[int, int] = {}
        for first_hop in first_hops:
            for member in self.subtree(first_hop):
                first_hop_of[member] = first_hop
        weights = [
            subtree_weight.get(first_hop_of.get(origin, origin), 1.0)
            * rng.paretovariate(config.heavy_tail_alpha)
            for origin in origins
        ]
        total_weight = sum(weights)
        allocated = 0
        counts: List[int] = []
        for weight in weights:
            count = max(1, int(round(weight / total_weight * config.total_prefixes)))
            counts.append(count)
            allocated += count
        # Trim / pad to hit the exact budget (trim the largest, pad the smallest).
        order = sorted(range(len(origins)), key=lambda i: -counts[i])
        index = 0
        while allocated > config.total_prefixes and index < len(order):
            victim = order[index % len(order)]
            if counts[victim] > 1:
                counts[victim] -= 1
                allocated -= 1
            else:
                index += 1
        index = 0
        while allocated < config.total_prefixes:
            counts[order[index % len(order)]] += 1
            allocated += 1
            index += 1

        stride = 1 << (32 - config.prefix_length)
        cursor = (config.prefix_base_octet << 24)
        for origin, count in zip(origins, counts):
            node = self._nodes[origin]
            path = ASPath(self.chain(origin))
            for _ in range(count):
                prefix = Prefix(cursor, config.prefix_length)
                cursor += stride
                node.prefixes.append(prefix)
                self._rib[prefix] = path
                self._prefix_origin[prefix] = origin

    def _mark_popular(self, rng: random.Random) -> None:
        """Relabel some of the biggest origins with popular-organization ASNs."""
        config = self.config
        # Popular organizations sit among the larger origins but are not
        # necessarily *the* largest ones; sample from the top of the ranking
        # so that not every single burst touches a popular prefix (the paper
        # measures 84%, not 100%).
        by_size = sorted(
            (asn for asn in self._nodes if asn != self.peer_as),
            key=lambda asn: -len(self._nodes[asn].prefixes),
        )[: max(40, 4 * config.popular_origin_count)]
        rng.shuffle(by_size)
        popular_asns = [
            asn for organization in POPULAR_ORGANIZATIONS for asn in organization.asns
        ]
        rng.shuffle(popular_asns)
        count = min(config.popular_origin_count, len(by_size), len(popular_asns))
        for index in range(count):
            old_asn = by_size[index]
            new_asn = popular_asns[index]
            if new_asn in self._nodes:
                continue
            self._rename_as(old_asn, new_asn)
            self._popular_asns.add(new_asn)

    def _rename_as(self, old_asn: int, new_asn: int) -> None:
        node = self._nodes.pop(old_asn)
        node.asn = new_asn
        self._nodes[new_asn] = node
        if node.parent is not None:
            siblings = self._nodes[node.parent].children
            siblings[siblings.index(old_asn)] = new_asn
        for child_asn in node.children:
            self._nodes[child_asn].parent = new_asn
        for asn, other in self._nodes.items():
            if other.alternate_parent == old_asn:
                other.alternate_parent = new_asn
        # Re-derive the AS paths of every prefix below the renamed AS.
        for prefix in list(self._rib):
            origin = self._prefix_origin[prefix]
            if origin == old_asn:
                origin = new_asn
                self._prefix_origin[prefix] = new_asn
            path = self._rib[prefix]
            if old_asn in path.asns:
                self._rib[prefix] = ASPath(
                    new_asn if asn == old_asn else asn for asn in path.asns
                )

    # -- queries -------------------------------------------------------------

    @property
    def rib(self) -> Dict[Prefix, ASPath]:
        """The session RIB: prefix -> AS path (peer AS first, origin last)."""
        return self._rib

    @property
    def popular_asns(self) -> FrozenSet[int]:
        """Origin ASNs carrying a popular organization label."""
        return frozenset(self._popular_asns)

    @property
    def as_count(self) -> int:
        """Number of ASes in the session structure (including the peer)."""
        return len(self._nodes)

    @property
    def prefix_count(self) -> int:
        """Number of prefixes in the session RIB."""
        return len(self._rib)

    def chain(self, asn: int) -> Tuple[int, ...]:
        """AS path from the peer down to ``asn`` (peer first, ``asn`` last)."""
        path: List[int] = []
        cursor: Optional[int] = asn
        while cursor is not None:
            path.append(cursor)
            cursor = self._nodes[cursor].parent
        return tuple(reversed(path))

    def subtree(self, asn: int) -> FrozenSet[int]:
        """All ASes at or below ``asn`` in the tree."""
        result: Set[int] = set()
        frontier = [asn]
        while frontier:
            current = frontier.pop()
            if current in result:
                continue
            result.add(current)
            frontier.extend(self._nodes[current].children)
        return frozenset(result)

    def links(self) -> List[Tuple[int, int]]:
        """All parent-child AS links of the tree, in canonical form."""
        result: List[Tuple[int, int]] = []
        for asn, node in self._nodes.items():
            if node.parent is None:
                continue
            a, b = (node.parent, asn) if node.parent <= asn else (asn, node.parent)
            result.append((a, b))
        return sorted(result)

    def link_prefix_counts(self) -> Dict[Tuple[int, int], int]:
        """Number of prefixes whose path crosses each tree link."""
        counts: Dict[Tuple[int, int], int] = {}
        for path in self._rib.values():
            for link in path.links():
                counts[link] = counts.get(link, 0) + 1
        # The session link (local router <-> peer) is implicit and not counted.
        return counts

    def prefixes_below(self, asn: int) -> List[Prefix]:
        """Prefixes originated at or below ``asn``."""
        members = self.subtree(asn)
        return [
            prefix
            for prefix, origin in self._prefix_origin.items()
            if origin in members
        ]

    def prefixes_via_link(self, link: Tuple[int, int]) -> List[Prefix]:
        """Prefixes whose AS path traverses the (undirected) link."""
        canonical = link if link[0] <= link[1] else (link[1], link[0])
        return [
            prefix
            for prefix, path in self._rib.items()
            if canonical in path.links()
        ]

    def child_of_link(self, link: Tuple[int, int]) -> int:
        """Return the endpoint of ``link`` that is the child (deeper) AS."""
        a, b = link
        node_a, node_b = self._nodes.get(a), self._nodes.get(b)
        if node_a is None or node_b is None:
            raise KeyError(link)
        return a if node_a.depth > node_b.depth else b

    def origin_of(self, prefix: Prefix) -> int:
        """Origin AS of ``prefix`` (KeyError if unknown)."""
        return self._prefix_origin[prefix]

    def reroute_path(
        self,
        origin: int,
        failed_child: int,
        failed_subtree: Optional[FrozenSet[int]] = None,
    ) -> Optional[ASPath]:
        """Path for ``origin`` when the link above ``failed_child`` is down.

        Uses the alternate parent of ``failed_child`` when it exists and lies
        outside the failed subtree; returns ``None`` when no alternate exists
        (the prefix would be withdrawn).  ``failed_subtree`` may be passed in
        to avoid recomputing the subtree for every prefix of a large burst.
        """
        alternate = self._nodes[failed_child].alternate_parent
        if alternate is None:
            return None
        subtree = failed_subtree if failed_subtree is not None else self.subtree(failed_child)
        if alternate in subtree:
            return None
        origin_chain = self.chain(origin)
        if failed_child not in origin_chain:
            return ASPath(origin_chain)
        suffix = origin_chain[origin_chain.index(failed_child):]
        new_chain = self.chain(alternate) + suffix
        # Guard against accidental loops (an AS appearing twice).
        if len(set(new_chain)) != len(new_chain):
            return None
        return ASPath(new_chain)

    def origins(self) -> List[int]:
        """All origin ASes (ASes originating at least one prefix)."""
        return sorted(
            asn for asn, node in self._nodes.items() if node.prefixes
        )
