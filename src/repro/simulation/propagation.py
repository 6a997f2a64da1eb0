"""The control-plane propagation simulator (C-BGP substitute).

Given an AS graph, the simulator computes valley-free routing towards every
origin, lets the caller pick a vantage point (a BGP session between a local
AS — the SWIFTED router or a route collector — and one of its neighbors),
injects link or node failures, and produces the burst of BGP messages that
the vantage point would observe, together with the ground truth (which links
failed, which prefixes were withdrawn or re-routed).

This is exactly the role C-BGP plays in the paper's §6.1: "Using C-BGP, we
simulated random link failures, and recorded the BGP messages seen on each
BGP session in the network."
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.bgp.attributes import ASPath, PathAttributes
from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix
from repro.simulation.events import LinkFailure, RoutingEvent
from repro.simulation.routing import GaoRexfordRouting, RouteComputation
from repro.simulation.timing import EmpiricalPacing, PacingModel
from repro.topology.as_graph import ASGraph, canonical_link

__all__ = [
    "BurstGroundTruth",
    "PropagationSimulator",
    "SimulatedBurst",
    "VantagePoint",
]


@dataclass(frozen=True)
class VantagePoint:
    """A BGP session at which bursts are observed.

    ``local_as`` is the AS running SWIFT (or hosting the collector peer) and
    ``peer_as`` the neighbor whose announcements we see.
    """

    local_as: int
    peer_as: int

    def __post_init__(self) -> None:
        if self.local_as == self.peer_as:
            raise ValueError("a vantage point needs two distinct ASes")


@dataclass(frozen=True)
class BurstGroundTruth:
    """What actually happened, for scoring inference accuracy."""

    failed_links: Tuple[Tuple[int, int], ...]
    withdrawn_prefixes: FrozenSet[Prefix]
    updated_prefixes: FrozenSet[Prefix]

    @property
    def affected_prefixes(self) -> FrozenSet[Prefix]:
        """Prefixes whose reachability or path changed because of the outage."""
        return self.withdrawn_prefixes | self.updated_prefixes


@dataclass
class SimulatedBurst:
    """A burst as observed on one vantage session, with its ground truth."""

    messages: List[BGPMessage]
    ground_truth: BurstGroundTruth
    initial_rib: Dict[Prefix, PathAttributes] = field(default_factory=dict)

    @property
    def withdrawal_count(self) -> int:
        """Number of withdrawn prefixes in the burst."""
        return sum(
            len(m.withdrawals) for m in self.messages if isinstance(m, Update)
        )


class PropagationSimulator:
    """Simulates BGP route propagation and failures over an AS graph.

    Parameters
    ----------
    graph:
        The AS-level topology (with relationships and originated prefixes).
    pacing:
        Model assigning arrival times to burst messages; defaults to the
        empirically calibrated pacing of :class:`EmpiricalPacing`.
    seed:
        Seed for the pacing/interleaving randomness.
    """

    def __init__(
        self,
        graph: ASGraph,
        pacing: Optional[PacingModel] = None,
        seed: int = 0,
    ) -> None:
        self.graph = graph
        self.pacing = pacing or EmpiricalPacing()
        self.seed = seed
        self._routing = GaoRexfordRouting(graph)
        self._baseline: Dict[int, RouteComputation] = {}
        self._link_origin_index: Optional[Dict[Tuple[int, int], Set[int]]] = None

    # -- baseline routing ---------------------------------------------------

    def baseline(self, origin: int) -> RouteComputation:
        """Routing towards ``origin`` on the intact graph (cached)."""
        computation = self._baseline.get(origin)
        if computation is None:
            computation = self._routing.compute(origin)
            self._baseline[origin] = computation
        return computation

    def _origins_using_link(self, link: Tuple[int, int]) -> Set[int]:
        """Origins for which at least one AS's best path traverses ``link``."""
        if self._link_origin_index is None:
            index: Dict[Tuple[int, int], Set[int]] = {}
            for origin in self.graph.ases():
                computation = self.baseline(origin)
                seen: Set[Tuple[int, int]] = set()
                for asn in computation.best_path:
                    for used in computation.links_used_by(asn):
                        if used not in seen:
                            seen.add(used)
                            index.setdefault(used, set()).add(origin)
            self._link_origin_index = index
        return self._link_origin_index.get(canonical_link(*link), set())

    # -- vantage point state --------------------------------------------------

    def vantage_rib(self, vantage: VantagePoint) -> Dict[Prefix, PathAttributes]:
        """The pre-failure Adj-RIB-In of the vantage session.

        For every originated prefix, the exported path (if any) that
        ``vantage.peer_as`` offers to ``vantage.local_as`` on the intact graph.
        """
        if not self.graph.has_link(vantage.local_as, vantage.peer_as):
            raise ValueError(
                f"no AS link between {vantage.local_as} and {vantage.peer_as}"
            )
        rib: Dict[Prefix, PathAttributes] = {}
        for node in self.graph.nodes():
            if not node.prefixes:
                continue
            computation = self.baseline(node.asn)
            path = computation.exported_path(
                self.graph, vantage.peer_as, vantage.local_as
            )
            if path is None:
                continue
            attributes = PathAttributes(
                as_path=ASPath(path), next_hop=vantage.peer_as
            )
            for prefix in node.prefixes:
                rib[prefix] = attributes
        return rib

    def all_vantage_ribs(
        self, local_as: int
    ) -> Dict[int, Dict[Prefix, PathAttributes]]:
        """Pre-failure Adj-RIB-Ins for every session of ``local_as``."""
        return {
            peer_as: self.vantage_rib(VantagePoint(local_as, peer_as))
            for peer_as in sorted(self.graph.neighbors(local_as))
        }

    # -- failure simulation ----------------------------------------------------

    def simulate(
        self,
        event: RoutingEvent,
        vantage: VantagePoint,
    ) -> SimulatedBurst:
        """Simulate ``event`` and return the burst observed at ``vantage``.

        The burst contains one withdrawal per prefix that loses its exported
        path on the session and one announcement per prefix whose exported
        path changes (implicit withdrawal), paced by the simulator's pacing
        model and interleaved in random order, as observed in
        real traces.
        """
        failed = [canonical_link(a, b) for a, b in event.failed_links(self.graph)]
        pre_rib = self.vantage_rib(vantage)

        affected_origins: Set[int] = set()
        for link in failed:
            affected_origins |= self._origins_using_link(link)

        removed = event.apply(self.graph)
        try:
            failed_routing = GaoRexfordRouting(self.graph)
            post_exports: Dict[int, Optional[Tuple[int, ...]]] = {}
            for origin in affected_origins:
                computation = failed_routing.compute(origin)
                post_exports[origin] = computation.exported_path(
                    self.graph, vantage.peer_as, vantage.local_as
                )
        finally:
            RoutingEvent.undo(self.graph, removed)

        withdrawn: List[Prefix] = []
        updated: List[Tuple[Prefix, Tuple[int, ...]]] = []
        announced: List[Tuple[Prefix, Tuple[int, ...]]] = []
        for node in self.graph.nodes():
            if node.asn not in affected_origins or not node.prefixes:
                continue
            new_path = post_exports.get(node.asn)
            for prefix in node.prefixes:
                old = pre_rib.get(prefix)
                if old is None:
                    if new_path is not None:
                        announced.append((prefix, new_path))
                    continue
                if new_path is None:
                    withdrawn.append(prefix)
                elif tuple(old.as_path.asns) != new_path:
                    updated.append((prefix, new_path))

        messages = self._pace_messages(
            vantage, withdrawn, updated + announced, event.at
        )
        ground_truth = BurstGroundTruth(
            failed_links=tuple(sorted(failed)),
            withdrawn_prefixes=frozenset(withdrawn),
            updated_prefixes=frozenset(prefix for prefix, _ in updated),
        )
        return SimulatedBurst(
            messages=messages,
            ground_truth=ground_truth,
            initial_rib=pre_rib,
        )

    def _pace_messages(
        self,
        vantage: VantagePoint,
        withdrawn: Sequence[Prefix],
        updated: Sequence[Tuple[Prefix, Tuple[int, ...]]],
        start: float,
    ) -> List[BGPMessage]:
        rng = random.Random(
            (self.seed, vantage.local_as, vantage.peer_as, len(withdrawn)).__hash__()
        )
        events: List[Tuple[str, object]] = [("withdraw", p) for p in withdrawn]
        events.extend(("update", item) for item in updated)
        rng.shuffle(events)
        offsets = self.pacing.offsets(len(events), rng)
        messages: List[BGPMessage] = []
        for offset, (kind, payload) in zip(offsets, events):
            timestamp = start + offset
            if kind == "withdraw":
                messages.append(
                    Update.withdraw(timestamp, vantage.peer_as, payload)  # type: ignore[arg-type]
                )
            else:
                prefix, path = payload  # type: ignore[misc]
                attributes = PathAttributes(
                    as_path=ASPath(path), next_hop=vantage.peer_as
                )
                messages.append(
                    Update.announce(timestamp, vantage.peer_as, prefix, attributes)
                )
        messages.sort(key=lambda m: m.timestamp)
        return messages

    # -- helpers for experiment harnesses ---------------------------------------

    def candidate_link_failures(
        self,
        vantage: VantagePoint,
        min_withdrawals: int = 1000,
    ) -> List[Tuple[int, int]]:
        """Links whose failure would withdraw at least ``min_withdrawals`` prefixes.

        The estimate counts the prefixes whose pre-failure exported path on
        the vantage session traverses the link (an upper bound on the
        withdrawal count, tight when no post-failure path exists); the
        session link itself is no candidate.  Used by the benchmark harnesses
        to pick interesting failures, mirroring the paper's focus on bursts
        of at least 1k-2.5k withdrawals.
        """
        pre_rib = self.vantage_rib(vantage)
        counts: Dict[Tuple[int, int], int] = {}
        for prefix, attributes in pre_rib.items():
            full_path = (vantage.local_as,) + tuple(attributes.as_path.asns)
            for a, b in zip(full_path, full_path[1:]):
                counts[canonical_link(a, b)] = counts.get(canonical_link(a, b), 0) + 1
        session_link = canonical_link(vantage.local_as, vantage.peer_as)
        candidates = [
            link
            for link, count in counts.items()
            if count >= min_withdrawals
            and link != session_link
        ]
        return sorted(candidates, key=lambda link: (-counts[link], link))

    def random_failures(
        self,
        vantage: VantagePoint,
        count: int,
        min_withdrawals: int = 1000,
        seed: Optional[int] = None,
    ) -> List[LinkFailure]:
        """Pick ``count`` random link failures expected to cause visible bursts."""
        rng = random.Random(self.seed if seed is None else seed)
        candidates = self.candidate_link_failures(vantage, min_withdrawals)
        if not candidates:
            return []
        picked = candidates if len(candidates) <= count else rng.sample(candidates, count)
        return [LinkFailure(a=a, b=b) for a, b in picked]
