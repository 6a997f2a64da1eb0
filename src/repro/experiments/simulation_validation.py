"""§6.2.2 / §6.3.2 — validation on simulated bursts with ground truth.

The paper generates bursts with C-BGP over a 1,000-AS topology and checks:

* running the inference at the *end* of each burst always returns a set of
  links containing (or adjacent to) the failed link (Theorem 4.1);
* running it after only 200 withdrawals, the selected backup path bypasses
  the actual failed link for all bursts but one;
* both properties survive 1,000 unrelated noise withdrawals per burst.

Here the :class:`~repro.simulation.propagation.PropagationSimulator` stands
in for C-BGP, and each burst is fed to a fresh router
(:class:`~repro.experiments.month_replay.StreamReplayer`) at the vantage's
local AS, with a session per neighbour at its Gao–Rexford LOCAL_PREF: the
Loc-RIB is the simulator's routing, and the router's first trigger is the
early point.  The end-of-burst inference is the engine's ``force_inference``;
the reroutes are read by ``forward()`` and scored against the post-failure
routes each neighbour still offers (:class:`BurstOutcome`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.burst_detection import BurstDetectorConfig
from repro.core.encoding import EncoderConfig
from repro.core.history import TriggeringSchedule
from repro.core.inference import InferenceConfig
from repro.core.swifted_router import SwiftConfig
from repro.experiments.month_replay import StreamReplayer
from repro.metrics.tables import format_table
from repro.simulation.noise import NoiseConfig, inject_noise
from repro.simulation.propagation import PropagationSimulator, VantagePoint
from repro.topology.as_graph import ASGraph, canonical_link
from repro.topology.generator import TopologyConfig, generate_topology
from repro.topology.policies import relationship_preference
from repro.traces.columnar import ColumnarTrace

__all__ = ["BurstOutcome", "SimulationValidationResult", "THRESHOLD_SCALE", "format_result", "run"]

Link = Tuple[int, int]

#: The one divisor of the paper's thresholds in a simulated world: detector
#: start and stop (1,500 / 9), the triggering schedule (2,500 withdrawals
#: for < 10k predicted prefixes, ..., 20k) and ``prefix_threshold`` (1,500).
#: Simulated tables hold thousands of prefixes and bursts dozens of
#: withdrawals: a burst starts at 6, the first trigger is 10, links carrying
#: 6 prefixes are encoded, and a burst stays open until its window empties.
THRESHOLD_SCALE = 250


def _scaled_config() -> SwiftConfig:
    """The paper's thresholds, each divided by :data:`THRESHOLD_SCALE`."""
    def scaled(value: int) -> int:
        return round(value / THRESHOLD_SCALE)

    detector, schedule = BurstDetectorConfig(), TriggeringSchedule()
    return SwiftConfig(
        inference=InferenceConfig(
            detector=BurstDetectorConfig(
                start_threshold=scaled(detector.start_threshold),
                stop_threshold=scaled(detector.stop_threshold),
            ),
            schedule=TriggeringSchedule(
                steps=tuple((scaled(w), scaled(p)) for w, p in schedule.steps),
                unconditional_after=scaled(schedule.unconditional_after),
            ),
        ),
        encoder=EncoderConfig(prefix_threshold=scaled(EncoderConfig().prefix_threshold)),
    )


@dataclass(frozen=True)
class BurstOutcome:
    """One simulated burst through the router.

    ``verdict`` grades ``inferred_links`` (``None``: no burst detected)
    against ``failed_link``: exact, superset, adjacent, wrong or none.
    ``touched`` counts the affected prefixes the router forwarded through
    the failing peer.  Of all the prefixes it forwarded there, ``moved_safe``
    counts those moved onto a next hop that still routes them after the
    failure (``simulate(failure, VantagePoint(local, next_hop))`` does not
    withdraw them), ``moved_unsafe`` the other moved ones, and ``stranded``
    the withdrawn ones left in place though another neighbour routed them.
    """

    failed_link: Link
    withdrawals: int
    inferred_links: Optional[Tuple[Link, ...]]
    verdict: str
    touched: int
    moved_safe: int
    moved_unsafe: int
    stranded: int


@dataclass
class SimulationValidationResult:
    """Per-burst outcomes and their counts: bursts per end-of-burst verdict
    (``end_none``: no inference), bursts affecting no forwarded prefix
    (``untouched``), and the moved or stranded prefixes of all bursts."""

    vantage: VantagePoint
    outcomes: List[BurstOutcome]

    def __post_init__(self) -> None:
        outcomes = self.outcomes
        verdicts = Counter(outcome.verdict for outcome in outcomes)
        self.bursts = len(outcomes)
        self.end_exact = verdicts["exact"]
        self.end_superset = verdicts["superset"]
        self.end_adjacent = verdicts["adjacent"]
        self.end_wrong = verdicts["wrong"]
        self.end_none = verdicts["none"]
        self.untouched = sum(not outcome.touched for outcome in outcomes)
        self.moved_safe = sum(outcome.moved_safe for outcome in outcomes)
        self.moved_unsafe = sum(outcome.moved_unsafe for outcome in outcomes)
        self.stranded = sum(outcome.stranded for outcome in outcomes)

    @property
    def end_contains_failed_share(self) -> float:
        """Share of bursts whose end-of-burst inference contains the failed link."""
        if self.bursts == 0:
            return 0.0
        return (self.end_exact + self.end_superset) / self.bursts


def _classify_links(inferred: Optional[Sequence[Link]], failed: Link) -> str:
    """Categorise an inference against the (single, canonical) failed link."""
    if inferred is None:
        return "none"
    links = {canonical_link(*link) for link in inferred}
    if failed in links:
        return "exact" if len(links) == 1 else "superset"
    return "adjacent" if any(set(failed) & set(link) for link in links) else "wrong"


def run(
    as_count: int = 300,
    prefixes_per_as: int = 20,
    failures: int = 30,
    noise_withdrawals: int = 0,
    min_burst: int = 50,
    seed: int = 5,
    graph: Optional[ASGraph] = None,
) -> SimulationValidationResult:
    """Run the simulation validation.

    The defaults are scaled down from the paper's 1,000-AS / 2,183-burst
    campaign so the harness completes in seconds; the categories and shares
    are directly comparable.
    """
    graph = graph or generate_topology(
        TopologyConfig(as_count=as_count, prefixes_per_as=prefixes_per_as, seed=seed)
    )
    simulator = PropagationSimulator(graph, seed=seed)

    # Vantage: a peer-to-peer session of a well-connected AS, like a collector
    # peering with a transit provider.
    vantage = _pick_vantage(graph)
    # Many prefixes crossing a link end up re-routed rather than withdrawn, so
    # the candidate pre-filter (based on crossing prefixes) must be looser
    # than the wanted burst size; relax it until enough failures are found.
    threshold = min_burst
    failures_list = simulator.random_failures(
        vantage, count=failures, min_withdrawals=threshold, seed=seed
    )
    while len(failures_list) < failures and threshold > 10:
        threshold //= 2
        failures_list = simulator.random_failures(
            vantage, count=failures, min_withdrawals=threshold, seed=seed
        )

    # Every session of the vantage AS: routes and LOCAL_PREF (customer 300,
    # peer 200, provider 100).
    local, peer = vantage.local_as, vantage.peer_as
    tables = {}
    for neighbour, rib in simulator.all_vantage_ribs(local).items():
        relationship = graph.link(local, neighbour).relationship_from(local)
        tables[neighbour] = (
            {prefix: attributes.as_path for prefix, attributes in rib.items()},
            300 - 100 * relationship_preference(relationship),
        )
    others = {neighbour: table for neighbour, table in tables.items() if neighbour != peer}
    config = _scaled_config()

    outcomes = []
    for failure in failures_list:
        burst = simulator.simulate(failure, vantage)
        if burst.withdrawal_count < max(10, min_burst // 4):
            continue
        truth = burst.ground_truth
        messages = burst.messages
        if noise_withdrawals:
            unaffected = [p for p in burst.initial_rib if p not in truth.affected_prefixes]
            noise = NoiseConfig(burst_noise_withdrawals=noise_withdrawals, seed=seed)
            messages = inject_noise(messages, unaffected, peer, noise)

        rib, local_pref = tables[peer]
        replayer = StreamReplayer(
            rib, peer, local_as=local, swift_config=config, local_pref=local_pref,
            sessions=others,
        )
        router = replayer.router
        forwarded = [prefix for prefix in rib if router.forward(prefix.network) == peer]
        replayer.feed(ColumnarTrace.from_messages(messages))
        end = router.engine_for(peer).force_inference(messages[-1].timestamp)
        inferred = None if end is None else end.inferred_links

        withdrawn_on: Dict[int, FrozenSet] = {}

        def routes_after(neighbour: int, prefix) -> bool:
            """Whether ``neighbour`` still routes ``prefix`` after the failure."""
            if prefix not in tables[neighbour][0]:
                return False
            if neighbour not in withdrawn_on:
                side = simulator.simulate(failure, VantagePoint(local, neighbour))
                withdrawn_on[neighbour] = side.ground_truth.withdrawn_prefixes
            return prefix not in withdrawn_on[neighbour]

        moves: Counter = Counter()
        for prefix in forwarded:
            next_hop = router.forward(prefix.network)
            if next_hop != peer:
                moves["safe" if routes_after(next_hop, prefix) else "unsafe"] += 1
            elif prefix in truth.withdrawn_prefixes and any(
                routes_after(neighbour, prefix) for neighbour in others
            ):
                moves["stranded"] += 1
        failed = truth.failed_links[0]
        outcomes.append(
            BurstOutcome(
                failed_link=failed,
                withdrawals=burst.withdrawal_count,
                inferred_links=inferred,
                verdict=_classify_links(inferred, failed),
                touched=len(truth.affected_prefixes.intersection(forwarded)),
                moved_safe=moves["safe"],
                moved_unsafe=moves["unsafe"],
                stranded=moves["stranded"],
            )
        )
    return SimulationValidationResult(vantage=vantage, outcomes=outcomes)


def _pick_vantage(graph: ASGraph) -> VantagePoint:
    """Pick a peer-to-peer session whose peer has a sizeable customer cone."""
    best: Optional[Tuple[int, VantagePoint]] = None
    for link in graph.links():
        if link.relationship.value != "p2p":
            continue
        a, b = link.endpoints
        for local, peer in ((a, b), (b, a)):
            degree = graph.degree(peer)
            if best is None or degree > best[0]:
                best = (degree, VantagePoint(local_as=local, peer_as=peer))
    if best is None:
        # Fall back to any link (tiny test graphs may have no peering link).
        link = next(iter(graph.links()))
        return VantagePoint(local_as=link.a, peer_as=link.b)
    return best[1]


def format_result(result: SimulationValidationResult) -> str:
    """Render the validation categories."""
    rows = [
        ("exact", result.end_exact),
        ("superset (contains failed link)", result.end_superset),
        ("adjacent to failed link", result.end_adjacent),
        ("wrong", result.end_wrong),
        ("none (no burst detected)", result.end_none),
    ]
    table = format_table(
        ["End-of-burst inference", "bursts"],
        rows,
        title=f"Simulation validation over {result.bursts} bursts",
    )
    return (
        f"{table}\n"
        f"bursts affecting no prefix forwarded through the failing peer: "
        f"{result.untouched}\n"
        f"prefixes moved: {result.moved_safe} safe, {result.moved_unsafe} unsafe "
        "after the failure (paper: the backup bypasses the failed link for all "
        "bursts but one)\n"
        f"withdrawn prefixes left in place with a safe alternate: {result.stranded}"
    )
