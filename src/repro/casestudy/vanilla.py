"""Vanilla (non-SWIFTED) router convergence model (Table 1).

A conventional router recovers from a remote outage one prefix at a time: it
must receive the withdrawal, re-run best-path selection, and install the new
next-hop in the FIB.  §2.1.2 measures the resulting downtime on a Cisco
Nexus 7k: roughly linear in the burst size, 109 s for 290k prefixes.

:class:`VanillaRouterModel` reproduces that behaviour analytically: each
prefix's recovery time is the later of (a) the arrival time of its withdrawal
on the preferred session and (b) the router's cumulative processing/FIB
position for it, using the per-prefix costs of
:class:`~repro.dataplane.timing.FibUpdateTimingModel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix
from repro.bgp.speaker import BGPSpeaker
from repro.casestudy.testbed import Fig1Scenario
from repro.dataplane.timing import FibUpdateTimingModel

__all__ = ["VanillaRouterModel", "VanillaConvergenceResult"]


@dataclass(frozen=True)
class VanillaConvergenceResult:
    """Outcome of replaying a burst through the vanilla router model."""

    recovery_time_of: Dict[Prefix, float]
    failure_time: float
    total_convergence_seconds: float

    def downtime_of(self, prefix: Prefix) -> Optional[float]:
        """Downtime of one prefix, or ``None`` when it never recovered."""
        recovery = self.recovery_time_of.get(prefix)
        if recovery is None:
            return None
        return max(0.0, recovery - self.failure_time)

    def probe_downtimes(self, probes: Sequence[Prefix]) -> List[float]:
        """Downtimes of the probed prefixes (missing probes count as the max)."""
        fallback = self.total_convergence_seconds
        return [
            self.downtime_of(probe) if probe in self.recovery_time_of else fallback
            for probe in probes
        ]


class VanillaRouterModel:
    """Discrete-time model of a router converging prefix by prefix."""

    def __init__(self, timing: Optional[FibUpdateTimingModel] = None) -> None:
        self.timing = timing or FibUpdateTimingModel()

    def converge(
        self,
        withdrawal_messages: Sequence[BGPMessage],
        failure_time: float = 0.0,
        has_alternate: bool = True,
    ) -> VanillaConvergenceResult:
        """Replay a withdrawal burst and compute per-prefix recovery times.

        Each withdrawal is processed in arrival order; the router is busy for
        ``per_prefix_processing + per_prefix_install`` seconds per prefix, so
        the effective recovery time of a prefix is
        ``max(arrival_time, previous_completion) + per_prefix_cost``.
        When ``has_alternate`` is false the prefixes never recover within the
        burst (no backup path exists); the model then reports the time at
        which the withdrawal was merely processed.
        """
        per_prefix = (
            self.timing.per_prefix_processing_seconds + self.timing.per_prefix_seconds
        )
        recovery: Dict[Prefix, float] = {}
        busy_until = failure_time
        for message in withdrawal_messages:
            if not isinstance(message, Update):
                continue
            for prefix in message.withdrawals:
                if prefix in recovery:
                    continue
                start = max(message.timestamp, busy_until)
                busy_until = start + per_prefix
                recovery[prefix] = busy_until
        total = (max(recovery.values()) - failure_time) if recovery else 0.0
        if not has_alternate:
            # No backup path: processing happened but connectivity is not
            # restored until BGP converges globally; callers treat this as
            # "still down" by reading ``total_convergence_seconds``.
            recovery = {}
        return VanillaConvergenceResult(
            recovery_time_of=recovery,
            failure_time=failure_time,
            total_convergence_seconds=total,
        )

    def converge_scenario(self, scenario: Fig1Scenario) -> VanillaConvergenceResult:
        """Convenience wrapper: replay the AS 2 burst of a Fig. 1 scenario.

        Only the preferred session's withdrawals gate recovery: once the AS 2
        route is withdrawn the router falls back to the (already known) AS 3
        route and installs it — that installation is the per-prefix cost.
        """
        return self.converge(
            scenario.messages_from(2), failure_time=scenario.failure_time
        )

    def converge_scenario_with_speaker(
        self, scenario: Fig1Scenario
    ) -> VanillaConvergenceResult:
        """Replay a Fig. 1 scenario through a real :class:`BGPSpeaker`.

        Where :meth:`converge_scenario` assumes every preferred-session
        withdrawal frees its prefix to fall back, this variant actually runs
        the BGP decision process: the speaker ingests the scenario's per-peer
        tables and the whole burst through the batched path
        (:meth:`~repro.bgp.speaker.BGPSpeaker.receive_batch`, one best-path
        selection per touched prefix), and only the prefixes whose best route
        genuinely moved to a surviving neighbor go through the per-prefix
        FIB-install pipeline, ordered by their withdrawal arrival times.
        """
        speaker = BGPSpeaker(1)
        for peer_as in scenario.routes_via_peer:
            speaker.add_peer(peer_as)
        for peer_as, routes in scenario.routes_via_peer.items():
            local_pref = scenario.local_pref_of_peer.get(peer_as, 100)
            speaker.receive_batch(
                Update.announce(
                    0.0,
                    peer_as,
                    prefix,
                    PathAttributes(
                        as_path=routes[prefix], next_hop=peer_as, local_pref=local_pref
                    ),
                )
                for prefix in sorted(routes)
            )

        # First withdrawal arrival per prefix: gates when the router can even
        # start re-converging that prefix.
        arrival_of: Dict[Prefix, float] = {}
        for message in scenario.burst_messages:
            if not isinstance(message, Update):
                continue
            for prefix in message.withdrawals:
                if prefix not in arrival_of:
                    arrival_of[prefix] = message.timestamp

        changes = speaker.receive_batch(scenario.burst_messages)
        # A prefix that transiently blackholed yields both a synthetic
        # recovery and the coalesced final change; count it once.
        seen = set()
        recovered = []
        for change in changes:
            if (
                change.new is not None
                and change.new.next_hop in scenario.surviving_next_hops
                and change.prefix not in seen
            ):
                seen.add(change.prefix)
                recovered.append(change.prefix)
        # Prefixes withdrawn by one UPDATE share an arrival time; break the
        # tie by prefix so the FIB-write order (and with it each prefix's
        # recovery time) does not depend on the order the batch reports in.
        recovered.sort(
            key=lambda prefix: (arrival_of.get(prefix, scenario.failure_time), prefix)
        )

        per_prefix = (
            self.timing.per_prefix_processing_seconds + self.timing.per_prefix_seconds
        )
        recovery: Dict[Prefix, float] = {}
        busy_until = scenario.failure_time
        for prefix in recovered:
            start = max(arrival_of.get(prefix, scenario.failure_time), busy_until)
            busy_until = start + per_prefix
            recovery[prefix] = busy_until
        total = (
            (max(recovery.values()) - scenario.failure_time) if recovery else 0.0
        )
        return VanillaConvergenceResult(
            recovery_time_of=recovery,
            failure_time=scenario.failure_time,
            total_convergence_seconds=total,
        )

    def downtime_for_burst_size(
        self, prefix_count: int, arrival_rate_per_second: float = 3000.0
    ) -> float:
        """Analytic downtime for a burst of ``prefix_count`` withdrawals.

        The downtime is dominated by the slower of the arrival process and
        the per-prefix processing pipeline, which is what makes Table 1 grow
        linearly with the burst size.
        """
        if prefix_count < 0:
            raise ValueError("prefix_count must be non-negative")
        arrival_time = prefix_count / arrival_rate_per_second
        processing_time = self.timing.per_prefix_convergence_time(prefix_count)
        return max(arrival_time, processing_time)
