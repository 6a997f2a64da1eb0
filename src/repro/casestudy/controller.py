"""The §7 alternative deployment: SWIFT controller + SDN switch.

To SWIFT an unmodified router, the paper interposes (i) a BGP-speaking
controller between the router and its peers at the control plane and (ii) an
OpenFlow switch on the data path.  The controller runs the inference and
encoding algorithms and programs the switch; the two-stage forwarding table
then spans two devices (router = tagging stage via ARP/MAC tricks, switch =
tag-matching stage).

Here the deployment is modelled as a thin composition over the same
:class:`~repro.core.swifted_router.SwiftedRouter` machinery, with an explicit
:class:`SdnSwitch` device that adds per-flow-mod programming latency — the
quantity that separates the "within 2 s" SWIFTED convergence from the 109 s
vanilla convergence in Fig. 9(a).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bgp.attributes import ASPath
from repro.bgp.messages import BGPMessage
from repro.bgp.prefix import Prefix
from repro.casestudy.testbed import Fig1Scenario
from repro.core.encoding import WildcardRule
from repro.core.swifted_router import RerouteAction, SwiftConfig, SwiftedRouter
from repro.dataplane.timing import FibUpdateTimingModel

__all__ = ["SdnSwitch", "SwiftController", "SwiftedDeployment"]


@dataclass
class SdnSwitch:
    """The OpenFlow switch holding the second forwarding stage.

    ``flow_mod_seconds`` is the per-rule programming latency (OpenVSwitch and
    hardware switches program individual flow-mods in the low milliseconds).
    """

    flow_mod_seconds: float = 2e-3
    installed_rules: List[WildcardRule] = field(default_factory=list)
    programming_log: List[Tuple[float, int]] = field(default_factory=list)

    def program(self, rules: Sequence[WildcardRule], at: float) -> float:
        """Install ``rules``; returns the completion time."""
        self.installed_rules.extend(rules)
        completion = at + len(rules) * self.flow_mod_seconds
        self.programming_log.append((completion, len(rules)))
        return completion

    @property
    def rule_count(self) -> int:
        """Number of rules currently installed in the switch."""
        return len(self.installed_rules)


class SwiftController:
    """The BGP-speaking controller of the §7 deployment.

    It terminates the peers' BGP sessions (through the SWIFTED router, which
    simply relays them), runs SWIFT, and programs the SDN switch whenever an
    inference fires.
    """

    def __init__(
        self,
        local_as: int,
        switch: Optional[SdnSwitch] = None,
        config: Optional[SwiftConfig] = None,
        controller_overhead_seconds: float = 0.2,
    ) -> None:
        self.router = SwiftedRouter(local_as, config=config)
        self.switch = switch or SdnSwitch()
        self.controller_overhead_seconds = controller_overhead_seconds
        self.reroute_completions: List[Tuple[RerouteAction, float]] = []

    def add_peer(self, peer_as: int) -> None:
        """Declare an eBGP peer of the SWIFTED router."""
        self.router.add_peer(peer_as)

    def load_initial_routes(
        self, peer_as: int, routes: Mapping[Prefix, ASPath], local_pref: int = 100
    ) -> None:
        """Load a session's initial table into the controller's RIB."""
        self.router.load_initial_routes(peer_as, routes, local_pref=local_pref)

    def provision(self) -> None:
        """Pre-compute tags/backups and program the default switch rules."""
        encoded = self.router.provision()
        self.switch.program(self.router.forwarding.rules(), at=0.0)
        self._encoded = encoded

    def _program_switch(self, action: RerouteAction) -> float:
        """Push one reroute action's rules to the switch; returns completion."""
        completion = self.switch.program(
            list(action.rules),
            at=action.timestamp + self.controller_overhead_seconds,
        )
        self.reroute_completions.append((action, completion))
        return completion

    def receive(self, message: BGPMessage) -> Optional[float]:
        """Relay one BGP message; returns the reroute completion time if any."""
        action = self.router.receive(message)
        if action is None:
            return None
        return self._program_switch(action)

    def receive_batch(self, messages: Sequence[BGPMessage]) -> List[float]:
        """Relay a batch of messages; returns every reroute completion time.

        The messages are handed to the router as one batch (the controller of
        §7 drains its BGP socket in bulk anyway); switch programming happens
        per resulting reroute action, timed from the action's own timestamp.
        """
        return [
            self._program_switch(action)
            for action in self.router.receive_batch(messages)
        ]

    def receive_columnar(self, source) -> List[float]:
        """Relay a columnar trace; returns every reroute completion time.

        Same semantics as :meth:`receive_batch` over the materialised stream,
        but the router consumes the trace's same-peer runs directly
        (:meth:`~repro.core.swifted_router.SwiftedRouter.receive_columnar`).
        """
        return [
            self._program_switch(action)
            for action in self.router.receive_columnar(source)
        ]

    def forward(self, destination: int) -> Optional[int]:
        """Data-plane next-hop for ``destination`` through the two devices."""
        return self.router.forward(destination)


@dataclass
class SwiftedDeployment:
    """Convenience bundle: run a Fig. 1 scenario through the §7 deployment."""

    controller: SwiftController

    @classmethod
    def for_scenario(
        cls,
        scenario: Fig1Scenario,
        config: Optional[SwiftConfig] = None,
    ) -> "SwiftedDeployment":
        """Build and provision a deployment from a Fig. 1 scenario."""
        controller = SwiftController(local_as=1, config=config)
        for peer_as in scenario.routes_via_peer:
            controller.add_peer(peer_as)
        for peer_as, routes in scenario.routes_via_peer.items():
            controller.load_initial_routes(
                peer_as, routes, local_pref=scenario.local_pref_of_peer[peer_as]
            )
        controller.provision()
        return cls(controller=controller)

    def run_burst(self, scenario: Fig1Scenario) -> Optional[float]:
        """Feed the failure burst; returns the SWIFT convergence time (seconds).

        The convergence time is measured from the failure instant to the
        completion of the switch programming triggered by the first accepted
        inference — the moment all affected traffic flows again.  The burst
        is consumed in columnar form (``scenario.columnar_burst()``) through
        the router's batched run path; results are identical to replaying
        the object stream.
        """
        completions = self.controller.receive_columnar(scenario.columnar_burst())
        if not completions:
            return None
        return completions[0] - scenario.failure_time
