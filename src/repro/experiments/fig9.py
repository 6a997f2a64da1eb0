"""Fig. 9(a) / §7 — case study: SWIFTing a router cuts convergence by ~98%.

The paper reproduces Fig. 1 with a Cisco Nexus 7k announcing 290k prefixes,
fails link (5, 6) and measures packet loss over time twice: with the vanilla
router (109 s to converge) and with the SWIFTED deployment of §7 (controller
+ OpenFlow switch), which converges within 2 s — a 98% speed-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.casestudy.controller import SwiftedDeployment
from repro.casestudy.testbed import build_fig1_scenario
from repro.casestudy.vanilla import VanillaRouterModel
from repro.core.swifted_router import SwiftConfig
from repro.core.encoding import EncoderConfig
from repro.dataplane.timing import FibUpdateTimingModel
from repro.metrics.convergence import downtime_series
from repro.metrics.tables import format_table

__all__ = ["Fig9Result", "run", "format_result"]


@dataclass
class Fig9Result:
    """Convergence of the vanilla and SWIFTED routers on the same outage."""

    prefix_count: int
    vanilla_convergence_seconds: float
    swift_convergence_seconds: float
    vanilla_loss_series: List[Tuple[float, float]]
    swift_loss_series: List[Tuple[float, float]]

    @property
    def speedup_percent(self) -> float:
        """Relative reduction of the convergence time (paper: ~98%)."""
        if self.vanilla_convergence_seconds <= 0:
            return 0.0
        return 100.0 * (
            1.0 - self.swift_convergence_seconds / self.vanilla_convergence_seconds
        )


def run(
    prefix_count: int = 290000,
    timing: Optional[FibUpdateTimingModel] = None,
    swift_config: Optional[SwiftConfig] = None,
    seed: int = 0,
) -> Fig9Result:
    """Run the case study for a given table size.

    The vanilla side uses the analytic converge-per-prefix model; the SWIFTED
    side actually replays the burst through the controller + switch pipeline
    until the first accepted inference completes its switch programming.
    """
    scenario = build_fig1_scenario(prefix_count=prefix_count, seed=seed)
    timing = timing or FibUpdateTimingModel()

    vanilla = VanillaRouterModel(timing=timing)
    vanilla_result = vanilla.converge_scenario(scenario)
    vanilla_seconds = vanilla_result.total_convergence_seconds

    config = swift_config or SwiftConfig(
        timing=timing, encoder=EncoderConfig(prefix_threshold=1500)
    )
    deployment = SwiftedDeployment.for_scenario(scenario, config=config)
    swift_seconds = deployment.run_burst(scenario)
    if swift_seconds is None:
        # No accepted inference (e.g. tiny table below the thresholds): SWIFT
        # degenerates to vanilla behaviour.
        swift_seconds = vanilla_seconds

    probe_recoveries_vanilla = [
        scenario.failure_time + downtime
        for downtime in vanilla_result.probe_downtimes(scenario.probe_prefixes)
    ]
    vanilla_series = downtime_series(
        probe_recoveries_vanilla, failure_time=scenario.failure_time, step=1.0
    )
    swift_series = downtime_series(
        [scenario.failure_time + swift_seconds] * len(scenario.probe_prefixes),
        failure_time=scenario.failure_time,
        horizon=max(vanilla_seconds, swift_seconds),
        step=1.0,
    )
    return Fig9Result(
        prefix_count=prefix_count,
        vanilla_convergence_seconds=vanilla_seconds,
        swift_convergence_seconds=swift_seconds,
        vanilla_loss_series=vanilla_series,
        swift_loss_series=swift_series,
    )


def format_result(result: Fig9Result) -> str:
    """Render the convergence comparison."""
    rows = [
        ("vanilla router", round(result.vanilla_convergence_seconds, 1), 109.0),
        ("SWIFTED router", round(result.swift_convergence_seconds, 1), 2.0),
    ]
    table = format_table(
        ["Deployment", "convergence (s)", "paper (s)"],
        rows,
        title=f"Fig. 9(a) - case study with {result.prefix_count // 1000}k prefixes",
    )
    return f"{table}\nspeed-up: {result.speedup_percent:.1f}% (paper: ~98%)"
