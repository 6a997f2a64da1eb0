"""Downtime probing (the measurement methodology of §2.1.2 / §7).

The paper injects traffic towards 100 random addresses inside the withdrawn
prefixes and measures, per probe, how long packets are dropped after the
failure.  :func:`measure_downtime` reproduces that measurement against any
"forwarding over time" function, and :class:`DowntimeReport` summarises it
(max downtime for Table 1, loss-percentage series for Fig. 9(a)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bgp.prefix import Prefix
from repro.metrics.convergence import downtime_series

__all__ = ["DowntimeReport", "measure_downtime"]

#: A forwarding oracle: (prefix, time) -> next-hop AS or None (blackhole).
ForwardingOracle = Callable[[Prefix, float], Optional[int]]


@dataclass(frozen=True)
class DowntimeReport:
    """Per-probe downtimes and the derived statistics."""

    downtimes: Dict[Prefix, float]
    failure_time: float
    horizon: float

    @property
    def max_downtime(self) -> float:
        """Downtime of the slowest probe (Table 1's number)."""
        return max(self.downtimes.values()) if self.downtimes else 0.0

    def loss_series(self, step: float = 1.0) -> List[Tuple[float, float]]:
        """Packet-loss percentage over time (Fig. 9(a))."""
        recovery_times = [
            self.failure_time + downtime for downtime in self.downtimes.values()
        ]
        return downtime_series(
            recovery_times, failure_time=self.failure_time, horizon=self.horizon, step=step
        )


def measure_downtime(
    probes: Sequence[Prefix],
    forwarding: ForwardingOracle,
    working_next_hops: Sequence[int],
    failure_time: float,
    horizon: float,
    step: float = 0.1,
) -> DowntimeReport:
    """Measure per-probe downtime against a forwarding oracle.

    A probe is considered recovered at the first sampling instant at which
    the oracle maps it to a next-hop that actually reaches the destination
    after the failure (``working_next_hops``); forwarding to a dead next-hop
    or to nothing counts as loss, exactly like the blackholed testbed traffic.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    working = set(working_next_hops)
    downtimes: Dict[Prefix, float] = {}
    for probe in probes:
        recovered_at: Optional[float] = None
        current = failure_time
        while current <= horizon:
            next_hop = forwarding(probe, current)
            if next_hop is not None and next_hop in working:
                recovered_at = current
                break
            current += step
        downtime = (recovered_at - failure_time) if recovered_at is not None else (
            horizon - failure_time
        )
        downtimes[probe] = downtime
    return DowntimeReport(
        downtimes=downtimes, failure_time=failure_time, horizon=horizon
    )
