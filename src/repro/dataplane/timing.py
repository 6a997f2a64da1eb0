"""Data-plane update timing model.

The paper's speed argument rests on published measurements of per-prefix FIB
update times: "Previous studies [24, 64] report median update time per-prefix
between 128 and 282 µs.  Hence, current routers would take between 2.7 and
5.9 seconds to reroute 21k prefixes ... and more than 1 minute for the full
Internet table" (§3.2), and on the observation that a SWIFTED router needs
only a few wildcard-rule updates, completing "within 130 ms" in the median
case (§6.5).

:class:`FibUpdateTimingModel` turns entry counts into wall-clock durations
for both operations so the convergence experiments (Table 1, Fig. 8, Fig. 9)
can be reproduced with a discrete-time model.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FibUpdateTimingModel"]


@dataclass(frozen=True)
class FibUpdateTimingModel:
    """Latencies of data-plane updates.

    Attributes
    ----------
    per_prefix_seconds:
        Time to install/remove one per-prefix FIB entry.  Defaults to 205 µs,
        the midpoint of the 128–282 µs range cited by the paper.
    per_rule_seconds:
        Time to install one wildcard rule in the second stage (TCAM / OpenFlow
        flow-mod); defaults to 2 ms, consistent with the "few data-plane rule
        updates ... within 130 ms" for the 64-rule median case of §6.5.
    control_plane_overhead_seconds:
        Fixed overhead per reroute activation (inference hand-off, rule
        computation, controller round trip in the §7 deployment).
    per_prefix_processing_seconds:
        Control-plane cost of processing one BGP withdrawal/update message
        (parsing, best-path re-selection).  Together with
        ``per_prefix_seconds`` this reproduces the roughly-linear downtime
        growth of Table 1 (~109 s for 290k prefixes, i.e. ~375 µs per prefix
        end to end).
    """

    per_prefix_seconds: float = 205e-6
    per_rule_seconds: float = 2e-3
    control_plane_overhead_seconds: float = 50e-3
    per_prefix_processing_seconds: float = 170e-6

    def __post_init__(self) -> None:
        if self.per_prefix_seconds <= 0:
            raise ValueError("per_prefix_seconds must be positive")
        if self.per_rule_seconds <= 0:
            raise ValueError("per_rule_seconds must be positive")
        if self.control_plane_overhead_seconds < 0:
            raise ValueError("control_plane_overhead_seconds must be non-negative")
        if self.per_prefix_processing_seconds < 0:
            raise ValueError("per_prefix_processing_seconds must be non-negative")

    # -- per-prefix path -----------------------------------------------------

    def per_prefix_update_time(self, prefix_count: int) -> float:
        """FIB-install time for ``prefix_count`` per-prefix updates."""
        if prefix_count < 0:
            raise ValueError("prefix_count must be non-negative")
        return prefix_count * self.per_prefix_seconds

    def per_prefix_convergence_time(self, prefix_count: int) -> float:
        """End-to-end time to process and install ``prefix_count`` prefixes.

        Covers BGP message processing plus FIB installation; this is the
        quantity Table 1 measures on a vanilla router.
        """
        if prefix_count < 0:
            raise ValueError("prefix_count must be non-negative")
        return prefix_count * (
            self.per_prefix_seconds + self.per_prefix_processing_seconds
        )

    # -- SWIFT path ------------------------------------------------------------

    def rule_update_time(self, rule_count: int) -> float:
        """Time to install ``rule_count`` wildcard rules (plus fixed overhead)."""
        if rule_count < 0:
            raise ValueError("rule_count must be non-negative")
        if rule_count == 0:
            return 0.0
        return self.control_plane_overhead_seconds + rule_count * self.per_rule_seconds
