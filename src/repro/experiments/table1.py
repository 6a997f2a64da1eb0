"""Table 1 — data-plane downtime of a vanilla router vs burst size.

Paper numbers (Cisco Nexus 7k, Fig. 1 topology, failure of (5, 6)):

=============  ==============
Withdrawals    Downtime (sec)
=============  ==============
10k            3.8
50k            19.0
100k           37.9
290k           109.0
=============  ==============

The reproduction replays the same scenario through the
:class:`~repro.casestudy.vanilla.VanillaRouterModel`: downtime grows roughly
linearly with the burst size because every prefix must be processed and
re-installed individually.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.casestudy.testbed import build_fig1_scenario
from repro.casestudy.vanilla import VanillaRouterModel
from repro.dataplane.timing import FibUpdateTimingModel
from repro.metrics.tables import format_table

__all__ = ["Table1Result", "PAPER_TABLE1", "run", "format_result"]

#: The paper's measured downtimes, for side-by-side comparison.
PAPER_TABLE1: Dict[int, float] = {10000: 3.8, 50000: 19.0, 100000: 37.9, 290000: 109.0}


@dataclass(frozen=True)
class Table1Result:
    """Measured downtime per burst size."""

    downtime_of: Dict[int, float]
    probe_max_downtime_of: Dict[int, float]


def run(
    burst_sizes: Sequence[int] = (10000, 50000, 100000, 290000),
    timing: Optional[FibUpdateTimingModel] = None,
    probe_count: int = 100,
    use_probes: bool = True,
    seed: int = 0,
) -> Table1Result:
    """Reproduce Table 1 for the given burst sizes.

    ``use_probes=False`` skips the per-probe replay (useful for very large
    sizes in quick runs) and relies on the analytic model only.
    """
    model = VanillaRouterModel(timing=timing)
    downtimes: Dict[int, float] = {}
    probe_downtimes: Dict[int, float] = {}
    for size in burst_sizes:
        downtimes[size] = model.downtime_for_burst_size(size)
        if use_probes:
            scenario = build_fig1_scenario(
                prefix_count=size, probe_count=probe_count, seed=seed
            )
            result = model.converge_scenario(scenario)
            probes = result.probe_downtimes(scenario.probe_prefixes)
            probe_downtimes[size] = max(probes) if probes else 0.0
        else:
            probe_downtimes[size] = downtimes[size]
    return Table1Result(downtime_of=downtimes, probe_max_downtime_of=probe_downtimes)


def format_result(result: Table1Result) -> str:
    """Render the reproduced table next to the paper's numbers."""
    rows: List[Tuple[object, ...]] = []
    for size in sorted(result.downtime_of):
        paper = PAPER_TABLE1.get(size)
        rows.append(
            (
                f"{size // 1000}k",
                round(result.downtime_of[size], 1),
                round(result.probe_max_downtime_of[size], 1),
                paper if paper is not None else "-",
            )
        )
    return format_table(
        ["Withdrawals", "Model downtime (s)", "Probe downtime (s)", "Paper (s)"],
        rows,
        title="Table 1 - vanilla router downtime vs burst size",
    )
