"""The workloads, by name, in report order."""

from __future__ import annotations

from typing import Dict, Tuple, Type

from bench.harness import Workload
from bench.workloads.burst_replay import BurstReplay
from bench.workloads.live_ingest import LiveIngest
from bench.workloads.relay_per_message import RelayPerMessage
from bench.workloads.table_churn import TableChurn

__all__ = ["GATED", "WORKLOADS"]

WORKLOADS: Dict[str, Type[Workload]] = {
    workload.name: workload
    for workload in (BurstReplay, RelayPerMessage, TableChurn, LiveIngest)
}

#: The workloads ``BENCHMARK.json`` lists, i.e. the ones a later change is
#: held to.  ``live_ingest`` is measured and reported but not listed: the
#: daemon fsyncs once per row and the ingest root has to be inside the
#: checkout, so its phase is disk wait, and ten runs of the same code on this
#: host's disk spread by 21% on ``msgs_per_s`` (2.3k-4.2k rows/s) — no bound
#: the contract allows would hold (see ``bench/README.md``).
GATED: Tuple[str, ...] = ("burst_replay", "relay_per_message", "table_churn")
