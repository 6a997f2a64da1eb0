"""Data-plane substrate: packets, two-stage forwarding table, update timing.

SWIFT's second ingredient is a data-plane design: a *two-stage* forwarding
table whose first stage tags packets by destination prefix and whose second
stage forwards on (portions of) the tag, so that one wildcard rule reroutes
arbitrarily many prefixes (§3.2, §5).  This package models that pipeline at
the granularity the evaluation needs:

* :mod:`repro.dataplane.packet` — packets with a destination address and the
  tag stamped by stage 1,
* :mod:`repro.dataplane.fib` — the two-stage table (used by SWIFTED
  routers),
* :mod:`repro.dataplane.timing` — per-prefix and per-rule update latencies
  taken from the measurements the paper cites (128–282 µs per prefix).
"""

from repro.dataplane.fib import (
    ForwardingDecision,
    TwoStageForwardingTable,
)
from repro.dataplane.packet import Packet
from repro.dataplane.timing import FibUpdateTimingModel

__all__ = [
    "FibUpdateTimingModel",
    "ForwardingDecision",
    "Packet",
    "TwoStageForwardingTable",
]
