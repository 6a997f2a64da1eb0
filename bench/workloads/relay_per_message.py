"""``relay_per_message``: the same rows as objects, one ``receive`` at a time."""

from __future__ import annotations

from bench.workloads.swifted import SwiftedBurstWorkload

__all__ = ["RelayPerMessage"]


class RelayPerMessage(SwiftedBurstWorkload):
    """The burst corpus materialised to ``BGPMessage`` objects and handed one
    at a time to :meth:`SwiftedRouter.receive`, as the §7 controller relays
    them.

    Same speaker, inference and router layers as ``burst_replay``, used
    differently: object path, per-message decision, no kernels, no run
    segmentation.  A kernel win must not move this workload, and turning
    ``receive(msg)`` into an adapter over the run path is only safe if it
    holds.
    """

    name = "relay_per_message"
    why = (
        "same layers used differently: BGPMessage objects one receive() at a time "
        "(the controller relay); no kernels or run segmentation, so kernel wins must not move it"
    )
    per_message = True
