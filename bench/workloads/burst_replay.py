"""``burst_replay``: the mainline path — columnar chunks into a SWIFTED router."""

from __future__ import annotations

from bench.workloads.swifted import SwiftedBurstWorkload

__all__ = ["BurstReplay"]


class BurstReplay(SwiftedBurstWorkload):
    """One 16k-prefix session plus its backup session; 15 bursts of 3.3k-6.5k
    withdrawals, each followed by re-convergence, fed as 1000-row columnar
    chunks to :meth:`SwiftedRouter.receive_columnar`.

    Run segmentation, the columnar speaker walk, the column kernels, the
    burst detector and the inference do most of the work here; ingest, the
    cold backup computation and the trie do almost none.
    """

    name = "burst_replay"
    why = (
        "mainline path: 1000-row columnar chunks of 15 heal-and-fail bursts into "
        "receive_columnar; segmentation, kernels, detector and inference dominate"
    )
    per_message = False
