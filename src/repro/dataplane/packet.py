"""Packets traversing the modelled data plane."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["Packet"]


@dataclass
class Packet:
    """A data-plane packet.

    Only the fields the SWIFT pipeline touches are modelled: the destination
    address (used by the per-prefix first stage), the tag stamped by the
    first stage (carried in the destination MAC in the paper's deployment)
    and bookkeeping about where the packet ended up.
    """

    destination: int
    tag: Optional[int] = None
    egress_next_hop: Optional[int] = None
    timestamp: float = 0.0
