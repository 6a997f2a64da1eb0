"""BGP noise injection.

Real BGP sessions carry a steady trickle of messages unrelated to any given
outage (misconfigurations, route flaps, router bugs).  The paper quantifies
the noise floor at ~9 withdrawals per 10 s at the 90th percentile (§2.2.1)
and stresses the inference algorithm by adding 1,000 unrelated withdrawals
per simulated burst (§6.2.2).  This module injects the latter into a
message stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.bgp.messages import BGPMessage, Update
from repro.bgp.prefix import Prefix

__all__ = ["NoiseConfig", "inject_noise"]


@dataclass(frozen=True)
class NoiseConfig:
    """Parameters of the injected noise.

    ``burst_noise_withdrawals`` unrelated withdrawals are spread uniformly
    over the burst window (the §6.2.2 stress test).
    """

    burst_noise_withdrawals: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.burst_noise_withdrawals < 0:
            raise ValueError("burst_noise_withdrawals must be non-negative")


def inject_noise(
    messages: Sequence[BGPMessage],
    unaffected_prefixes: Sequence[Prefix],
    peer_as: int,
    config: NoiseConfig,
) -> List[BGPMessage]:
    """Return a new message list with noise withdrawals mixed in.

    Parameters
    ----------
    messages:
        The original (sorted) burst messages.
    unaffected_prefixes:
        Prefixes *not* affected by the outage, from which noise victims are
        drawn without replacement.
    peer_as:
        The session peer the noise appears to come from.
    config:
        Noise parameters.

    The noise spans the messages' time window.
    """
    if not messages:
        return list(messages)
    rng = random.Random(config.seed)
    start = messages[0].timestamp
    end = messages[-1].timestamp
    if end <= start:
        end = start + 1.0

    noise: List[BGPMessage] = []
    pool = list(unaffected_prefixes)
    rng.shuffle(pool)

    count = min(config.burst_noise_withdrawals, len(pool))
    for index in range(count):
        timestamp = rng.uniform(start, end)
        noise.append(Update.withdraw(timestamp, peer_as, pool[index]))

    merged = sorted(list(messages) + noise, key=lambda m: m.timestamp)
    return merged
