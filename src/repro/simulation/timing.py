"""Message pacing models.

Withdrawal bursts do not arrive instantaneously: the paper measures that
the median withdrawal takes 13 s to be received and that 37% of bursts last
more than 10 s, with large bursts taking the longest (§2.2.1, Fig. 2(b)),
and that a significant share of the withdrawals sits in the middle and tail
of a burst.  The pacing models below convert "the set of prefixes touched by
a burst" into a timestamped sequence reproducing those properties.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

__all__ = ["PacingModel", "UniformPacing", "EmpiricalPacing"]


class PacingModel:
    """Base class: assigns an arrival offset (seconds) to each of ``n`` items."""

    def offsets(self, count: int, rng: random.Random) -> List[float]:
        """Return ``count`` non-decreasing arrival offsets starting at ~0."""
        raise NotImplementedError


@dataclass(frozen=True)
class UniformPacing(PacingModel):
    """Spread messages uniformly at a fixed rate (messages per second).

    Used for controlled experiments where a deterministic arrival rate is
    wanted, e.g. feeding a router model at its per-prefix processing rate.
    """

    rate_per_second: float = 1000.0

    def __post_init__(self) -> None:
        if self.rate_per_second <= 0:
            raise ValueError("rate_per_second must be positive")

    def offsets(self, count: int, rng: random.Random) -> List[float]:
        interval = 1.0 / self.rate_per_second
        return [index * interval for index in range(count)]


@dataclass(frozen=True)
class EmpiricalPacing(PacingModel):
    """Pacing calibrated to the burst-duration behaviour of §2.2.1.

    The total duration of a burst grows with its size (large bursts take more
    time to be learned): we use ``duration = base + size / throughput`` with a
    default throughput of ~5,000 withdrawals/s, which makes a 10k burst last
    ~3-5 s, a 50k burst ~10-12 s and a 560k burst ~110 s — in line with the
    paper's observations (the largest burst, 570k withdrawals, took 105 s).

    Within the burst, arrivals are skewed towards the head but keep
    significant mass in the middle and the tail: offsets are drawn from a
    Beta-like distribution implemented with a power transform, such that
    roughly 55-65% of messages fall in the first third, ~25% in the middle
    third and ~10-15% in the tail — matching "50% of the bursts have at least
    26% of their withdrawals in the middle and 10% in the tail".
    """

    base_duration: float = 2.0
    throughput_per_second: float = 5000.0
    head_skew: float = 2.2
    jitter: float = 0.05

    def __post_init__(self) -> None:
        if self.base_duration < 0:
            raise ValueError("base_duration must be non-negative")
        if self.throughput_per_second <= 0:
            raise ValueError("throughput_per_second must be positive")
        if self.head_skew < 1.0:
            raise ValueError("head_skew must be >= 1 (1 = uniform)")

    def duration_for(self, count: int) -> float:
        """Total burst duration for ``count`` messages."""
        return self.base_duration + count / self.throughput_per_second

    def offsets(self, count: int, rng: random.Random) -> List[float]:
        if count <= 0:
            return []
        duration = self.duration_for(count)
        raw: List[float] = []
        for _ in range(count):
            u = rng.random()
            # Power transform skews mass towards 0 (the head of the burst).
            position = u ** self.head_skew
            if self.jitter:
                position += rng.uniform(-self.jitter, self.jitter) / max(count, 1)
            raw.append(min(max(position, 0.0), 1.0) * duration)
        raw.sort()
        return raw
