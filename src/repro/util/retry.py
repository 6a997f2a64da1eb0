"""Bounded retry with exponential backoff and deterministic jitter.

The streaming ingestion daemon (:mod:`repro.ingest`) restarts failed or
stalled feed readers under this policy.  The jitter is seeded (a pure
function of ``(seed, attempt)``), so reruns sleep identically: retry timing
can never make an otherwise deterministic run diverge.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How a supervisor retries a failing unit of work.

    ``max_attempts`` counts the first try: the default of 3 means one try
    plus two retries.  The delay before attempt ``n``'s resubmission is
    ``min(backoff_base * backoff_factor**n, backoff_max)`` stretched by a
    deterministic jitter fraction in ``[0, jitter]`` — seeded, so reruns
    sleep identically.  The policy bounds attempts, not their duration:
    the ingestion daemon's watchdog applies its own stall deadline.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")

    def delay(self, attempt: int) -> float:
        """Seconds to back off before resubmitting attempt ``attempt + 1``."""
        base = min(self.backoff_base * (self.backoff_factor**attempt), self.backoff_max)
        if self.jitter <= 0:
            return base
        fraction = Random(f"{self.seed}:{attempt}").random()
        return base * (1.0 + self.jitter * fraction)
