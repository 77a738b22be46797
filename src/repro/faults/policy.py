"""Recovery policies: bounded retry with exponential backoff + jitter.

One policy object is shared by every layer that retries — the
controller's mini-batch reloads and the supervised worker pool — so
"how patient is the system" is a single configuration surface.

:meth:`RetryPolicy.delay` is the deterministic exponential *cap*;
:meth:`RetryPolicy.jittered_delay` draws seeded **full jitter**
(``uniform(0, cap)``, AWS-style) so many actors retrying the same
failure never synchronize into a retry storm, while two runs with the
same seeds still sleep identical sequences.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..config import FaultsConfig


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff.

    ``delay(attempt)`` is the pause cap before retry ``attempt``
    (0-based): ``backoff_s * backoff_factor ** attempt``.  An operation
    that fails more than ``max_retries`` times is permanently failed and
    handed to the caller's degradation path (skip-and-reweight for
    batches, poison quarantine for supervised shards).
    """

    max_retries: int = 3
    backoff_s: float = 0.05
    backoff_factor: float = 2.0

    @classmethod
    def from_faults(cls, faults: FaultsConfig) -> "RetryPolicy":
        return cls(
            max_retries=faults.max_retries,
            backoff_s=faults.retry_backoff_s,
            backoff_factor=faults.retry_backoff_factor,
        )

    def delay(self, attempt: int) -> float:
        """Deterministic backoff cap before 0-based retry ``attempt``."""
        if attempt < 0:
            raise ValueError("attempt must be >= 0")
        return self.backoff_s * self.backoff_factor ** attempt

    def jitter_rng(self, seed: int, actor: str) -> random.Random:
        """A per-actor jitter stream: same (seed, actor) → same sleeps.

        Distinct actors (``"parallel.supervisor"``, ...) draw from
        decorrelated streams, which is the whole point — concurrent
        retriers spread out instead of waking in lockstep.
        """
        return random.Random(f"{seed}:{actor}:retry-jitter")

    def jittered_delay(self, attempt: int,
                       rng: "random.Random") -> float:
        """Full-jitter pause before retry ``attempt``: uniform in
        ``[0, delay(attempt)]``, drawn from ``rng`` (seeded, so runs
        replay the exact same pauses)."""
        return rng.uniform(0.0, self.delay(attempt))

    def total_delay(self, attempts: int) -> float:
        """Summed backoff caps across the first ``attempts`` retries."""
        return sum(self.delay(a) for a in range(attempts))

    def gives_up_after(self, failures: int) -> bool:
        """Does ``failures`` consecutive failures exhaust the budget?"""
        return failures > self.max_retries
