"""Unified retry/timeout/backoff policies for the execution stack.

Before this module, retry behaviour was scattered: the scheduler counted
crash retries with a bare integer, ``RemoteFleet`` redialed on a fixed
0.2s sleep, and the worker agent retried its connect with a constant
delay.  ``RetryPolicy`` and ``TimeoutPolicy`` centralise those knobs so
every seam (scheduler, fleet, worker, service) reads the same semantics:

* **quarantine_after** — how many *worker-killing* re-leases a task may
  cause before it is quarantined (settled ``QUARANTINED`` instead of
  being handed to yet another worker it will probably kill).
* **retry_budget** — an optional scheduler-wide cap on total crash
  retries across all tasks; once exhausted, further casualties settle
  immediately instead of being requeued.
* **backoff** — jittered exponential delay before a retried task becomes
  dispatchable again.  Deterministic when ``seed`` is set.

This module is stdlib-only and imports nothing from ``repro`` so it can
be pulled into ``core.config`` without cycles.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional

__all__ = ["RetryPolicy", "TimeoutPolicy", "ResilienceConfig"]


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How many times, and how eagerly, failed work is re-attempted.

    Job specs pickled before the ``max_retries`` field was removed still
    load: the stale value lands as a plain instance attribute nothing reads.
    """

    #: Worker-killing re-leases a task may cause before QUARANTINED.
    quarantine_after: int = 2
    #: Optional scheduler-wide cap on total crash retries (None = unbounded).
    retry_budget: Optional[int] = None
    #: Base delay (seconds) before the first retry; <= 0 disables backoff.
    backoff_base: float = 0.05
    #: Multiplier applied per additional attempt.
    backoff_factor: float = 2.0
    #: Ceiling on any single backoff delay.
    backoff_max: float = 2.0
    #: Fraction of the delay randomised (0.5 -> delay * uniform(0.5, 1.5)).
    backoff_jitter: float = 0.5
    #: Seed for the jitter RNG; None draws from the global RNG.
    seed: Optional[int] = None

    def rng(self) -> random.Random:
        return random.Random(self.seed)

    def backoff_delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before dispatching retry number ``attempt`` (1-based)."""
        if self.backoff_base <= 0:
            return 0.0
        raw = self.backoff_base * (self.backoff_factor ** max(0, attempt - 1))
        raw = min(raw, self.backoff_max)
        if self.backoff_jitter > 0:
            draw = (rng or random).uniform(-self.backoff_jitter, self.backoff_jitter)
            raw *= 1.0 + draw
        return max(0.0, raw)


@dataclasses.dataclass(frozen=True)
class TimeoutPolicy:
    """Deadlines and grace periods shared across the execution seams."""

    #: Seconds past a task deadline before the scheduler cancels it.
    deadline_grace: float = 5.0
    #: Seconds past a deadline before the scheduler's cooperative cancel nudge.
    nudge_delay: float = 1.0
    #: Socket connect timeout for worker dials.
    connect_timeout: float = 5.0
    #: Hello/welcome handshake timeout.
    handshake_timeout: float = 10.0
    #: How long a fleet waits for its first worker before giving up.
    start_timeout: float = 20.0


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """Resilience knobs threaded through ``SynthesisConfig``."""

    retry: RetryPolicy = dataclasses.field(default_factory=RetryPolicy)
    timeout: TimeoutPolicy = dataclasses.field(default_factory=TimeoutPolicy)
    #: Walk the remote fleet -> local workers -> sequential ladder instead
    #: of failing fast.
    degrade_ladder: bool = True
    #: Local worker count used when degrading from a lost remote fleet.
    degrade_workers: int = 2
