"""Shared timeout/retry policy for cross-party dependencies.

Both halves of the system wait on remote parties across an unstable
WAN (paper §2: "the network between two parties is unstable"): the
serving runtime waits for routing answers, and the fault-tolerant
training path (:mod:`repro.fed.reliable`) waits for delivery acks.
:class:`RetryPolicy` is the one knob set both share — per-attempt
timeout plus capped exponential backoff.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for one cross-party dependency.

    Attributes:
        timeout: seconds (simulated) to wait for an answer/ack.
        max_retries: resend attempts after the first try.
        backoff_base: sleep before the first retry.
        backoff_multiplier: growth factor per further retry.
        backoff_cap: upper bound on any single backoff sleep.
    """

    timeout: float = 0.25
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_cap: float = 1.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base <= 0:
            raise ValueError(
                "backoff_base must be positive (a negative base would "
                "yield negative sleeps)"
            )
        if self.backoff_multiplier < 1:
            raise ValueError(
                "backoff_multiplier must be >= 1 (a shrinking backoff "
                "defeats congestion avoidance)"
            )
        if self.backoff_cap < self.backoff_base:
            raise ValueError(
                "backoff_cap must be >= backoff_base (a cap below the "
                "base silently shrinks the first backoff)"
            )

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_multiplier ** (attempt - 1),
        )

