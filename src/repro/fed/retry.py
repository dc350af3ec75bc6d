"""Shared timeout/retry policy for cross-party dependencies.

Both halves of the system wait on remote parties across an unstable
WAN (paper §2: "the network between two parties is unstable"): the
serving runtime waits for routing answers, and the fault-tolerant
training path (:mod:`repro.fed.reliable`) waits for delivery acks.
:class:`RetryPolicy` is the one knob set both share — per-attempt
timeout plus capped exponential backoff (0.05 s before the first
retry, doubling per further retry, never above 1 s).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]

#: sleep before the first retry, its growth per further retry, and the
#: bound on any single sleep
_BACKOFF_BASE = 0.05
_BACKOFF_MULTIPLIER = 2.0
_BACKOFF_CAP = 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/retry knobs for one cross-party dependency.

    Attributes:
        timeout: seconds (simulated) to wait for an answer/ack.
        max_retries: resend attempts after the first try.
    """

    timeout: float = 0.25
    max_retries: int = 2

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")

    def backoff(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            _BACKOFF_CAP, _BACKOFF_BASE * _BACKOFF_MULTIPLIER ** (attempt - 1)
        )

