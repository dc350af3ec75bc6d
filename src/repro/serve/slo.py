"""Serving SLO watcher: sliding-window p99 and error-budget burn.

Watches a :class:`~repro.serve.session.ServingRuntime`'s completion
stream on the *simulated* clock (every timestamp is passed in, never
read from a wall clock — the watcher is as deterministic as the event
loop it observes).  Over a sliding window of recent completions it
tracks the p99 latency and the **burn rate**: the fraction of the
window that breached the latency SLO, divided by the error budget.  A
burn rate of 1.0 means the service is consuming its budget exactly as
fast as it is allowed to; sustained values above the alert threshold
open a ``burn_alert`` episode, closed when the rate drops back.

Every noteworthy transition — timeouts, degraded routing after an
exhausted retry budget, rejected admissions, degraded completions,
burn-alert open/close — is recorded once, as an
:class:`~repro.obs.events.Event` (subsystem ``"serve.slo"``) in the
watcher's :class:`~repro.obs.events.EventLog`: the shared flight
recorder it was handed, where its records interleave with every other
subsystem's, or a log of its own.  Records are read, filtered and
exported as JSONL through that log (:attr:`SLOWatcher.event_log`); the
watcher keeps only an exact per-kind tally beside it, because a ring
buffer may evict and ``summary()["events"]`` may not.

The watcher also publishes the ``serve.slo.p99`` and
``serve.slo.burn_rate`` gauges into a shared
:class:`~repro.obs.metrics.MetricsRegistry` when given one — the two
values the alert rules read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.obs.events import EventLog
from repro.obs.metrics import nearest_rank

__all__ = ["SLOPolicy", "SLOWatcher"]

_PREFIX = "serve.slo."


@dataclass(frozen=True)
class SLOPolicy:
    """The service-level objective being watched.

    Attributes:
        latency_slo: per-request latency objective in simulated
            seconds; a completion above it is a breach.
        window: completions per sliding window (p99 and burn rate are
            computed over the most recent this-many completions).
        error_budget: allowed breach fraction (0.01 = 1% of requests
            may breach before the budget burns at rate 1.0).
        burn_alert: burn rate at or above which an alert episode opens.
    """

    latency_slo: float = 0.5
    window: int = 64
    error_budget: float = 0.01
    burn_alert: float = 1.0

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.error_budget <= 1.0:
            raise ValueError("error_budget must be in (0, 1]")

    def to_dict(self) -> dict:
        return {
            "latency_slo": self.latency_slo,
            "window": self.window,
            "error_budget": self.error_budget,
            "burn_alert": self.burn_alert,
        }


class SLOWatcher:
    """Observe completions and timeouts; judge them against a policy.

    Args:
        policy: the SLO being watched (defaults are serving-bench
            scaled: 500 ms objective, 64-completion window, 1% budget).
        registry: optional shared
            :class:`~repro.obs.metrics.MetricsRegistry`; when given,
            the watcher publishes the ``serve.slo.p99`` /
            ``serve.slo.burn_rate`` gauges there.
        labels: constant key/values merged into every event (scenario
            tags in multi-runtime benches).
        event_log: the :class:`~repro.obs.events.EventLog` every
            transition is recorded in (the shared flight recorder);
            the watcher creates its own when omitted.
    """

    def __init__(
        self,
        policy: SLOPolicy | None = None,
        registry=None,
        labels: dict | None = None,
        event_log=None,
    ) -> None:
        self.policy = policy or SLOPolicy()
        self.registry = registry
        self.labels = dict(labels or {})
        self.event_log = event_log if event_log is not None else EventLog()
        #: (latency, breached) of the most recent completions
        self._window: deque = deque(maxlen=self.policy.window)
        #: exact per-kind totals (the log is a ring buffer and may evict)
        self._tally: dict[str, int] = {}
        self.completions = 0
        self.breaches = 0
        self.alert_open = False
        self.alerts = 0

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------
    def _emit(self, kind: str, now: float, **fields) -> None:
        self.event_log.emit(now, "serve.slo", kind, labels=self.labels, **fields)
        self._tally[kind] = self._tally.get(kind, 0) + 1

    def _publish_gauges(self) -> None:
        if self.registry is not None:
            self.registry.set_gauge(_PREFIX + "p99", self.window_p99())
            self.registry.set_gauge(_PREFIX + "burn_rate", self.burn_rate())

    # ------------------------------------------------------------------
    # Feed
    # ------------------------------------------------------------------
    def on_completion(self, outcome, now: float) -> None:
        """Ingest one finished request (a ``Prediction``-like object)."""
        if getattr(outcome, "rejected", False):
            self._emit("rejected", now, request_id=outcome.request_id)
            return
        latency = outcome.latency
        breached = latency > self.policy.latency_slo
        self.completions += 1
        if breached:
            self.breaches += 1
        self._window.append((latency, breached))
        if getattr(outcome, "degraded", False):
            self._emit(
                "degraded",
                now,
                request_id=outcome.request_id,
                rows=int(outcome.degraded_rows.sum()),
            )
        burn = self.burn_rate()
        if burn >= self.policy.burn_alert and not self.alert_open:
            self.alert_open = True
            self.alerts += 1
            self._emit(
                "burn_alert_start", now, burn_rate=burn, p99=self.window_p99()
            )
        elif burn < self.policy.burn_alert and self.alert_open:
            self.alert_open = False
            self._emit("burn_alert_end", now, burn_rate=burn)
        self._publish_gauges()

    def on_timeout(
        self,
        party: int,
        batch_id: int,
        attempt: int,
        now: float,
        exhausted: bool = False,
    ) -> None:
        """Ingest one batch timeout (``exhausted`` = budget spent)."""
        self._emit(
            "timeout", now, party=party, batch_id=batch_id, attempt=attempt
        )
        if exhausted:
            self._emit(
                "degraded_route", now, party=party, batch_id=batch_id
            )

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def window_size(self) -> int:
        """Completions currently in the sliding window (evidence count)."""
        return len(self._window)

    def window_p99(self) -> float:
        """Nearest-rank p99 latency over the sliding window (0 empty)."""
        return nearest_rank((latency for latency, _ in self._window), 0.99)

    def breach_fraction(self) -> float:
        """Fraction of the window that breached the latency SLO."""
        if not self._window:
            return 0.0
        return sum(1 for _, breached in self._window if breached) / len(
            self._window
        )

    def burn_rate(self) -> float:
        """Window breach fraction over the error budget (1.0 = on pace)."""
        return self.breach_fraction() / self.policy.error_budget

    def summary(self) -> dict:
        """JSON-ready posture: policy, totals, window stats, event tally."""
        return {
            "policy": self.policy.to_dict(),
            "completions": self.completions,
            "breaches": self.breaches,
            "window_p99": self.window_p99(),
            "burn_rate": self.burn_rate(),
            "alert_open": self.alert_open,
            "alerts": self.alerts,
            "events": dict(sorted(self._tally.items())),
        }
