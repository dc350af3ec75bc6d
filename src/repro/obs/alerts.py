"""Declarative, deterministic alert engine over the metrics registry.

An :class:`AlertEngine` holds a list of :class:`AlertRule`\\ s and is
evaluated explicitly at simulated-clock instants
(:meth:`AlertEngine.evaluate`); it never reads a wall clock and keeps
no hidden timers, so two identical runs open and close exactly the
same alert episodes at exactly the same timestamps.  Both rule kinds
read a gauge:

* ``"burn_rate"`` — fires while the SLO watcher's
  ``serve.slo.burn_rate`` gauge is at or above ``value`` (see
  :mod:`repro.serve.slo`);
* ``"band"`` — a gauge leaving the closed interval ``[low, high]``
  (calibration / golden-metric drift).

Transitions are emitted as ``alert_open`` / ``alert_close`` events into
a shared :class:`~repro.obs.events.EventLog` (subsystem
``"obs.alerts"``); a Chrome trace of the run draws them as instants,
being a view of that log.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["AlertEngine", "AlertRule", "band_rule", "burn_rate_rule"]

_KINDS = ("burn_rate", "band")


@dataclass(frozen=True)
class AlertRule:
    """One declarative alert condition.

    Attributes:
        name: unique rule name (the alert's identity in events).
        kind: ``burn_rate`` or ``band``.
        metric: registry gauge read at evaluation.
        value: burn-rate bound (burn_rate rules only).
        low / high: the allowed closed band (band rules only).
    """

    name: str
    kind: str
    metric: str
    value: float = 0.0
    low: float = 0.0
    high: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.kind == "band" and self.low > self.high:
            raise ValueError("band low must be <= high")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "value": self.value,
            "low": self.low,
            "high": self.high,
        }


def burn_rate_rule(
    name: str,
    value: float = 1.0,
    metric: str = "serve.slo.burn_rate",
    **kwargs,
) -> AlertRule:
    """Fire while the SLO burn-rate gauge is at or above ``value``."""
    return AlertRule(
        name=name, kind="burn_rate", metric=metric, value=value, **kwargs
    )


def band_rule(
    name: str, metric: str, low: float, high: float, **kwargs
) -> AlertRule:
    """Fire while a gauge sits outside the closed ``[low, high]`` band."""
    return AlertRule(
        name=name, kind="band", metric=metric, low=low, high=high, **kwargs
    )


class AlertEngine:
    """Evaluates rules against a registry on the injected clock.

    Args:
        registry: the shared
            :class:`~repro.obs.metrics.MetricsRegistry` read at every
            evaluation.
        rules: the rule list; names must be unique.  Evaluation order
            is the list order (deterministic).
        event_log: optional :class:`~repro.obs.events.EventLog` that
            receives ``alert_open`` / ``alert_close`` events.
        labels: constant labels merged into every emitted event.
    """

    def __init__(
        self,
        registry,
        rules: list[AlertRule],
        event_log=None,
        labels: dict | None = None,
    ) -> None:
        names = [rule.name for rule in rules]
        if len(set(names)) != len(names):
            raise ValueError("alert rule names must be unique")
        self.registry = registry
        self.rules = list(rules)
        self.event_log = event_log
        self.labels = dict(labels or {})
        self.episodes: list[dict] = []
        self.evaluations = 0
        #: rule name -> its open episode, absent while the rule is quiet
        self._open: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def _observe(self, rule: AlertRule):
        """(observed gauge value, firing?) for one rule."""
        value = float(self.registry.gauge(rule.metric, 0.0))
        if rule.kind == "band":
            return value, value < rule.low or value > rule.high
        return value, value >= rule.value

    def evaluate(self, now: float) -> list[dict]:
        """Evaluate every rule at simulated time ``now``.

        Returns the transitions that occurred, in rule order (each a
        reference into :attr:`episodes`).
        """
        self.evaluations += 1
        transitions: list[dict] = []
        for rule in self.rules:
            value, firing = self._observe(rule)
            episode = self._open.get(rule.name)
            if firing and episode is None:
                episode = {
                    "rule": rule.name,
                    "kind": rule.kind,
                    "metric": rule.metric,
                    "opened": now,
                    "value": value,
                }
                self._open[rule.name] = episode
                self.episodes.append(episode)
                transitions.append(episode)
                self._emit("alert_open", now, rule, value)
            elif not firing and episode is not None:
                episode["closed"] = now
                episode["close_value"] = value
                del self._open[rule.name]
                transitions.append(episode)
                self._emit("alert_close", now, rule, value)
        return transitions

    def _emit(self, kind: str, now: float, rule: AlertRule, value) -> None:
        if self.event_log is None:
            return
        self.event_log.emit(
            now,
            "obs.alerts",
            kind,
            labels={**self.labels, "rule": rule.name},
            metric=rule.metric,
            value=value,
        )

    # ------------------------------------------------------------------
    # Read
    # ------------------------------------------------------------------
    def open_alerts(self) -> list[dict]:
        """Currently-open episodes, in rule order."""
        return [
            dict(self._open[rule.name])
            for rule in self.rules
            if rule.name in self._open
        ]

    def summary(self) -> dict:
        """JSON-ready posture (the RunReport v5 ``alerts`` field)."""
        return {
            "rules": [rule.to_dict() for rule in self.rules],
            "evaluations": self.evaluations,
            "episodes": [dict(episode) for episode in self.episodes],
            "open": self.open_alerts(),
        }
