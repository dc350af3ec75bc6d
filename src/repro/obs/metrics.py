"""Metrics registry: counters, gauges and streaming histograms.

A :class:`MetricsRegistry` is the serving side's sink for counters and
distributions: a runtime counts requests, round trips and latency
quantiles under ``serve.*``, a fleet rolls its replicas up under
``fleet.*``, the SLO watcher publishes its two gauges, and the alert
engine reads them.  Messages and transitions are not mirrored here —
they live in the channel ledger and the event log — and training does
not report here at all (DESIGN §4.8).

Everything here is zero-dependency and fed *deterministic* quantities
(operation counts, simulated seconds, wire bytes), so snapshots are
bit-repeatable across runs — the registry is part of the repository's
exact-repeatability contract, not an approximate monitoring sidecar.
Quantiles are exact (computed from retained samples), not sketched:
bench-scale sample counts make that the simpler and more honest choice.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

__all__ = [
    "COUNT_BUCKETS",
    "DEFAULT_MAX_SAMPLES",
    "Histogram",
    "LATENCY_BUCKETS",
    "MetricsRegistry",
    "nearest_rank",
]

#: default latency bucket upper bounds, in simulated seconds
LATENCY_BUCKETS = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)

#: default occupancy/depth bucket upper bounds (counts)
COUNT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


#: default retained-sample cap; high enough that every test/bench
#: workload in this repository stays below it (quantiles stay exact)
DEFAULT_MAX_SAMPLES = 65_536


def nearest_rank(values: Iterable[float], q: float) -> float:
    """Nearest-rank q-quantile of ``values`` (0.0 when empty).

    The ``ceil(q * n)``-th smallest value — the one quantile definition
    every latency statistic in the repository reports.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass
class Histogram:
    """Fixed-bucket histogram with exact quantiles up to a sample cap.

    Attributes:
        bounds: ascending bucket upper bounds; one implicit overflow
            bucket sits above the last bound.
        max_samples: retained-sample bound.  Below it every sample is
            kept and quantiles are exact.  At the cap the retained list
            is decimated deterministically (every other retained sample
            is dropped and the keep-stride doubles), so memory stays
            bounded under sustained serve load while quantiles degrade
            to a uniform 1-in-stride subsample.  ``count``, ``mean``
            and ``max`` are tracked exactly forever, and the whole
            scheme is a pure function of the observation sequence —
            bit-repeatable, per the repository's determinism contract.
    """

    bounds: tuple[float, ...] = LATENCY_BUCKETS
    counts: list[int] = field(default_factory=list)
    samples: list[float] = field(default_factory=list)
    max_samples: int = DEFAULT_MAX_SAMPLES

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("bucket bounds must be ascending")
        if self.max_samples < 2:
            raise ValueError("max_samples must be at least 2")
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)
        self._stride = 1
        self._observed = len(self.samples)
        self._sum = float(sum(self.samples))
        self._max = max(self.samples) if self.samples else 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        bucket = len(self.bounds)
        for k, bound in enumerate(self.bounds):
            if value <= bound:
                bucket = k
                break
        self.counts[bucket] += 1
        value = float(value)
        index = self._observed
        self._observed += 1
        self._sum += value
        if index == 0 or value > self._max:
            self._max = value
        if index % self._stride == 0:
            self.samples.append(value)
            if len(self.samples) >= self.max_samples:
                # Keep arrivals with index % (2 * stride) == 0: the
                # even positions of the retained list, in order.
                self.samples = self.samples[::2]
                self._stride *= 2

    @property
    def count(self) -> int:
        """Number of observed samples (exact, unaffected by the cap)."""
        return self._observed

    @property
    def stride(self) -> int:
        """Current keep-stride (1 = every sample retained, exact)."""
        return self._stride

    def mean(self) -> float:
        """Arithmetic mean over all observations (0.0 when empty)."""
        if not self._observed:
            return 0.0
        return self._sum / self._observed

    def quantile(self, q: float) -> float:
        """Nearest-rank q-quantile over the retained samples.

        Exact while fewer than ``max_samples`` values have been
        observed; a deterministic uniform subsample beyond that.
        Returns 0.0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        return nearest_rank(self.samples, q)

    def snapshot(self) -> dict:
        """JSON-ready summary: count, mean, p50/p95/p99, buckets."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self._max if self._observed else 0.0,
            "buckets": {
                **{f"le_{bound:g}": self.counts[k] for k, bound in enumerate(self.bounds)},
                "overflow": self.counts[-1],
            },
        }


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Names are flat dotted strings (``"serve.requests"``,
    ``"fleet.replica0.shed"``); the dots are a naming
    convention, not a hierarchy.  All accessors create on first use, so
    reporting code never has to pre-register anything.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> int:
        """Bump a monotonic counter; returns the new value."""
        value = self._counters.get(name, 0) + amount
        self._counters[name] = value
        return value

    def get(self, name: str) -> int:
        """Read a counter (0 when never bumped)."""
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Counters whose name starts with ``prefix``, prefix stripped."""
        return {
            name[len(prefix):]: value
            for name, value in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge."""
        self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Read a gauge (``default`` when never set)."""
        return self._gauges.get(name, default)

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def histogram(
        self, name: str, bounds: tuple[float, ...] = LATENCY_BUCKETS
    ) -> Histogram:
        """Get-or-create a histogram (``bounds`` apply on creation only)."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(bounds)
        return self._histograms[name]

    def observe(self, name: str, value: float) -> None:
        """Record one sample into a (get-or-create) histogram."""
        self.histogram(name).observe(value)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-ready view of everything, keys sorted (repeatable)."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: hist.snapshot()
                for name, hist in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = 1) -> str:
        """Serialized :meth:`snapshot` (sorted keys, repeatable bytes)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def reset(self) -> None:
        """Drop every counter, gauge and histogram."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
