"""Deterministic load generation for the serving runtime.

Two classic shapes, both fully seeded so every run of
``python -m repro.serve.bench`` reproduces byte-identical results:

* **open loop** — arrivals follow a Poisson process at a fixed rate,
  independent of completions (models internet traffic; exposes queueing
  collapse when the offered load exceeds capacity);
* **closed loop** — a fixed number of concurrent streams, each issuing
  its next request the moment the previous one finishes (models a
  fleet of upstream workers; pins concurrency exactly, which is what
  the micro-batching comparison wants).

Open-loop arrivals can additionally follow a **heavy-tail trace**: the
Poisson process is made inhomogeneous by scaling its instantaneous
rate with a pure function of the simulated clock (see :data:`TRACES`) —
a diurnal ramp, a flash crowd, or sustained overload.  Traces are what
the fleet bench (:mod:`repro.serve.fleet`) sweeps replica counts
against, since a constant-rate workload never pushes one replica past
its admission capacity.  Requests can also carry ``session_id`` drawn
from a power-law popularity distribution (``n_sessions`` /
``session_skew``), giving the consistent-hash router realistic hot
sessions to pin.

The generator also builds the deterministic fault injector
(:func:`make_party_delay`) used to exercise timeout → retry → degraded
routing: whether a given (party, batch, attempt) is slow is a pure
function of the seed, never of host randomness.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro.serve.session import Prediction, Request, ServingRuntime

__all__ = [
    "LoadgenConfig",
    "TRACES",
    "make_requests",
    "make_party_delay",
    "run_open_loop",
    "run_closed_loop",
]


def _diurnal(t: float) -> float:
    """Smooth day/night ramp, period 2 simulated seconds, ×0.25..×1.0."""
    return 0.25 + 0.375 * (1.0 - math.cos(math.pi * t))


def _flashcrowd(t: float) -> float:
    """Nominal rate with an 8× burst over t ∈ [0.5, 1.0)."""
    return 8.0 if 0.5 <= t < 1.0 else 1.0


def _overload(t: float) -> float:
    """Sustained offered load at 3× the nominal rate."""
    return 3.0


#: name -> rate multiplier as a pure function of the simulated clock.
#: Multiplies :attr:`LoadgenConfig.rate` to make the open-loop Poisson
#: process inhomogeneous; being clock-pure keeps traces byte-repeatable.
TRACES = {
    "diurnal": _diurnal,
    "flashcrowd": _flashcrowd,
    "overload": _overload,
}


@dataclass(frozen=True)
class LoadgenConfig:
    """Workload description.

    Attributes:
        n_requests: total requests to issue (one instance each).
        feature_dims: ``party -> raw feature count`` (must match the
            registered model's bin edges).
        seed: RNG seed for rows, arrivals and fault injection.
        mode: ``"open"`` or ``"closed"``.
        rate: open-loop arrival rate, requests per simulated second
            (the *nominal* rate when a trace modulates it).
        trace: optional heavy-tail shape from :data:`TRACES`
            (``"diurnal"`` / ``"flashcrowd"`` / ``"overload"``);
            open-loop only — a closed loop sets its own pace.
        concurrency: closed-loop stream count.
        n_sessions: distinct logical sessions to stamp on requests
            (0 = no sessions; the fleet router then falls back to
            per-request routing).
        session_skew: power-law popularity exponent; 0 is uniform,
            larger values concentrate traffic on a few hot sessions.
        duplicate_fraction: fraction of requests that replay an earlier
            request's rows verbatim (exercises the prediction cache).
        slow_party: party whose answers are sometimes delayed.
        slow_probability: per-attempt probability of a slow answer.
        slow_delay: extra seconds a slow answer takes.
    """

    n_requests: int = 256
    feature_dims: dict[int, int] | None = None
    seed: int = 7
    mode: str = "closed"
    rate: float = 200.0
    trace: str | None = None
    concurrency: int = 16
    n_sessions: int = 0
    session_skew: float = 0.0
    duplicate_fraction: float = 0.0
    slow_party: int | None = None
    slow_probability: float = 0.0
    slow_delay: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise ValueError("mode must be 'open' or 'closed'")
        if not self.feature_dims:
            raise ValueError("feature_dims is required")
        if self.trace is not None:
            if self.trace not in TRACES:
                raise ValueError(
                    f"unknown trace {self.trace!r}; pick from {sorted(TRACES)}"
                )
            if self.mode != "open":
                raise ValueError("traces require mode='open'")
        if self.n_sessions < 0:
            raise ValueError("n_sessions must be >= 0")
        if self.session_skew < 0:
            raise ValueError("session_skew must be >= 0")


def make_requests(config: LoadgenConfig) -> list[Request]:
    """Generate the request list (arrivals filled for open loop only).

    Closed-loop arrival times are decided at run time (a stream's next
    request arrives when its previous one finishes), so closed-loop
    requests carry a placeholder arrival of 0.0.
    """
    rng = np.random.default_rng(config.seed)
    arrival_rng = np.random.default_rng(config.seed + 1)
    dup_rng = random.Random(config.seed + 2)
    session_rng = np.random.default_rng(config.seed + 3)
    factor = TRACES[config.trace] if config.trace is not None else None
    requests: list[Request] = []
    clock = 0.0
    for request_id in range(config.n_requests):
        if requests and dup_rng.random() < config.duplicate_fraction:
            source = requests[dup_rng.randrange(len(requests))]
            rows = {party: block.copy() for party, block in source.rows.items()}
        else:
            rows = {
                party: rng.normal(size=(1, dim))
                for party, dim in sorted(config.feature_dims.items())
            }
        if config.mode == "open":
            if factor is None:
                clock += float(arrival_rng.exponential(1.0 / config.rate))
            else:
                # Inhomogeneous Poisson: a unit-exponential gap scaled
                # by the instantaneous rate at the current clock.
                gap = float(arrival_rng.exponential(1.0))
                clock += gap / (config.rate * factor(clock))
            arrival = clock
        else:
            arrival = 0.0
        session_id = -1
        if config.n_sessions > 0:
            # Power-law popularity: u**(1+skew) concentrates mass near
            # session 0; skew 0 degenerates to uniform.
            u = float(session_rng.random())
            session_id = min(
                config.n_sessions - 1,
                int(config.n_sessions * u ** (1.0 + config.session_skew)),
            )
        requests.append(
            Request(
                request_id=request_id,
                arrival=arrival,
                rows=rows,
                session_id=session_id,
            )
        )
    return requests


def make_party_delay(
    config: LoadgenConfig,
) -> Callable[[int, int, int], float] | None:
    """Deterministic per-attempt fault injector, or None when healthy."""
    if config.slow_party is None or config.slow_probability <= 0:
        return None
    seed = config.seed
    slow_party = config.slow_party
    probability = config.slow_probability
    delay = config.slow_delay

    def party_delay(party: int, batch_id: int, attempt: int) -> float:
        if party != slow_party:
            return 0.0
        mix = (seed * 1000003 + party * 8191 + batch_id * 131 + attempt) % (1 << 32)
        return delay if random.Random(mix).random() < probability else 0.0

    return party_delay


def run_open_loop(
    runtime: ServingRuntime, requests: list[Request]
) -> list[Prediction]:
    """Submit every request at its generated arrival time and drain."""
    for request in requests:
        runtime.submit(request)
    return runtime.run()


def run_closed_loop(
    runtime: ServingRuntime, requests: list[Request], concurrency: int
) -> list[Prediction]:
    """Fixed-concurrency feedback loop over the request list.

    The first ``concurrency`` requests start at (almost) time zero —
    staggered by a nanosecond each so event ordering is well defined —
    and each completion immediately admits the next pending request.
    """
    pending = deque(requests)

    def submit_next(now: float) -> None:
        if pending:
            runtime.submit(replace(pending.popleft(), arrival=now))

    for k in range(min(concurrency, len(pending))):
        runtime.submit(replace(pending.popleft(), arrival=k * 1e-9))
    return runtime.run(on_complete=lambda outcome: submit_next(outcome.finished))
