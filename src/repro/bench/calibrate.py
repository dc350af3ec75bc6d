"""One timed pass over one key: host calibration and Figure 7.

:func:`measure` is the one place this repository times Paillier ops.
It generates one key at the trainer's own defaults
(:class:`~repro.core.config.VF2BoostConfig`: ``E`` jittered exponents,
the packed path's :class:`~repro.crypto.packing.GradHessLayout`) and
times every row in one pass.  Two views read that result:

* :func:`calibrate` freezes it into a :class:`CalibrationProfile` — unit
  costs, cipher size, packed-decryption gain and a host fingerprint — so
  later runs can (a) rebuild the exact cost model via
  :meth:`CostModel.from_profile` and (b) ask whether the *shape* of the
  costs still matches the paper's §6.1 environment;
* :func:`crypto_throughputs` renders it as Figure 7's
  :class:`ThroughputReport` (operations per second).

Drift is judged on dimensionless ratios, not absolute times: absolute
unit costs vary by orders of magnitude across hosts and key sizes, but
the paper's speedup arguments only need the ratios (Dec/Enc, SMul/HAdd,
per-value packing efficiency) to stay in the same regime.
:func:`check_drift` compares a profile's ratios against the
paper-pinned references with generous multiplicative tolerances and
reports every ratio that escaped its band — the signal that either the
crypto implementation regressed or the host is too unlike the paper's
environment for measured numbers to be comparable.

Determinism: both views accept an injected ``timer``; with a fake
monotonic counter the whole profile (and therefore the drift verdict)
is bit-repeatable.
"""

from __future__ import annotations

import json
import platform
import random
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from repro.bench.costmodel import UNIT_COST_FIELDS, CostModel
from repro.core.config import VF2BoostConfig
from repro.crypto.accumulation import ExponentWorkspace
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.packing import pack_ciphers, unpack_values

__all__ = [
    "DEFAULT_TOLERANCES",
    "TIMED_PASSES",
    "CalibrationProfile",
    "DriftCheck",
    "DriftReport",
    "ThroughputReport",
    "calibrate",
    "check_drift",
    "crypto_throughputs",
    "host_fingerprint",
    "measure",
    "paper_ratios",
]

#: schema version for saved profile files
PROFILE_VERSION = 1

#: SMul scalar of each row: Figure 7's, the cost model's arbitrary one,
#: and the 2**64 radix ``ProtocolScheduler`` scales by ``stride / 64``
SMUL_SCALARS = {"smul": 123457, "t_smul": 123456789, "t_smul_small": 1 << 64}

#: timed passes of each op loop of :func:`measure`, after one warm-up
#: pass; a loop's time is its fastest pass, so one pass slowed by a busy
#: neighbour does not decide a ratio
TIMED_PASSES = 5

#: multiplicative drift bands per ratio: a check fails when
#: max(measured/reference, reference/measured) exceeds the factor.
#: Each band is ~1.6x the largest factor measured on one host (seven
#: seeds at 256, 512 and 1024 bits, 24 samples; EXPERIMENTS.md), so it
#: separates "different host, same regime" from "the cost structure
#: changed" (an op got several times slower relative to its peers,
#: packing stopped amortizing decryptions).  Dec/Enc lands near the
#: paper's 0.93 (measured 0.78-1.05, at most x1.2): a key-holder Enc is
#: two half-width powmods (DESIGN §4.14), a Dec the same two.
#: SMul/HAdd sits far below the paper's 25 (measured 2.1-3.3, x7.6-11.7):
#: a powmod runs in libcrypto while an HAdd pays the Python call
#: overhead of one ``PaillierContext.add``.
DEFAULT_TOLERANCES = {
    "dec_over_enc": 2.0,
    "smul_over_hadd": 19.0,
    "packing_efficiency": 4.0,
}


def host_fingerprint() -> dict:
    """Stable facts about the measuring host (metadata, never gated)."""
    import os

    return {
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 0,
    }


def paper_ratios() -> dict:
    """The reference cost ratios implied by :meth:`CostModel.paper`.

    ``packing_efficiency`` is per-value gain over pack width; the ideal
    (one decryption recovers a full pack, zero unpack overhead) is 1.0.
    """
    paper = CostModel.paper()
    return {
        "dec_over_enc": paper.t_dec / paper.t_enc,
        "smul_over_hadd": paper.t_smul / paper.t_hadd,
        "packing_efficiency": 1.0,
    }


def measure(
    config: VF2BoostConfig, samples: int, seed: int, timer: Callable[[], float]
) -> tuple[dict, int]:
    """Time every Paillier op of the cost model and Figure 7 on one key.

    The key is ``config.key_bits`` wide and jitters
    ``config.exponent_jitter`` exponents.  ``samples`` normal-distributed
    values are encrypted (Enc), decrypted by the two-prime CRT route
    (Dec, ``t_dec``) and again with the bound an unpacked bin of a node
    of ``samples`` rows carries (``dec_one_prime``), summed left to right
    (naive HAdd) and into per-exponent workspaces, whose adds are
    same-exponent HAdds (``t_hadd``) and whose merge completes the
    re-ordered HAdd; each cipher is then scaled by ``B**2`` and
    multiplied by every scalar of :data:`SMUL_SCALARS`.  The sums,
    scalings and SMuls run on the ciphers' operands in a
    :meth:`~PaillierContext.resident` block, as Party A's builds do: on
    the engine's arena.  The packed row
    decrypts the pack the trainer ships: ``layout.capacity`` shifted
    prefix sums of a node of ``samples`` instances, ``layout.stride``
    bits apart, for ``layout = config.gradient_layout(samples)``.  Each
    op loop runs once untimed, then :data:`TIMED_PASSES` times, and the
    fastest pass is its time.

    Returns:
        ``(seconds, pack_width)``: seconds per op under the
        :data:`UNIT_COST_FIELDS` names plus ``dec_one_prime``,
        ``hadd_naive``, ``hadd_reordered``, ``smul`` and ``dec_packed``
        (per value), and the slots per pack.
    """
    context = PaillierContext.create(
        config.key_bits, seed=seed, jitter=config.exponent_jitter
    )
    rng = random.Random(seed)
    values = [rng.gauss(0.0, 1.0) for _ in range(samples)]
    seconds: dict[str, float] = {}

    def per_op(count: int, loop: Callable[[], object]) -> float:
        """Seconds per op of ``loop``'s ``count`` ops: the fastest of
        :data:`TIMED_PASSES` timed passes after one warm-up pass."""
        loop()
        best = float("inf")
        for _ in range(TIMED_PASSES):
            start = timer()
            loop()
            best = min(best, timer() - start)
        return best / max(1, count)

    # The key holder computes its q^2 inverse on the first draw: a
    # per-key cost (DESIGN §4.14), not part of an Enc.
    context.pool.take()

    ciphers = [context.encrypt(v) for v in values]
    seconds["t_enc"] = per_op(samples, lambda: [context.encrypt(v) for v in values])
    seconds["t_dec"] = per_op(samples, lambda: [context.decrypt(c) for c in ciphers])
    # The bound an unpacked bin of a node of every sample would carry.
    bound = samples * max(map(abs, values))
    seconds["dec_one_prime"] = per_op(
        samples, lambda: [context.decrypt(c, bound) for c in ciphers]
    )

    with context.resident() as block:
        operands = [block.load(cipher) for cipher in ciphers]
        seconds["hadd_naive"] = per_op(samples - 1, lambda: context.sum_ciphers(operands))

        def reorder(finalize: bool) -> ExponentWorkspace:
            workspace = ExponentWorkspace(context)
            for operand in operands:
                workspace.add(operand)
            if finalize:
                workspace.finalize()
            return workspace

        same_exponent = samples - len(reorder(False).exponents)
        seconds["t_hadd"] = per_op(same_exponent, lambda: reorder(False))
        seconds["hadd_reordered"] = per_op(samples - 1, lambda: reorder(True))
        seconds["t_scale"] = per_op(
            samples, lambda: [context.scale_to(x, x.exponent + 2) for x in operands]
        )
        for name, scalar in SMUL_SCALARS.items():
            seconds[name] = per_op(
                samples, lambda k=scalar: [context.multiply(x, k) for x in operands]
            )

    array = np.asarray(values * 40, dtype=np.float64)
    seconds["t_plain_accum"] = max(1e-9, per_op(array.size, lambda: np.add.reduce(array)))
    seconds["t_split_bin"] = seconds["t_plain_accum"] * 4

    layout = config.gradient_layout(samples)
    scale = layout.scale  # values on the trainer's gradient grid
    grad_bound, hess_bound = layout.grad_bound, layout.hess_bound
    pairs = layout.encode(
        [round(rng.uniform(-grad_bound, grad_bound) * scale) / scale for _ in range(samples)],
        [round(rng.uniform(0.0, hess_bound) * scale) / scale for _ in range(samples)],
    )
    # One feature of capacity + 1 bins; the last prefix is B's own total.
    bins = layout.capacity + 1
    slots = [
        layout.shift(samples) + sum(pairs[: (k + 1) * samples // bins])
        for k in range(layout.capacity)
    ]
    with context.resident() as block:
        slot_ciphers = [block.load(cipher) for cipher in layout.encrypt(context, slots)]
        packed = pack_ciphers(context, slot_ciphers, layout.stride)
    repeats = max(1, samples // layout.capacity)
    seconds["dec_packed"] = per_op(
        repeats * layout.capacity,
        lambda: [unpack_values(context, packed) for _ in range(repeats)],
    )
    return seconds, layout.capacity


@dataclass(frozen=True)
class CalibrationProfile:
    """One host's measured crypto cost structure, as a JSON artifact.

    Attributes:
        key_bits: Paillier modulus size the measurement ran at.
        unit_costs: seconds per operation, keyed by the
            :class:`CostModel` field names in :data:`UNIT_COST_FIELDS`.
        cipher_bytes: wire size of one cipher at ``key_bits``.
        packing_gain: measured per-value decryption speedup of
            polynomial packing over plain decryption.
        pack_width: slots per pack in the packing measurement (the
            trainer layout's ``capacity``, see :func:`measure`).
        samples: operations per measurement.
        seed: keygen/value seed the measurement used.
        host: :func:`host_fingerprint` of the measuring machine.
    """

    key_bits: int
    unit_costs: dict
    cipher_bytes: int
    packing_gain: float
    pack_width: int
    samples: int
    seed: int
    host: dict = field(default_factory=dict)

    def ratios(self) -> dict:
        """This profile's dimensionless cost ratios (drift inputs)."""
        return {
            "dec_over_enc": self.unit_costs["t_dec"] / self.unit_costs["t_enc"],
            "smul_over_hadd": self.unit_costs["t_smul"] / self.unit_costs["t_hadd"],
            "packing_efficiency": self.packing_gain / max(1, self.pack_width),
        }

    def to_dict(self) -> dict:
        return {
            "version": PROFILE_VERSION,
            "key_bits": self.key_bits,
            "unit_costs": dict(sorted(self.unit_costs.items())),
            "cipher_bytes": self.cipher_bytes,
            "packing_gain": self.packing_gain,
            "pack_width": self.pack_width,
            "samples": self.samples,
            "seed": self.seed,
            "host": dict(sorted(self.host.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CalibrationProfile":
        """Rebuild a profile from :meth:`to_dict` output.

        Raises:
            ValueError: naming every unknown or missing field and every
                missing ``unit_costs`` key.
        """
        if not isinstance(data, dict):
            raise ValueError("a calibration profile is a JSON object")
        data = dict(data)
        data.pop("version", None)
        # Profiles written while a crypto-backend selector existed carry
        # its name; there is one engine now, so the key means nothing.
        data.pop("backend", None)
        names = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - names)
        if unknown:
            raise ValueError(f"unknown calibration profile field(s): {unknown}")
        missing = sorted(names - {"host"} - set(data))
        costs = data.get("unit_costs")
        costs = costs if isinstance(costs, dict) else {}
        missing_costs = sorted(set(UNIT_COST_FIELDS) - set(costs))
        if missing or missing_costs:
            raise ValueError(
                f"calibration profile lacks field(s) {missing} and "
                f"unit_costs key(s) {missing_costs}"
            )
        return cls(**data)

    def save(self, path: str) -> None:
        """Write the profile JSON to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationProfile":
        """Read a profile written by :meth:`save`.

        Raises:
            ValueError: naming ``path``, for a file that is not JSON or
                not a whole profile (see :meth:`from_dict`).
        """
        with open(path) as handle:
            try:
                return cls.from_dict(json.load(handle))
            except ValueError as error:
                raise ValueError(f"profile {path}: {error}") from error


def calibrate(
    key_bits: int = 512,
    samples: int = 24,
    seed: int = 7,
    timer: Callable[[], float] = time.perf_counter,  # repro: allow[DET001] -- calibration times real crypto by design; tests inject a fake timer
) -> CalibrationProfile:
    """Microbenchmark this host into a :class:`CalibrationProfile`."""
    seconds, width = measure(VF2BoostConfig(key_bits=key_bits), samples, seed, timer)
    return CalibrationProfile(
        key_bits=key_bits,
        unit_costs={name: seconds[name] for name in UNIT_COST_FIELDS},
        cipher_bytes=key_bits // 4,
        packing_gain=seconds["t_dec"] / seconds["dec_packed"],
        pack_width=width,
        samples=samples,
        seed=seed,
        host=host_fingerprint(),
    )


@dataclass
class ThroughputReport:
    """Operations-per-second of each cryptography primitive (Figure 7).

    ``dec`` is the two-prime CRT Dec, ``dec_one_prime`` the Dec of a
    bounded plaintext (an unpacked histogram bin); ``hadd_reordered``
    counts the same logical additions as ``hadd`` but with
    exponent-grouped accumulation; ``dec_packed`` counts *logical values
    recovered* per second (each decryption recovers a whole pack of
    ``pack_width`` slots).
    """

    key_bits: int
    n_exponents: int
    enc: float
    dec: float
    dec_one_prime: float
    hadd_naive: float
    hadd_reordered: float
    smul: float
    dec_packed: float
    pack_width: int

    def reorder_gain(self) -> float:
        """HAdd throughput gain from re-ordered accumulation."""
        return self.hadd_reordered / self.hadd_naive

    def packing_gain(self) -> float:
        """Per-value decryption gain from packing."""
        return self.dec_packed / self.dec

    def to_dict(self) -> dict:
        """JSON-ready report: every field plus the derived gains."""
        return {
            **asdict(self),
            "reorder_gain": self.reorder_gain(),
            "packing_gain": self.packing_gain(),
        }


def crypto_throughputs(
    key_bits: int = 512,
    samples: int = 48,
    seed: int = 11,
    timer: Callable[[], float] = time.perf_counter,  # repro: allow[DET001] -- Figure 7 times real crypto by design; tests inject a fake timer
) -> ThroughputReport:
    """Measure all Figure 7 operations at a given key size.

    Args:
        key_bits: Paillier modulus size; the paper uses 2048, tests use
            smaller keys (throughput *ratios* are size-stable).
        samples: operations per measurement.
        seed: deterministic keygen/value seed.
        timer: zero-argument seconds source.
    """
    config = VF2BoostConfig(key_bits=key_bits)
    seconds, width = measure(config, samples, seed, timer)
    return ThroughputReport(
        key_bits=key_bits,
        n_exponents=config.exponent_jitter,
        enc=1.0 / seconds["t_enc"],
        dec=1.0 / seconds["t_dec"],
        dec_one_prime=1.0 / seconds["dec_one_prime"],
        hadd_naive=1.0 / seconds["hadd_naive"],
        hadd_reordered=1.0 / seconds["hadd_reordered"],
        smul=1.0 / seconds["smul"],
        dec_packed=1.0 / seconds["dec_packed"],
        pack_width=width,
    )


@dataclass(frozen=True)
class DriftCheck:
    """One ratio's verdict: measured vs reference within tolerance?"""

    name: str
    measured: float
    reference: float
    factor: float
    tolerance: float
    ok: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class DriftReport:
    """All ratio checks of one profile against the paper references."""

    key_bits: int
    checks: tuple

    @property
    def ok(self) -> bool:
        """Whether every ratio stayed inside its tolerance band."""
        return all(check.ok for check in self.checks)

    def failures(self) -> list[DriftCheck]:
        """The checks that escaped their band (empty when :attr:`ok`)."""
        return [check for check in self.checks if not check.ok]

    def to_dict(self) -> dict:
        return {
            "key_bits": self.key_bits,
            "ok": self.ok,
            "checks": [check.to_dict() for check in self.checks],
        }

    def lines(self) -> list[str]:
        """Human-readable one-line-per-check rendering."""
        out = []
        for check in self.checks:
            verdict = "ok" if check.ok else "DRIFT"
            out.append(
                f"{check.name}: measured {check.measured:.4g} vs "
                f"reference {check.reference:.4g} "
                f"(x{check.factor:.2f} <= x{check.tolerance:g}) {verdict}"
            )
        return out


def check_drift(
    profile: CalibrationProfile,
    tolerances: dict | None = None,
) -> DriftReport:
    """Judge a profile's cost ratios against the paper references.

    Args:
        profile: the measured host profile.
        tolerances: per-ratio multiplicative bands; defaults to
            :data:`DEFAULT_TOLERANCES` (missing names fall back to the
            default band for that name, unknown names are ignored).
    """
    bands = dict(DEFAULT_TOLERANCES)
    if tolerances:
        bands.update(tolerances)
    references = paper_ratios()
    measured = profile.ratios()
    checks = []
    for name in sorted(references):
        reference = references[name]
        value = measured[name]
        if value > 0 and reference > 0:
            factor = max(value / reference, reference / value)
        else:
            factor = float("inf")
        tolerance = float(bands[name])
        checks.append(
            DriftCheck(
                name=name,
                measured=value,
                reference=reference,
                factor=factor,
                tolerance=tolerance,
                ok=factor <= tolerance,
            )
        )
    return DriftReport(key_bits=profile.key_bits, checks=tuple(checks))
