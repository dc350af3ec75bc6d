"""Figure 7 microbenchmarks: real throughput of every crypto operation.

Measures, on this repository's Paillier implementation, the operation
throughputs the paper plots in Figure 7: encryption, decryption,
homomorphic addition (naive and re-ordered), scalar multiplication,
and decryption with polynomial packing.  Values are generated from a
normal distribution exactly as the paper describes.
"""

# repro: allow-file[DET001] -- measured mode: this module's purpose is
# timing real crypto ops with the wall clock; it never feeds SimEngine.

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from repro.crypto.accumulation import naive_sum, reordered_sum
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.packing import pack_capacity, pack_ciphers, unpack_values

__all__ = ["ThroughputReport", "crypto_throughputs"]


@dataclass
class ThroughputReport:
    """Operations-per-second of each cryptography primitive.

    ``hadd_reordered`` counts the same logical additions as ``hadd``
    but with exponent-grouped accumulation; ``dec_packed`` counts
    *logical values recovered* per second (each decryption recovers a
    whole pack).
    """

    key_bits: int
    n_exponents: int
    enc: float
    dec: float
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
            "key_bits": self.key_bits,
            "n_exponents": self.n_exponents,
            "enc": self.enc,
            "dec": self.dec,
            "hadd_naive": self.hadd_naive,
            "hadd_reordered": self.hadd_reordered,
            "smul": self.smul,
            "dec_packed": self.dec_packed,
            "pack_width": self.pack_width,
            "reorder_gain": self.reorder_gain(),
            "packing_gain": self.packing_gain(),
        }


def crypto_throughputs(
    key_bits: int = 512,
    samples: int = 64,
    n_exponents: int = 6,
    limb_bits: int = 32,
    seed: int = 11,
) -> ThroughputReport:
    """Measure all Figure 7 operations at a given key size.

    Args:
        key_bits: Paillier modulus size; the paper uses 2048, tests use
            smaller keys (throughput *ratios* are size-stable).
        samples: operations per measurement.
        n_exponents: encoder jitter width ``E``.
        limb_bits: packing limb width for the packed-decryption row.
        seed: deterministic keygen/value seed.
    """
    context = PaillierContext.create(key_bits, seed=seed, jitter=n_exponents)
    rng = random.Random(seed)
    values = [rng.gauss(0.0, 1.0) for _ in range(samples)]
    # The key holder builds its obfuscator tables on the first draw: a
    # per-key cost (EXPERIMENTS.md, PR 20), not part of an Enc.
    context.pool.take()

    start = time.perf_counter()
    ciphers = [context.encrypt(v) for v in values]
    enc = samples / (time.perf_counter() - start)

    start = time.perf_counter()
    for cipher in ciphers:
        context.decrypt(cipher)
    dec = samples / (time.perf_counter() - start)

    start = time.perf_counter()
    naive_sum(context, ciphers)
    hadd_naive = (samples - 1) / (time.perf_counter() - start)

    start = time.perf_counter()
    reordered_sum(context, ciphers)
    hadd_reordered = (samples - 1) / (time.perf_counter() - start)

    start = time.perf_counter()
    for cipher in ciphers:
        context.multiply(cipher, 123457)
    smul = samples / (time.perf_counter() - start)

    # Packed decryption: positive integers at one exponent, packed t-wide.
    # Values are bounded by half a limb, and that bound buys capacity.
    width = min(
        pack_capacity(context.public_key, limb_bits, top_bits=limb_bits // 2), samples
    )
    positive = [
        context.encrypt(float(rng.randrange(1 << (limb_bits // 2))), exponent=0)
        for _ in range(width)
    ]
    packed = pack_ciphers(context, positive, limb_bits, top_bits=limb_bits // 2)
    start = time.perf_counter()
    repeats = max(1, samples // width)
    for _ in range(repeats):
        unpack_values(context, packed)
    dec_packed = (repeats * width) / (time.perf_counter() - start)

    return ThroughputReport(
        key_bits=key_bits,
        n_exponents=n_exponents,
        enc=enc,
        dec=dec,
        hadd_naive=hadd_naive,
        hadd_reordered=hadd_reordered,
        smul=smul,
        dec_packed=dec_packed,
        pack_width=width,
    )
