"""A guided tour of the customized Paillier cryptosystem (§2.2, §5).

Demonstrates, with real arithmetic:

* encryption / decryption and the additive homomorphism;
* the exponent-jitter encoding and the cipher-scaling tax it creates;
* re-ordered accumulation (§5.1) removing that tax;
* polynomial cipher packing (§5.2) collapsing 32 decryptions into one.

Run:  python examples/crypto_tour.py
"""
# This tour *measures* the crypto primitives on the host by design;
# its wall-clock reads never feed simulated time.
# repro: allow-file[DET001]

import random
import time

from repro.crypto import (
    PaillierContext,
    pack_capacity,
    pack_ciphers,
    reordered_sum,
    unpack_values,
)


def main() -> None:
    print("== keygen (512-bit demo key; the paper uses 2048) ==")
    context = PaillierContext.create(512, seed=2024, jitter=6)
    print(f"modulus bits: {context.public_key.key_bits}")

    print("\n== homomorphic arithmetic ==")
    a, b = context.encrypt(1.25), context.encrypt(-0.5)
    print(f"dec([[1.25]] (+) [[-0.5]])  = {context.decrypt(a + b)}")
    print(f"dec(3 (x) [[1.25]])         = {context.decrypt(3 * a)}")
    print(f"dec([[1.25]] + 10.0 plain)  = {context.decrypt(a + 10.0)}")

    print("\n== exponent jitter and the scaling tax (Figure 8) ==")
    rng = random.Random(5)
    gradients = [rng.uniform(-1, 1) for _ in range(400)]
    ciphers = [context.encrypt(g) for g in gradients]
    exponents = sorted({c.exponent for c in ciphers})
    print(f"distinct exponents E = {len(exponents)}: {exponents}")

    before = context.stats.snapshot()
    start = time.perf_counter()
    total_naive = context.sum_ciphers(ciphers)
    naive_time = time.perf_counter() - start
    naive_scalings = context.stats.diff(before).scalings

    before = context.stats.snapshot()
    start = time.perf_counter()
    total_reordered = reordered_sum(context, ciphers)
    reordered_time = time.perf_counter() - start
    reordered_scalings = context.stats.diff(before).scalings

    print(f"naive accumulation:     {naive_scalings:4d} scalings, {naive_time*1e3:7.1f} ms")
    print(f"re-ordered (workspaces): {reordered_scalings:4d} scalings, {reordered_time*1e3:7.1f} ms")
    print(f"identical sums: {abs(context.decrypt(total_naive) - context.decrypt(total_reordered)) < 1e-9}")
    print(f"speedup: {naive_time / reordered_time:.2f}x  (paper Figure 7: 4.08x)")

    print("\n== polynomial histogram packing (Figure 9) ==")
    limb_bits = 32
    width = pack_capacity(context.public_key, limb_bits)
    values = [rng.randrange(1 << 20) for _ in range(width)]
    bins = [context.encrypt(float(v), exponent=0) for v in values]
    packed = pack_ciphers(context, bins, limb_bits)

    start = time.perf_counter()
    for cipher in bins:
        context.decrypt(cipher)
    individual = time.perf_counter() - start
    start = time.perf_counter()
    recovered = unpack_values(context, packed)
    packed_time = time.perf_counter() - start
    print(f"packed {width} bins into one cipher (t = {width} at M = {limb_bits})")
    print(f"round trip exact: {recovered == values}")
    print(f"{width} decryptions: {individual*1e3:6.1f} ms; 1 packed decryption: "
          f"{packed_time*1e3:6.1f} ms -> {individual / packed_time:.1f}x")
    print(f"wire size: {width} ciphers -> 1 cipher ({width}x smaller)")


if __name__ == "__main__":
    main()
