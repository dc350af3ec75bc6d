"""Figure 7 — throughputs of the cryptography operations.

Fidelity: **real** — measured on this repository's Paillier
implementation (single thread, normal-distributed values, exactly the
paper's setup modulo key size).  The paper's headline ratios:
re-ordered accumulation lifts HAdd throughput ~4.08x; packing lifts
per-value decryption throughput ~32x at t=32.
"""

from repro.bench.calibrate import crypto_throughputs
from repro.bench.experiments import run_fig7
from repro.crypto.ciphertext import PaillierContext

KEY_BITS = 512


def test_fig7_throughput_table(benchmark, record_result):
    """Regenerate Figure 7 and benchmark the measurement pass itself."""
    rendered = benchmark.pedantic(
        lambda: run_fig7(key_bits=KEY_BITS, samples=48), rounds=1, iterations=1
    )
    record_result("fig7_crypto_throughput", rendered)


def test_fig7_reorder_gain_positive(record_result):
    report = crypto_throughputs(key_bits=KEY_BITS, samples=48)
    assert report.reorder_gain() > 1.5
    assert report.packing_gain() > report.pack_width * 0.3


def test_bench_encryption(benchmark):
    context = PaillierContext.create(KEY_BITS, seed=1)
    benchmark(lambda: context.encrypt(0.123))


def test_bench_decryption(benchmark):
    context = PaillierContext.create(KEY_BITS, seed=1)
    cipher = context.encrypt(0.123)
    benchmark(lambda: context.decrypt(cipher))


def test_bench_hadd(benchmark):
    context = PaillierContext.create(KEY_BITS, seed=1)
    a, b = context.encrypt(0.1), context.encrypt(0.2)
    benchmark(lambda: context.add(a, b))


def test_bench_smul(benchmark):
    context = PaillierContext.create(KEY_BITS, seed=1)
    a = context.encrypt(0.1)
    benchmark(lambda: context.multiply(a, 123457))
