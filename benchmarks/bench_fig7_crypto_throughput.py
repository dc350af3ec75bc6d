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


def _operand_op(benchmark, op):
    """Benchmark ``op(context, operand)`` on a cipher's operand in a resident block.

    The op's product goes back to the pool after each call.
    """
    context = PaillierContext.create(KEY_BITS, seed=1)
    with context.resident() as block:
        operand = block.load(context.encrypt(0.1))

        def call():
            op(context, operand)
            block.recycle()

        benchmark(call)


def test_bench_hadd(benchmark):
    _operand_op(benchmark, lambda context, a: context.add(a, a))


def test_bench_smul(benchmark):
    _operand_op(benchmark, lambda context, a: context.multiply(a, 123457))
