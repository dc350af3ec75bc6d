"""Tests for pluggable crypto backends and deterministic blaster lanes.

The contract under test: every backend returns bit-identical integers
for identical inputs (ciphertexts, models and golden op-count
fingerprints are therefore backend-invariant), and blaster lanes
reproduce the serial outputs *and* the serial powmod tallies no matter
how work is chunked.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils
from repro.crypto.backend import (
    BACKEND_NAMES,
    CrtParams,
    FastPythonBackend,
    FixedBaseTable,
    Gmpy2Backend,
    PythonBackend,
    auto_select,
    available_backends,
    create_backend,
)
from repro.crypto.blaster import BlasterLanes, partition
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.math_utils import use_backend
from repro.crypto.packing import pack_ciphers, unpack_values
from repro.crypto.paillier import (
    ObfuscatorPool,
    derive_insecure_keypair_from_primes,
    generate_keypair,
)

PUBLIC, PRIVATE = generate_keypair(256, seed=42)

GMPY2_MISSING = not Gmpy2Backend.is_available()


class TestRegistry:
    def test_python_and_fast_always_available(self):
        names = available_backends()
        assert "python" in names and "fast" in names

    def test_selection_order_is_backend_names(self):
        assert available_backends() == tuple(
            name for name in BACKEND_NAMES if create_or_none(name)
        )

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown crypto backend"):
            create_backend("openssl")

    @pytest.mark.skipif(not GMPY2_MISSING, reason="gmpy2 installed here")
    def test_unavailable_backend_raises_runtime_error(self):
        with pytest.raises(RuntimeError, match="not available"):
            create_backend("gmpy2")

    def test_auto_select_prefers_fastest_available(self):
        assert auto_select().name == available_backends()[0]

    def test_use_backend_restores_previous(self):
        before = math_utils.get_backend()
        with use_backend("fast") as active:
            assert active.name == "fast"
            assert math_utils.get_backend() is active
        assert math_utils.get_backend() is before


def create_or_none(name):
    try:
        return create_backend(name)
    except RuntimeError:
        return None


def _crt_params():
    """CRT constants built without ``PaillierPrivateKey.crt_params``."""
    p2 = PRIVATE.p * PRIVATE.p
    q2 = PRIVATE.q * PRIVATE.q
    return CrtParams(p=PRIVATE.p, q=PRIVATE.q, q_sq_inv=pow(q2, -1, p2))


class _RecordingBackend(PythonBackend):
    """Reference engine that logs the modulus of every internal pow."""

    def __init__(self) -> None:
        self.moduli: list[int] = []

    def powmod(self, base, exponent, modulus):
        self.moduli.append(modulus)
        return super().powmod(base, exponent, modulus)


class TestCrtPowmod:
    def test_bit_identical_to_plain_pow(self):
        crt = _crt_params()
        rng = random.Random(3)
        for name in available_backends():
            backend = create_backend(name)
            for _ in range(20):
                base = rng.randrange(1, PUBLIC.n_squared)
                for exponent in (rng.randrange(1, PUBLIC.n), PUBLIC.n):
                    assert backend.powmod_crt(base, exponent, crt) == pow(
                        base, exponent, PUBLIC.n_squared
                    )

    def test_private_key_crt_params_are_cached(self):
        first = PRIVATE.crt_params()
        assert PRIVATE.crt_params() is first
        assert first == _crt_params()
        assert first.modulus == PUBLIC.n_squared

    def test_dispatch_uses_crt_only_for_matching_modulus(self):
        crt = _crt_params()
        for name in available_backends():
            with use_backend(name):
                # Mismatched modulus must take the plain path, same result.
                assert math_utils.powmod(7, 65537, PUBLIC.n, crt=crt) == pow(
                    7, 65537, PUBLIC.n
                )
                assert math_utils.powmod(
                    7, 65537, PUBLIC.n_squared, crt=crt
                ) == pow(7, 65537, PUBLIC.n_squared)

    def test_route_by_exponent_and_base(self):
        crt = _crt_params()
        p, q, n = PRIVATE.p, PRIVATE.q, PUBLIC.n
        cases = [
            # obfuscator shape, unit base: the four p-adic steps
            (12345, n, [p, p * p, q, q * q]),
            # any other exponent: the generic split
            (12345, n - 1, [p * p, q * q]),
            (p, 3, [p * p, q * q]),
            # exponent n, base outside the p-adic identity: plain pow
            (0, n, [n * n]),
            (p, n, [n * n]),
            (5 * q, n, [n * n]),
            (n, n, [n * n]),
        ]
        for base, exponent, moduli in cases:
            backend = _RecordingBackend()
            assert backend.powmod_crt(base, exponent, crt) == pow(base, exponent, n * n)
            assert backend.moduli == moduli, (base, exponent)


def _prime_at_or_after(start: int, step: int) -> int:
    candidate = start
    while not math_utils.is_probable_prime(candidate):
        candidate += step
    return candidate


def _limb_edge_keys():
    """Keys whose primes are the largest and the smallest of their size.

    63/64/65 and 127/128/129 bits straddle one and two 64-bit limbs (and
    CPython's 30-bit digits), so ``p``, ``p^2`` and the reduced exponents
    land on both sides of every word boundary.
    """
    keys = []
    for bits in (63, 64, 65, 127, 128, 129):
        p = _prime_at_or_after((1 << bits) - 1, -2)
        q = _prime_at_or_after((1 << (bits - 1)) + 1, 2)
        # both orders: q mod (p - 1) only reduces when q > p
        keys.append(derive_insecure_keypair_from_primes(p, q))
        keys.append(derive_insecure_keypair_from_primes(q, p))
    return keys


LIMB_EDGE_KEYS = _limb_edge_keys()


class TestCrtBoundaries:
    @given(
        random_exponent=st.integers(min_value=0),
        random_base=st.integers(min_value=0),
    )
    @settings(max_examples=6, derandomize=True, deadline=None)
    def test_split_matches_plain_pow_at_limb_edges(
        self, random_exponent, random_base
    ):
        for public, private in LIMB_EDGE_KEYS:
            n, n2 = public.n, public.n_squared
            p, q = private.p, private.q
            crt = private.crt_params()
            exponents = [0, 1, n - 1, n, n + 1, 2 * n, random_exponent % n2]
            # p, q, 0 and n are not units: outside the p-adic identity
            bases = [0, 1, p, q, p * q - 1, n, n2 - 1, random_base % n2]
            for name in available_backends():
                with use_backend(name):
                    for exponent in exponents:
                        for base in bases:
                            assert math_utils.powmod(
                                base, exponent, n2, crt=crt
                            ) == pow(base, exponent, n2), (name, p, q, base, exponent)


class TestFixedBaseTable:
    def test_bit_identical_across_exponent_range(self):
        modulus = PUBLIC.n_squared
        table = FixedBaseTable(12345, modulus, 128, build_after=0)
        rng = random.Random(4)
        exponents = [0, 1, (1 << 128) - 1] + [
            rng.randrange(1 << 128) for _ in range(30)
        ]
        for exponent in exponents:
            assert table.pow(exponent) == pow(12345, exponent, modulus)
        assert table.built

    def test_lazy_build_skips_one_shot_bases(self):
        table = FixedBaseTable(7, PUBLIC.n_squared, 64, build_after=1)
        assert table.pow(1234567) == pow(7, 1234567, PUBLIC.n_squared)
        assert not table.built  # first call served by the fallback
        assert table.pow(7654321) == pow(7, 7654321, PUBLIC.n_squared)
        assert table.built  # second call paid for the table

    def test_out_of_range_exponents_fall_back(self):
        table = FixedBaseTable(7, PUBLIC.n_squared, 16, build_after=0)
        wide = 1 << 40
        assert table.pow(wide) == pow(7, wide, PUBLIC.n_squared)
        assert table.pow(-3) == pow(7, -3, PUBLIC.n_squared)

    def test_window_one_degenerate_comb(self):
        table = FixedBaseTable(5, 1009, 10, window=1, build_after=0)
        for exponent in range(0, 1024, 37):
            assert table.pow(exponent) == pow(5, exponent, 1009)

    def test_fast_backend_caches_tables(self):
        backend = FastPythonBackend()
        first = backend.fixed_base(9, PUBLIC.n_squared, 64)
        assert backend.fixed_base(9, PUBLIC.n_squared, 32) is first
        # Wider exponents than the cached table covers force a rebuild.
        wider = backend.fixed_base(9, PUBLIC.n_squared, 128)
        assert wider is not first


def _ciphertext_trace(backend_name: str, crt: bool = True) -> list[int]:
    """Encrypt/HAdd/SMul/pack under one backend with pinned randomness.

    ``crt=False`` swaps in a pool without the key holder's CRT constants:
    the plain full-width reference for every obfuscator.
    """
    with use_backend(backend_name):
        context = PaillierContext(
            PUBLIC,
            PRIVATE,
            jitter=1,
            obfuscator_rng=random.Random(99),
        )
        if not crt:
            context.pool = ObfuscatorPool(PUBLIC, rng=random.Random(99), crt=None)
        a = context.encrypt(1.25, exponent=4)
        b = context.encrypt(-2.5, exponent=4)
        total = context.add(a, b)
        scaled = context.multiply(a, -3)
        positive = [context.encrypt(float(v), exponent=0) for v in (11, 22, 33)]
        packed = pack_ciphers(context, positive, limb_bits=24)
        trace = [
            a.ciphertext,
            b.ciphertext,
            total.ciphertext,
            scaled.ciphertext,
            packed.ciphertext,
        ]
        assert context.decrypt(total) == pytest.approx(-1.25)
        assert context.decrypt(scaled) == pytest.approx(-3.75)
        assert unpack_values(context, packed) == [11, 22, 33]
        return trace


class TestCrossBackendBitIdentity:
    def test_all_available_backends_produce_identical_ciphertexts(self):
        traces = {
            name: _ciphertext_trace(name) for name in available_backends()
        }
        reference = traces["python"]
        for name, trace in traces.items():
            assert trace == reference, f"backend {name} diverged"

    def test_key_holder_split_matches_plain_obfuscators(self):
        # Every backend shares powmod_crt, so the cross-backend test no
        # longer compares against a full-width pow; this leg does.
        for name in available_backends():
            assert _ciphertext_trace(name) == _ciphertext_trace(name, crt=False)

    def test_invert_parity_on_non_invertible_input(self):
        for name in available_backends():
            backend = create_backend(name)
            with pytest.raises(ValueError):
                backend.invert(6, 9)
            assert backend.invert(3, 7) == 5


class TestPartition:
    def test_contiguous_and_complete(self):
        chunks = partition(10, 3)
        assert chunks == [(0, 4), (4, 7), (7, 10)]

    def test_uneven_chunks_differ_by_at_most_one(self):
        for n_items in range(0, 40):
            for n_lanes in range(1, 9):
                chunks = partition(n_items, n_lanes)
                sizes = [stop - start for start, stop in chunks]
                assert sum(sizes) == n_items
                if sizes:
                    assert max(sizes) - min(sizes) <= 1
                    assert all(size > 0 for size in sizes)
                # contiguity: each chunk starts where the previous ended
                position = 0
                for start, stop in chunks:
                    assert start == position
                    position = stop

    def test_deterministic(self):
        assert partition(17, 4) == partition(17, 4)

    def test_more_lanes_than_items(self):
        assert partition(2, 8) == [(0, 1), (1, 2)]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            partition(-1, 2)
        with pytest.raises(ValueError):
            partition(4, 0)


class TestBlasterLanes:
    def test_serial_lane_matches_plain_loop(self):
        bases = [random.Random(7).randrange(1, PUBLIC.n) for _ in range(9)]
        expected = [pow(base, 65537, PUBLIC.n) for base in bases]
        with BlasterLanes(lanes=1) as lanes:
            assert lanes.powmod_batch(bases, 65537, PUBLIC.n) == expected

    def test_parallel_lanes_match_serial_bit_for_bit(self):
        rng = random.Random(8)
        bases = [rng.randrange(1, PUBLIC.n) for _ in range(10)]
        with BlasterLanes(lanes=1) as serial, BlasterLanes(lanes=3) as wide:
            assert wide.powmod_batch(
                bases, PUBLIC.n, PUBLIC.n_squared
            ) == serial.powmod_batch(bases, PUBLIC.n, PUBLIC.n_squared)

    def test_tally_folds_back_into_observer(self):
        rng = random.Random(9)
        bases = [rng.randrange(1, PUBLIC.n) for _ in range(7)]
        for n_lanes in (1, 3):
            counted = 0

            def observer():
                nonlocal counted
                counted += 1

            previous = math_utils.set_powmod_observer(observer)
            try:
                with BlasterLanes(lanes=n_lanes) as lanes:
                    lanes.powmod_batch(bases, 65537, PUBLIC.n)
            finally:
                math_utils.set_powmod_observer(previous)
            assert counted == len(bases), f"lanes={n_lanes}"

    def test_refill_pool_matches_serial_refill(self):
        serial_pool = ObfuscatorPool(PUBLIC, rng=random.Random(5))
        serial_pool.refill(6)
        serial = [serial_pool.take() for _ in range(6)]

        lane_pool = ObfuscatorPool(PUBLIC, rng=random.Random(5))
        with BlasterLanes(lanes=3) as lanes:
            lanes.refill_pool(lane_pool, 6, rng=random.Random(5))
        blasted = [lane_pool.take() for _ in range(6)]
        assert blasted == serial

    def test_batch_keys_advance_per_op(self):
        with BlasterLanes(lanes=1) as lanes:
            lanes.powmod_batch([2], 3, 1000, op="enc")
            lanes.powmod_batch([2], 3, 1000, op="enc")
            lanes.powmod_batch([2], 3, 1000, op="obfuscator")
            assert lanes._batch_counters == {"enc": 2, "obfuscator": 1}

    def test_invalid_lane_count(self):
        with pytest.raises(ValueError):
            BlasterLanes(lanes=0)


class TestObserverReplay:
    def test_observe_powmods_counts(self):
        counted = 0

        def observer():
            nonlocal counted
            counted += 1

        previous = math_utils.set_powmod_observer(observer)
        try:
            math_utils.observe_powmods(5)
        finally:
            math_utils.set_powmod_observer(previous)
        assert counted == 5

    def test_negative_tally_rejected(self):
        with pytest.raises(ValueError):
            math_utils.observe_powmods(-1)

    def test_no_observer_is_a_no_op(self):
        math_utils.observe_powmods(3)  # must not raise


class TestDefaultBackendIsPython:
    def test_module_default(self):
        assert isinstance(math_utils.get_backend(), PythonBackend)
