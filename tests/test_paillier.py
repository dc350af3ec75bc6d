"""Unit + property tests for the raw Paillier cryptosystem."""

import hashlib
import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils
from repro.crypto.paillier import (
    ObfuscatorPool,
    PaillierPrivateKey,
    PaillierPublicKey,
    derive_insecure_keypair_from_primes,
    generate_keypair,
)

PUBLIC, PRIVATE = generate_keypair(256, seed=1)


class TestKeyGeneration:
    def test_key_bits(self):
        assert PUBLIC.key_bits == 256

    def test_seeded_generation_is_deterministic(self):
        pub2, _ = generate_keypair(256, seed=1)
        assert pub2.n == PUBLIC.n

    def test_seeded_keys_are_the_recorded_ones(self):
        # The seed -> key map: recorded when keys became two plain
        # random primes, and it must not move by accident.
        digest = hashlib.sha256()
        for bits in (256, 512, 1024):
            for seed in range(5):
                _, private = generate_keypair(bits, seed=seed)
                digest.update(f"{bits}:{seed}:{private.p}:{private.q};".encode())
        assert digest.hexdigest() == (
            "074aeb95b15094187354d14854772bba5d8ef62981fffbc471d2a4ff73bc1591"
        )

    def test_seeded_obfuscators_are_the_recorded_ones(self):
        # Both routes' draws under a seeded rng: the key holder's lifted
        # units and the full-width reference, recorded with the keys.
        digest = hashlib.sha256()
        for bits in (256, 512):
            public, private = generate_keypair(bits, seed=1)
            for key in (private, None):
                pool = ObfuscatorPool(public, rng=random.Random(7), private_key=key)
                digest.update(repr([pool.take() for _ in range(4)]).encode())
        assert digest.hexdigest() == (
            "57d065cffce9feb459b6e5e1af4ef2f79b54d47aae9b3646a58fa7ad87f4b9c4"
        )

    def test_generated_and_bare_prime_keys_are_one_kind(self):
        # A generated key is the key its primes make: equal, and the
        # same obfuscators under the same seeded rng.
        public, private = generate_keypair(256, seed=1)
        _, bare = derive_insecure_keypair_from_primes(private.p, private.q)
        assert bare == private and hash(bare) == hash(private)
        drawn = []
        for key in (private, bare):
            pool = ObfuscatorPool(public, rng=random.Random(7), private_key=key)
            drawn.append([pool.take() for _ in range(4)])
        assert drawn[0] == drawn[1]
        assert len(set(drawn[0])) == 4

    def test_different_seeds_differ(self):
        pub2, _ = generate_keypair(256, seed=2)
        assert pub2.n != PUBLIC.n

    def test_rejects_tiny_keys(self):
        with pytest.raises(ValueError):
            generate_keypair(8)

    @pytest.mark.parametrize("key_bits", [16, 33, 64, 127, 256, 511, 512])
    def test_modulus_size_is_exact(self, key_bits):
        public, private = generate_keypair(key_bits, seed=key_bits)
        assert public.n.bit_length() == public.key_bits == key_bits
        assert private.p != private.q
        half = key_bits // 2
        for prime, bits in ((private.p, half), (private.q, key_bits - half)):
            assert math_utils.is_probable_prime(prime)
            assert prime >> (bits - 2) == 3  # `bits` bits, the top two set
        again = generate_keypair(key_bits, seed=key_bits)[1]
        assert (again.p, again.q) == (private.p, private.q)
        assert private.raw_decrypt(public.raw_encrypt(12345 % public.n)) == (
            12345 % public.n
        )

    def test_entropy_and_seeded_paths_run_the_same_function(self, monkeypatch):
        handed = []
        real = math_utils.generate_prime_pair

        def spy(modulus_bits, rng=None):
            handed.append(rng)
            return real(modulus_bits, rng)

        monkeypatch.setattr(math_utils, "generate_prime_pair", spy)
        seeded = generate_keypair(64, seed=5)[0]
        entropy = generate_keypair(64)[0]
        assert isinstance(handed[0], random.Random) and handed[1] is None
        assert seeded.key_bits == entropy.key_bits == 64
        assert generate_keypair(64)[0].n != entropy.n

    def test_max_int_leaves_headroom(self):
        assert PUBLIC.max_int * 3 < PUBLIC.n

    def test_mismatched_private_key_rejected(self):
        other_pub, other_priv = generate_keypair(256, seed=9)
        with pytest.raises(ValueError):
            PaillierPrivateKey(public_key=PUBLIC, p=other_priv.p, q=other_priv.q)

    def test_derive_from_primes(self):
        pub, priv = derive_insecure_keypair_from_primes(PRIVATE.p, PRIVATE.q)
        assert pub.n == PUBLIC.n
        assert priv.raw_decrypt(pub.raw_encrypt(12345)) == 12345

    def test_derive_rejects_composites(self):
        with pytest.raises(ValueError):
            derive_insecure_keypair_from_primes(15, PRIVATE.q)

    def test_derive_rejects_equal_primes(self):
        with pytest.raises(ValueError):
            derive_insecure_keypair_from_primes(PRIVATE.p, PRIVATE.p)

    @pytest.mark.parametrize("p, q", [(11, 23), (23, 11), (3, 7)])
    def test_rejects_a_prime_dividing_the_other_minus_one(self, p, q):
        # gcd(n, (p-1)(q-1)) = 1 is Paillier's precondition: without it
        # r -> r^n is not a bijection onto the n-th residues.
        n = p * q
        assert len({pow(r, n, n * n) for r in range(1, n) if math.gcd(r, n) == 1}) < (
            (p - 1) * (q - 1)
        )
        with pytest.raises(ValueError, match="gcd"):
            derive_insecure_keypair_from_primes(p, q)


class TestEncryptDecrypt:
    @given(st.integers(min_value=0, max_value=2**64))
    @settings(max_examples=40)
    def test_round_trip(self, plaintext):
        cipher = PUBLIC.raw_encrypt(plaintext)
        assert PRIVATE.raw_decrypt(cipher) == plaintext

    def test_rejects_out_of_range_plaintext(self):
        with pytest.raises(ValueError):
            PUBLIC.raw_encrypt(PUBLIC.n)
        with pytest.raises(ValueError):
            PUBLIC.raw_encrypt(-1)

    def test_rejects_out_of_range_ciphertext(self):
        with pytest.raises(ValueError):
            PRIVATE.raw_decrypt(PUBLIC.n_squared)

    def test_probabilistic_encryption(self):
        # Fresh obfuscators make repeated encryptions of one value differ.
        a = PUBLIC.raw_encrypt(7)
        b = PUBLIC.raw_encrypt(7)
        assert a != b
        assert PRIVATE.raw_decrypt(a) == PRIVATE.raw_decrypt(b) == 7

    def test_boundary_values(self):
        for value in (0, 1, PUBLIC.n - 1):
            assert PRIVATE.raw_decrypt(PUBLIC.raw_encrypt(value)) == value


#: an unpacked bin's bound on the benchmark's baseline path: 48 rows of
#: |v| <= 1 at exponent 8 (B = 16), about 2^37.6
BIN_BOUND = 48 * 16**8

#: key size -> keypair; a 64-bit key's 32-bit p is below 2 * BIN_BOUND
ROUTE_KEYS = {bits: generate_keypair(bits, seed=bits) for bits in (64, 128, 256, 512)}


class TestBoundedDecryption:
    """``raw_decrypt(c, bound)``: the CRT route's integer, at one prime when it fits."""

    @pytest.mark.parametrize("key_bits", sorted(ROUTE_KEYS))
    @given(value=st.integers(-BIN_BOUND, BIN_BOUND))
    @settings(
        max_examples=10,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_integer_from_one_powmod_when_2_bound_is_below_p(
        self, key_bits, value, choke_calls
    ):
        public, private = ROUTE_KEYS[key_bits]
        one_prime = 2 * BIN_BOUND < private.p
        assert one_prime == (key_bits > 64)
        ciphers = [
            (x, public.raw_encrypt(x % public.n))
            for x in (0, 1, -1, BIN_BOUND, -BIN_BOUND, value)
        ]
        ciphers.append((0, 1))  # the unobfuscated zero of encrypt_zero
        for x, cipher in ciphers:
            del choke_calls[:]
            bounded = private.raw_decrypt(cipher, BIN_BOUND)
            assert choke_calls == ["powmod"] * (1 if one_prime else 2)
            del choke_calls[:]
            assert bounded == private.raw_decrypt(cipher) == x % public.n
            assert choke_calls == ["powmod"] * 2

    @pytest.mark.parametrize("key_bits", [64, 128])  # CRT route, one-prime route
    def test_a_plaintext_past_the_bound_is_refused(self, key_bits):
        public, private = ROUTE_KEYS[key_bits]
        for x in (BIN_BOUND + 1, -BIN_BOUND - 1, public.n // 2):
            with pytest.raises(ValueError, match="bound"):
                private.raw_decrypt(public.raw_encrypt(x % public.n), BIN_BOUND)
        assert private.raw_decrypt(public.raw_encrypt(7), 7) == 7

    def test_a_cipher_under_another_key_is_refused(self):
        # Encrypted under a 256-bit key, decrypted with a 512-bit one:
        # in range, and a bounded plaintext by chance ~2^-217 a cipher.
        public, private = ROUTE_KEYS[512]
        rng = random.Random(4)
        for _ in range(20):
            foreign = PUBLIC.raw_encrypt(rng.randrange(BIN_BOUND))
            with pytest.raises(ValueError, match="bound"):
                private.raw_decrypt(foreign, BIN_BOUND)


class TestHomomorphicProperties:
    @given(
        st.integers(min_value=0, max_value=2**60),
        st.integers(min_value=0, max_value=2**60),
    )
    @settings(max_examples=40)
    def test_homomorphic_addition(self, u, v):
        combined = PUBLIC.raw_add(PUBLIC.raw_encrypt(u), PUBLIC.raw_encrypt(v))
        assert PRIVATE.raw_decrypt(combined) == u + v

    @given(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**20),
    )
    @settings(max_examples=40)
    def test_scalar_multiplication(self, v, k):
        scaled = PUBLIC.raw_multiply(PUBLIC.raw_encrypt(v), k)
        assert PRIVATE.raw_decrypt(scaled) == (v * k) % PUBLIC.n

    @given(
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=40)
    def test_plaintext_addition(self, v, u):
        shifted = PUBLIC.raw_add_plain(PUBLIC.raw_encrypt(v), u)
        assert PRIVATE.raw_decrypt(shifted) == v + u

    def test_addition_wraps_modulo_n(self):
        near_max = PUBLIC.n - 1
        total = PUBLIC.raw_add(
            PUBLIC.raw_encrypt(near_max), PUBLIC.raw_encrypt(2)
        )
        assert PRIVATE.raw_decrypt(total) == 1  # (n - 1 + 2) mod n


class TestRawMultiplyNegativeThreshold:
    """The invert path starts strictly *above* ``max_int * 2``."""

    def test_exact_threshold_takes_direct_path(self, choke_calls):
        cipher = PUBLIC.raw_encrypt(3)
        scalar = PUBLIC.max_int * 2
        del choke_calls[:]
        result = PUBLIC.raw_multiply(cipher, scalar)
        assert choke_calls == ["powmod"]  # one exponentiation, no inversion
        assert result == pow(cipher, scalar, PUBLIC.n_squared)
        assert PRIVATE.raw_decrypt(result) == (3 * scalar) % PUBLIC.n

    def test_one_past_threshold_takes_invert_path(self, choke_calls):
        cipher = PUBLIC.raw_encrypt(3)
        scalar = PUBLIC.max_int * 2 + 1
        del choke_calls[:]
        result = PUBLIC.raw_multiply(cipher, scalar)
        # The inversion is a choke point of its own, so both operations
        # are countable: one invert, then one powmod.
        assert choke_calls == ["invert", "powmod"]
        assert PRIVATE.raw_decrypt(result) == (3 * scalar) % PUBLIC.n

    def test_positive_smul_is_one_powmod(self, context, choke_calls, engines):
        cipher = context.encrypt(2.0)
        for engine in engines():
            with context.resident() as block:
                operand = block.load(cipher)
                del choke_calls[:]
                context.multiply(operand, 3)
            # one power of the block's arena: a powmod on the int arena,
            # a BIGNUM power and no powmod on libcrypto's
            assert choke_calls == ([] if engine == "openssl" else ["powmod"])

    def test_negative_smul_counts_the_inversion(self, context, choke_calls, engines):
        cipher = context.encrypt(2.0)
        for _ in engines():
            with context.resident() as block:
                operand = block.load(cipher)
                del choke_calls[:]
                context.multiply(operand, -3)
            # Negative scalars invert the cipher before exponentiating:
            # one invert beside the powmod, not hidden inside a ``pow``.
            assert choke_calls == ["invert", "powmod"]

    def test_paths_agree_around_the_threshold(self):
        cipher = PUBLIC.raw_encrypt(5)
        for scalar in (
            PUBLIC.max_int * 2 - 1,
            PUBLIC.max_int * 2,
            PUBLIC.max_int * 2 + 1,
        ):
            assert PRIVATE.raw_decrypt(
                PUBLIC.raw_multiply(cipher, scalar)
            ) == (5 * scalar) % PUBLIC.n


class TestObfuscatorPool:
    def test_pool_refill_and_take(self):
        pool = ObfuscatorPool(PUBLIC, size=3)
        assert len(pool) == 3
        pool.take()
        assert len(pool) == 2

    def test_take_from_empty_pool_generates(self):
        pool = ObfuscatorPool(PUBLIC)
        obf = pool.take()
        cipher = PUBLIC.raw_encrypt(99, obfuscator=obf)
        assert PRIVATE.raw_decrypt(cipher) == 99

    def test_pooled_encryption_round_trip(self):
        pool = ObfuscatorPool(PUBLIC, size=5)
        for value in range(5):
            cipher = PUBLIC.raw_encrypt(value, obfuscator=pool.take())
            assert PRIVATE.raw_decrypt(cipher) == value

    def test_take_pops_most_recent_refill(self):
        serial = [
            PUBLIC.make_obfuscator(rng)
            for rng in [random.Random(21)]
            for _ in range(3)
        ]
        pool = ObfuscatorPool(PUBLIC, rng=random.Random(21))
        pool.refill(3)
        assert [pool.take() for _ in range(3)] == serial[::-1]

    def test_interleaved_refill_take_is_deterministic(self):
        def drive(pool):
            pool.refill(3)
            drawn = [pool.take()]
            pool.refill(2)
            drawn += [pool.take() for _ in range(4)]
            return drawn

        first = drive(ObfuscatorPool(PUBLIC, rng=random.Random(13)))
        second = drive(ObfuscatorPool(PUBLIC, rng=random.Random(13)))
        assert first == second

    def test_foreign_crt_constants_rejected(self):
        # The constants are the private key now: another key's raises.
        _, other_private = generate_keypair(256, seed=2)
        with pytest.raises(ValueError, match="does not belong"):
            ObfuscatorPool(PUBLIC, private_key=other_private)
        # The key's own is accepted, replays under a seed, and draws
        # obfuscators the public route could have drawn too.
        own = ObfuscatorPool(PUBLIC, rng=random.Random(5), private_key=PRIVATE)
        again = ObfuscatorPool(PUBLIC, size=2, rng=random.Random(5), private_key=PRIVATE)
        drawn = [own.take(), own.take()]
        assert drawn == [again.take(), again.take()][::-1]
        for obfuscator in drawn:
            assert PRIVATE.raw_decrypt(obfuscator) == 0


class TestPublicKeyEquality:
    def test_hashable(self):
        assert hash(PUBLIC) == hash(PaillierPublicKey(n=PUBLIC.n))
