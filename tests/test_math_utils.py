"""Unit tests for the number-theory primitives."""

import ast
import contextlib
import ctypes
import gc
import itertools
import math
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import math_utils
from repro.crypto.paillier import generate_keypair


def _libcrypto_loads() -> bool:
    for soname in ("libcrypto.so.3", "libcrypto.so.1.1"):
        try:
            ctypes.CDLL(soname)
        except OSError:
            continue
        return True
    return False


class TestIsProbablePrime:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101, 199):
            assert math_utils.is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 6, 9, 15, 21, 91, 561, 1105):
            assert not math_utils.is_probable_prime(c)

    def test_negative_numbers(self):
        assert not math_utils.is_probable_prime(-7)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes must not fool Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601, 8911):
            assert not math_utils.is_probable_prime(carmichael)

    def test_large_known_prime(self):
        assert math_utils.is_probable_prime(2**127 - 1)  # Mersenne prime

    def test_large_known_composite(self):
        assert not math_utils.is_probable_prime(2**128 + 1)


class TestGeneratePrime:
    def test_bit_length_exact(self):
        for bits in (16, 32, 64):
            prime = math_utils.generate_prime(bits)
            assert prime.bit_length() == bits
            assert math_utils.is_probable_prime(prime)

    def test_rejects_tiny_sizes(self):
        with pytest.raises(ValueError):
            math_utils.generate_prime(4)

    def test_seeded_generator_replays(self):
        first = math_utils.generate_prime(64, random.Random(8))
        assert first == math_utils.generate_prime(64, random.Random(8))
        assert first != math_utils.generate_prime(64, random.Random(9))


class TestGeneratePrimePair:
    def test_product_has_requested_bits(self):
        for bits in (16, 17, 65, 128):
            p, q = math_utils.generate_prime_pair(bits)
            assert (p * q).bit_length() == bits
            assert p != q
            assert math.gcd(p * q, (p - 1) * (q - 1)) == 1

    def test_primality_of_both(self):
        p, q = math_utils.generate_prime_pair(96)
        assert math_utils.is_probable_prime(p)
        assert math_utils.is_probable_prime(q)

    @pytest.mark.parametrize("bits", [16, 17, 65, 128, 160])
    def test_both_primes_have_their_top_two_bits_set(self, bits):
        # what makes p * q exactly `bits` bits without a redraw
        p, q = math_utils.generate_prime_pair(bits)
        half = bits // 2
        assert p >> (half - 2) == 3
        assert q >> (bits - half - 2) == 3

    def test_seeded_draws_replay(self):
        first = math_utils.generate_prime_pair(130, random.Random(4))
        assert first == math_utils.generate_prime_pair(130, random.Random(4))
        assert first != math_utils.generate_prime_pair(130, random.Random(5))


class TestInvert:
    def test_round_trip(self):
        modulus = 1009  # prime
        for a in (2, 3, 17, 1008):
            inverse = math_utils.invert(a, modulus)
            assert (a * inverse) % modulus == 1

    def test_non_invertible_raises(self):
        with pytest.raises(ValueError):
            math_utils.invert(6, 9)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_invert_property(self, a):
        modulus = 104729  # prime
        inverse = math_utils.invert(a % modulus or 1, modulus)
        assert ((a % modulus or 1) * inverse) % modulus == 1


class TestCrtCombine:
    @given(
        st.integers(min_value=0, max_value=10**12),
    )
    @settings(max_examples=50)
    def test_reconstructs_value(self, value):
        p, q = 1_000_003, 999_983
        value = value % (p * q)
        q_inv_p = math_utils.invert(q, p)
        combined = math_utils.crt_combine(value % p, value % q, p, q, q_inv_p)
        assert combined % (p * q) == value


class TestRandomHelpers:
    def test_random_coprime(self):
        n = 15  # 3 * 5
        for _ in range(50):
            r = math_utils.random_coprime(n)
            assert 1 <= r < n
            assert math.gcd(r, n) == 1


#: a test of libcrypto's own arena: its Montgomery cache, pins and checks
requires_libcrypto = pytest.mark.skipif(not _libcrypto_loads(), reason="no versioned libcrypto here")


class TestEngine:
    _examples = itertools.count()

    @requires_libcrypto
    def test_backend_names_openssl_where_libcrypto_loads(self):
        assert math_utils.get_backend().name == "openssl"

    @requires_libcrypto
    def test_montgomery_cache_stays_bounded(self):
        # Every fresh key brings new moduli (a key asks for three, n^2,
        # p^2 and q^2; this loop's key setup, draw and Dec use the last
        # two, its arena the first); the oldest contexts make room, and
        # each takes its pooled BIGNUMs with it.
        first_entry = None
        for seed in range(50):
            public, private = generate_keypair(256, seed=1000 + seed)
            cipher = public.raw_encrypt(5, private.make_obfuscator())
            assert private.raw_decrypt(cipher) == 5
            with math_utils.arena(public.n_squared) as bignums:
                handles = [bignums.load(cipher) for _ in range(3)]
                for _ in range(4):
                    handles.append(bignums.multiply(handles[-1], handles[0]))
                bignums.recycle()
                handles[3:] = [bignums.multiply(handles[0], handles[1])]
                assert bignums.unload(handles[-1]) == cipher * cipher % public.n_squared
            entry = math_utils._MONT_CACHE[public.n_squared]
            # 3 loads + 4 products, the last product drawn from the pool
            assert (entry.allocated, len(entry.free), entry.pins) == (7, 7, 0)
            first_entry = first_entry or entry
            assert len(math_utils._MONT_CACHE) <= math_utils._MONT_CACHE_SIZE
        assert len(math_utils._MONT_CACHE) == math_utils._MONT_CACHE_SIZE
        assert first_entry not in math_utils._MONT_CACHE.values()
        assert (first_entry.allocated, first_entry.free) == (0, [])

    @requires_libcrypto
    def test_an_open_arena_pins_its_context(self):
        # Evicting the context under live handles would free it from
        # under them (a segfault, not an exception).
        public, _ = generate_keypair(256, seed=7)
        n_squared = public.n_squared
        with math_utils.arena(n_squared) as bignums:
            handle = bignums.load(12345)
            for seed in range(2 * math_utils._MONT_CACHE_SIZE):
                other, _ = generate_keypair(256, seed=2000 + seed)
                math_utils.powmod(3, 5, other.n_squared)
            assert n_squared in math_utils._MONT_CACHE
            assert bignums.unload(bignums.multiply(handle, handle)) == 12345**2 % n_squared
        for seed in range(math_utils._MONT_CACHE_SIZE):
            other, _ = generate_keypair(256, seed=3000 + seed)
            math_utils.powmod(3, 5, other.n_squared)
        assert n_squared not in math_utils._MONT_CACHE

    def test_a_modulus_without_montgomery_arithmetic_gets_the_int_arena(self, engines):
        for _ in engines():
            with math_utils.arena(2**64) as bignums:  # even
                handle = bignums.load(2**64 + 5)
                assert type(handle) is bignums.handle and int(handle) == 5
                assert bignums.unload(bignums.power(handle, 3)) == 125

    @pytest.mark.parametrize("stranger", [None, 12345, b"\x01" * 8, "x", 1.5])
    def test_an_arena_refuses_what_is_not_its_handle(self, engines, stranger):
        # libcrypto's would pass None, an int or bytes on as a pointer
        for _ in engines():
            with math_utils.arena(10007**2) as bignums:
                handle = bignums.load(3)
                for call in (
                    lambda: bignums.multiply(handle, stranger),
                    lambda: bignums.multiply(stranger, handle),
                    lambda: bignums.power(stranger, 3),
                    lambda: bignums.unload(stranger),
                ):
                    with pytest.raises(TypeError, match=f"not {type(stranger).__name__}"):
                        call()
                assert bignums.unload(bignums.multiply(handle, handle)) == 9

    @requires_libcrypto
    def test_an_arena_that_multiplies_wrong_is_dropped(self, monkeypatch):
        arena = math_utils._arena
        assert arena is not math_utils._int_arena and math_utils._arena_agrees(arena)

        @contextlib.contextmanager
        def squaring(modulus):
            with arena(modulus) as bignums:
                yield SimpleNamespace(
                    load=bignums.load,
                    multiply=lambda a, b: bignums.multiply(a, a),
                    power=bignums.power,
                    unload=bignums.unload,
                    recycle=bignums.recycle,
                )

        assert not math_utils._arena_agrees(squaring)
        # the powers stay on libcrypto; the blocks go to the int arena
        monkeypatch.setattr(math_utils, "_arena_agrees", lambda arena: False)
        name, *_, dropped, _ = math_utils._load_engine()
        assert (name, dropped) == ("openssl", math_utils._int_arena)

    @requires_libcrypto
    def test_an_arena_that_powers_wrong_is_dropped(self, monkeypatch):
        arena = math_utils._arena

        @contextlib.contextmanager
        def off_by_one(modulus):
            with arena(modulus) as bignums:
                yield SimpleNamespace(
                    load=bignums.load,
                    multiply=bignums.multiply,
                    power=lambda a, e: bignums.power(a, e + 1),
                    unload=bignums.unload,
                    recycle=bignums.recycle,
                )

        assert not math_utils._arena_agrees(off_by_one)
        bind = math_utils._bind_libcrypto

        def bind_off_by_one(lib):
            powmod, powmod_once, _, cache = bind(lib)
            return powmod, powmod_once, off_by_one, cache

        monkeypatch.setattr(math_utils, "_bind_libcrypto", bind_off_by_one)
        name, powmod, *_, dropped, _ = math_utils._load_engine()
        assert (name, dropped) == ("openssl", math_utils._int_arena)
        assert powmod(*math_utils._KNOWN_ANSWER) == pow(*math_utils._KNOWN_ANSWER)

    @given(
        bits=st.sampled_from([62, 64, 66, 126, 128, 130]),
        exponents=st.lists(
            st.one_of(st.integers(0, 2), st.integers(0, 2**80)), min_size=1, max_size=4
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_power_is_powmod_on_the_loaded_integer(self, engines, bits, exponents, seed):
        # a modulus of its own per example: its pool holds only this block's
        rng = random.Random(seed * 1000 + next(self._examples))
        modulus = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        values = [0, 1, modulus - 1, rng.randrange(modulus)]
        for engine in engines():
            with math_utils.arena(modulus) as bignums:
                for value in values:
                    handle = bignums.load(value)
                    for exponent in exponents + exponents:  # the second round is cached
                        raised = bignums.power(handle, exponent)
                        assert bignums.unload(raised) == pow(value, exponent, modulus)
                bignums.recycle()
            if engine == "openssl":
                entry = math_utils._MONT_CACHE[modulus]
                # one pooled BIGNUM a load and a power: the exponents never join the pool
                pooled = len(values) * (1 + 2 * len(exponents))
                assert (entry.allocated, len(entry.free), entry.pins) == (pooled, pooled, 0)

    def test_recycle_hands_back_what_was_made_since_the_mark(self, engines):
        for engine in engines():
            with math_utils.arena(10007**2) as bignums:
                x = bignums.load(3)
                early = bignums.multiply(x, x)
                mark = bignums.mark()
                kept = bignums.multiply(early, x)
                bignums.multiply(kept, kept)
                bignums.recycle(mark, keep=[kept])
                # the pool's BIGNUM goes to the next product, not to a kept one
                again = bignums.multiply(x, x)
                assert [bignums.unload(h) for h in (early, kept, again)] == [9, 27, 9]
                assert again is not kept and again is not early

    def test_only_math_utils_imports_ctypes(self):
        package = Path(math_utils.__file__).parents[1]
        importers = set()
        for path in package.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = (
                    [alias.name for alias in node.names] if isinstance(node, ast.Import)
                    else [node.module or ""] if isinstance(node, ast.ImportFrom)
                    else []
                )
                if any(name.split(".")[0] == "ctypes" for name in names):
                    importers.add(path.relative_to(package).as_posix())
        assert importers == {"crypto/math_utils.py"}

    def test_only_math_utils_calls_three_argument_pow(self):
        # The powmod choke point the tracer and choke_calls wrap by name.
        crypto = Path(math_utils.__file__).parent
        callers = {
            path.name
            for path in crypto.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) == "pow"
            and len(node.args) == 3
        }
        assert callers == {"math_utils.py"}

    def test_raw_layer_and_cipher_construction_stay_in_crypto(self):
        # A raw_* op or a hand-built EncryptedNumber skips the align-scale
        # path and the OpStats ledger; only crypto/ may use them.
        package = Path(math_utils.__file__).parents[1]
        repo = package.parents[1]
        callers = set()
        for tree in (package, repo / "benchmarks", repo / "examples"):
            for path in tree.rglob("*.py"):
                for node in ast.walk(ast.parse(path.read_text())):
                    func = getattr(node, "func", None)
                    name = getattr(func, "attr", getattr(func, "id", ""))
                    if name.startswith("raw_") or name == "EncryptedNumber":
                        callers.add(path.parent)
        assert callers == {package / "crypto"}

    @staticmethod
    def _message_types_outside_messages() -> set:
        from repro.fed.messages import Message

        types, strays = [Message], set()
        while types:
            for cls in types.pop().__subclasses__():
                types.append(cls)
                if cls.__module__.startswith("repro.") and cls.__module__ != "repro.fed.messages":
                    strays.add(f"{cls.__module__}.{cls.__qualname__}")
        return strays

    def test_every_message_type_is_defined_in_messages(self):
        # The channel's guard and the disclosure declarations cover the
        # types of repro.fed.messages; a type minted elsewhere escapes review.
        import importlib
        import pkgutil

        import repro

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        assert not self._message_types_outside_messages()

    def _assert_minted_type_found(self, module: str, name: str) -> None:
        from repro.fed.messages import Message

        rogue = type(name, (Message,), {"__module__": module})
        try:
            assert self._message_types_outside_messages() == {f"{module}.{name}"}
        finally:
            # __subclasses__ holds weak references: collect the seeded type
            # so no later walk sees it.
            del rogue
            gc.collect()

    def test_a_message_type_minted_in_fed_is_found(self):
        self._assert_minted_type_found("repro.fed.rogue", "RogueReport")

    def test_a_message_type_minted_in_serve_is_found(self):
        self._assert_minted_type_found("repro.serve.rogue_batch", "UndeclaredAnswerBatch")
