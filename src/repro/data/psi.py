"""Private set intersection for instance alignment (§6.1 "Data Preparation").

The paper pre-processes datasets with PSI so that all parties hold the
same instance set.  We implement the classic DH-style commutative-hash
PSI under the semi-honest model: each party blinds the (hashed) join
keys with a secret exponent, exchanges blinded sets, applies its own
exponent to the other's set, and intersects the doubly-blinded values.
Neither party learns keys outside the intersection.

This is a faithful *protocol* implementation over a safe prime group —
small enough parameters are used in tests; the security parameter is
configurable.
"""

from __future__ import annotations

import hashlib
import random
import secrets
from dataclasses import dataclass

from repro.crypto.math_utils import generate_prime, is_probable_prime

__all__ = ["PsiParty", "intersect", "psi_align"]

_DEFAULT_GROUP_BITS = 128


def _find_safe_prime(bits: int, seed: int | None = None) -> int:
    """A prime ``p`` with ``(p-1)/2`` also prime (small demo sizes)."""
    rng = random.Random(seed) if seed is not None else None
    while True:
        q = generate_prime(bits - 1, rng)
        p = 2 * q + 1
        if is_probable_prime(p):
            return p


def _hash_to_group(key: str, prime: int) -> int:
    """Hash a join key into the quadratic-residue subgroup of ``Z_p*``."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    value = int.from_bytes(digest, "big") % prime
    # Squaring maps into the QR subgroup where the blinding exponents act.
    return pow(value, 2, prime)


@dataclass
class PsiParty:
    """One participant of the DH-style PSI protocol.

    Args:
        keys: this party's instance join keys (e.g. hashed user ids).
        prime: shared group prime; both parties must agree on it.
        seed: deterministic secret exponent for tests; ``None`` draws a
            random secret.
    """

    keys: list[str]
    prime: int
    seed: int | None = None

    def __post_init__(self) -> None:
        order = (self.prime - 1) // 2
        if self.seed is None:
            self._secret = 2 + secrets.randbelow(order - 2)
        else:
            self._secret = 2 + random.Random(self.seed).randrange(order - 2)

    def blinded_set(self) -> list[int]:
        """First pass: blind own hashed keys with the secret exponent."""
        return [
            pow(_hash_to_group(key, self.prime), self._secret, self.prime)
            for key in self.keys
        ]

    def double_blind(self, blinded: list[int]) -> list[int]:
        """Second pass: apply own secret to the peer's blinded set."""
        return [pow(value, self._secret, self.prime) for value in blinded]


def intersect(party_a: PsiParty, party_b: PsiParty) -> tuple[list[str], list[str]]:
    """Run the two-party PSI protocol.

    Returns:
        ``(keys_a, keys_b)``: the intersection keys **in each party's own
        original order**, so downstream row alignment is by position.
    """
    if party_a.prime != party_b.prime:
        raise ValueError("parties must agree on the PSI group")
    blinded_a = party_a.blinded_set()
    blinded_b = party_b.blinded_set()
    double_a = party_b.double_blind(blinded_a)  # b(a(x))
    double_b = party_a.double_blind(blinded_b)  # a(b(y))
    common = set(double_a) & set(double_b)
    keys_a = [key for key, tag in zip(party_a.keys, double_a) if tag in common]
    keys_b = [key for key, tag in zip(party_b.keys, double_b) if tag in common]
    return keys_a, keys_b


def psi_align(
    keys_a: list[str],
    keys_b: list[str],
    group_bits: int = _DEFAULT_GROUP_BITS,
    seed: int | None = 0,
) -> tuple[list[int], list[int]]:
    """Convenience wrapper: intersect and return aligned row indices.

    Returns:
        ``(rows_a, rows_b)`` — positions into the two key lists such that
        ``keys_a[rows_a[i]] == keys_b[rows_b[i]]`` for every ``i``.
    """
    prime = _find_safe_prime(group_bits, seed=seed)
    a = PsiParty(keys_a, prime, seed=None if seed is None else seed + 1)
    b = PsiParty(keys_b, prime, seed=None if seed is None else seed + 2)
    common_a, common_b = intersect(a, b)
    # Sort both sides by key so positions line up deterministically.
    order = sorted(common_a)
    index_a = {key: i for i, key in enumerate(keys_a)}
    index_b = {key: i for i, key in enumerate(keys_b)}
    rows_a = [index_a[key] for key in order]
    rows_b = [index_b[key] for key in order]
    return rows_a, rows_b
