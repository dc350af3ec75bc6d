"""Tests for the DH-style private set intersection."""

import pytest

from repro.data.psi import PsiParty, _find_safe_prime, intersect, psi_align


class TestProtocol:
    prime = _find_safe_prime(64, seed=0)

    def test_seeded_group_is_the_recorded_one(self):
        # the seeded path draws its Sophie Germain prime through generate_prime
        assert self.prime == 11525723312445614843

    def test_intersection_found(self):
        a = PsiParty(["u1", "u2", "u3", "u5"], self.prime, seed=1)
        b = PsiParty(["u2", "u3", "u4"], self.prime, seed=2)
        keys_a, keys_b = intersect(a, b)
        assert set(keys_a) == set(keys_b) == {"u2", "u3"}

    def test_disjoint_sets(self):
        a = PsiParty(["x1"], self.prime, seed=1)
        b = PsiParty(["y1"], self.prime, seed=2)
        keys_a, keys_b = intersect(a, b)
        assert keys_a == [] and keys_b == []

    def test_identical_sets(self):
        keys = [f"u{i}" for i in range(20)]
        a = PsiParty(keys, self.prime, seed=3)
        b = PsiParty(list(reversed(keys)), self.prime, seed=4)
        keys_a, keys_b = intersect(a, b)
        assert set(keys_a) == set(keys_b) == set(keys)

    def test_blinding_hides_keys(self):
        # The blinded set must not expose the raw hashed keys.
        a = PsiParty(["secret-user"], self.prime, seed=5)
        blinded = a.blinded_set()
        from repro.data.psi import _hash_to_group

        assert blinded[0] != _hash_to_group("secret-user", self.prime)

    def test_commutativity_of_double_blinding(self):
        # b(a(x)) == a(b(x)) — the property the protocol rests on.
        a = PsiParty(["k"], self.prime, seed=6)
        b = PsiParty(["k"], self.prime, seed=7)
        ab = b.double_blind(a.blinded_set())
        ba = a.double_blind(b.blinded_set())
        assert ab == ba

    def test_mismatched_groups_rejected(self):
        other = _find_safe_prime(64, seed=9)
        a = PsiParty(["k"], self.prime, seed=1)
        b = PsiParty(["k"], other, seed=2)
        with pytest.raises(ValueError):
            intersect(a, b)


class TestPsiAlign:
    def test_positions_align(self):
        keys_a = ["u3", "u1", "u9", "u4"]
        keys_b = ["u4", "u9", "u7"]
        rows_a, rows_b = psi_align(keys_a, keys_b, group_bits=64, seed=0)
        assert len(rows_a) == len(rows_b) == 2
        for i, j in zip(rows_a, rows_b):
            assert keys_a[i] == keys_b[j]

    def test_empty_intersection(self):
        rows_a, rows_b = psi_align(["a"], ["b"], group_bits=64, seed=0)
        assert rows_a == [] and rows_b == []
