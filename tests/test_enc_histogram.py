"""Tests for encrypted histogram construction and §5.2 packing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.enc_histogram import (
    build_encrypted_histogram,
    decrypt_histogram,
    pack_histogram,
    unpack_histogram,
)
from repro.crypto.ciphertext import PaillierContext
from repro.crypto.packing import GradHessLayout, required_limb_bits
from repro.gbdt.binning import bin_dataset
from repro.gbdt.histogram import build_histogram
from repro.gbdt.params import GBDTParams
from repro.gbdt.split import find_best_split, gain_matrix

CTX = PaillierContext.create(256, seed=31, jitter=3)


def _setup(n=40, d=3, n_bins=6, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    dataset = bin_dataset(features, n_bins)
    grads = rng.uniform(-1, 1, size=n)
    hess = rng.uniform(0.01, 0.25, size=n)
    grad_ciphers = [CTX.encrypt(float(g)) for g in grads]
    hess_ciphers = [CTX.encrypt(float(h)) for h in hess]
    return dataset, grads, hess, grad_ciphers, hess_ciphers


def _pair_setup(n=40, d=3, n_bins=6, seed=0, grads=None):
    """Like ``_setup`` with one (g, h) pair cipher per instance."""
    rng = np.random.default_rng(seed)
    dataset = bin_dataset(rng.normal(size=(n, d)), n_bins)
    if grads is None:
        grads = rng.uniform(-1, 1, size=n)
    hess = rng.uniform(0.01, 0.25, size=n)
    layout = GradHessLayout(256, n, grad_bound=1.0, hess_bound=0.25)
    pairs = layout.encrypt(CTX, grads.tolist(), hess.tolist())
    return dataset, grads, hess, pairs, layout


def _packed(dataset, rows, pairs, layout, reordered=False):
    public = CTX.public_context()
    encrypted = build_encrypted_histogram(
        public, dataset.codes, rows, pairs, None, dataset.n_bins, reordered
    )
    return encrypted, pack_histogram(public, encrypted, layout)


class TestBuildEncryptedHistogram:
    @pytest.mark.parametrize("reordered", [False, True])
    def test_matches_plaintext(self, reordered):
        dataset, grads, hess, gc, hc = _setup()
        rows = np.arange(dataset.n_instances)
        encrypted = build_encrypted_histogram(
            CTX.public_context(), dataset.codes, rows, gc, hc,
            dataset.n_bins, reordered=reordered,
        )
        decrypted = decrypt_histogram(CTX, encrypted)
        reference = build_histogram(dataset, rows, grads, hess)
        assert np.allclose(decrypted.grad, reference.grad, atol=1e-5)
        assert np.allclose(decrypted.hess, reference.hess, atol=1e-5)

    def test_subset_rows(self):
        dataset, grads, hess, gc, hc = _setup()
        rows = np.array([0, 5, 9, 22])
        encrypted = build_encrypted_histogram(
            CTX.public_context(), dataset.codes, rows, gc, hc,
            dataset.n_bins, reordered=True,
        )
        decrypted = decrypt_histogram(CTX, encrypted)
        reference = build_histogram(dataset, rows, grads, hess)
        assert np.allclose(decrypted.grad, reference.grad, atol=1e-5)

    def test_reordered_scales_less(self):
        dataset, _, _, gc, hc = _setup(n=60)
        rows = np.arange(dataset.n_instances)
        public = CTX.public_context()
        before = public.stats.snapshot()
        build_encrypted_histogram(
            public, dataset.codes, rows, gc, hc, dataset.n_bins, reordered=False
        )
        naive_scalings = public.stats.diff(before).scalings
        before = public.stats.snapshot()
        build_encrypted_histogram(
            public, dataset.codes, rows, gc, hc, dataset.n_bins, reordered=True
        )
        reordered_scalings = public.stats.diff(before).scalings
        assert reordered_scalings < naive_scalings

    def test_cipher_count(self):
        dataset, _, _, gc, hc = _setup(d=2, n_bins=5)
        encrypted = build_encrypted_histogram(
            CTX.public_context(), dataset.codes, np.arange(10), gc, hc, 5, True
        )
        assert encrypted.cipher_count() == 2 * 2 * 5


class TestPackUnpackHistogram:
    @pytest.mark.parametrize("reordered", [False, True])
    def test_round_trip(self, reordered):
        dataset, grads, hess, pairs, layout = _pair_setup(n=50, d=2, n_bins=8, seed=3)
        rows = np.arange(dataset.n_instances)
        _, packed = _packed(dataset, rows, pairs, layout, reordered)
        recovered = unpack_histogram(CTX, packed)
        reference = build_histogram(dataset, rows, grads, hess)
        assert np.allclose(recovered.grad, reference.grad, atol=1e-7)
        assert np.allclose(recovered.hess, reference.hess, atol=1e-7)

    def test_wire_size_shrinks(self):
        dataset, _, _, pairs, layout = _pair_setup(n=30, d=2, n_bins=8)
        encrypted, packed = _packed(dataset, np.arange(30), pairs, layout)
        assert layout.capacity == 2
        assert packed.cipher_count() == encrypted.cipher_count() // 2

    def test_one_decryption_per_pack(self):
        dataset, _, _, pairs, layout = _pair_setup(n=20, d=1, n_bins=6)
        _, packed = _packed(dataset, np.arange(20), pairs, layout)
        before = CTX.stats.snapshot()
        unpack_histogram(CTX, packed)
        assert CTX.stats.diff(before).decryptions == packed.cipher_count()

    def test_pair_bins_never_scale(self):
        dataset, _, _, pairs, layout = _pair_setup(n=20, d=2, n_bins=6)
        public = CTX.public_context()
        encrypted = build_encrypted_histogram(
            public, dataset.codes, np.arange(20), pairs, None, 6, reordered=False
        )
        pack_histogram(public, encrypted, layout)
        assert public.stats.scalings == 0
        assert encrypted.cipher_count() == 2 * 6

    def test_negative_gradient_sums_survive_shift(self):
        # All-negative gradients stress the N*Bound shift.
        n = 30
        grads = -np.random.default_rng(4).uniform(0.5, 1.0, size=n)
        dataset, grads, hess, pairs, layout = _pair_setup(
            n=n, d=1, n_bins=5, seed=4, grads=grads
        )
        _, packed = _packed(dataset, np.arange(n), pairs, layout)
        recovered = unpack_histogram(CTX, packed)
        reference = build_histogram(dataset, np.arange(n), grads, hess)
        assert np.allclose(recovered.grad, reference.grad, atol=1e-7)
        assert np.allclose(recovered.hess, reference.hess, atol=1e-7)

    def test_shift_value_recorded(self):
        dataset, _, _, pairs, layout = _pair_setup(n=25, d=1, n_bins=4)
        _, packed = _packed(dataset, np.arange(25), pairs, layout)
        assert packed.layout.shift(packed.n_instances) == 25 * 16**8


class TestSiblingBySubtraction:
    """``parent - small`` stands in for the large child's own histogram."""

    N = 24
    DATASET, _, _, GRAD_CIPHERS, HESS_CIPHERS = _setup(n=N, d=2, n_bins=4, seed=8)
    _, _, _, PAIR_CIPHERS, LAYOUT = _pair_setup(n=N, d=2, n_bins=4, seed=8)
    PARAMS = GBDTParams(n_bins=4)

    def _decrypted(self, rows, packed):
        if packed:
            return unpack_histogram(
                CTX, _packed(self.DATASET, rows, self.PAIR_CIPHERS, self.LAYOUT)[1]
            )
        encrypted = build_encrypted_histogram(
            CTX.public_context(), self.DATASET.codes, rows, self.GRAD_CIPHERS,
            self.HESS_CIPHERS, self.DATASET.n_bins, reordered=True,
        )
        return decrypt_histogram(CTX, encrypted)

    @given(
        in_parent=st.lists(st.booleans(), min_size=N, max_size=N),
        goes_left=st.lists(st.booleans(), min_size=N, max_size=N),
        packed=st.booleans(),
    )
    @settings(max_examples=12, derandomize=True, deadline=None)
    def test_same_split_candidate_as_own_histogram(self, in_parent, goes_left, packed):
        parent_rows = np.flatnonzero(in_parent)
        left = parent_rows[np.asarray(goes_left)[parent_rows]]
        right = np.setdiff1d(parent_rows, left)
        small, large = (left, right) if left.size <= right.size else (right, left)
        derived = self._decrypted(parent_rows, packed).subtract(
            self._decrypted(small, packed)
        )
        own = self._decrypted(large, packed)
        assert np.allclose(derived.grad, own.grad, rtol=0, atol=1e-12)
        assert np.allclose(derived.hess, own.hess, rtol=0, atol=1e-12)
        search = dict(check_counts=False, node_instances=int(large.size))
        got = find_best_split(derived, self.PARAMS, **search)
        want = find_best_split(own, self.PARAMS, **search)
        assert got.is_valid == want.is_valid
        if want.is_valid and (got.feature, got.bin_index) != (
            want.feature, want.bin_index
        ):
            # Only an exact tie in gain may be broken differently.
            gains, _ = gain_matrix(own, self.PARAMS, check_counts=False)
            assert gains[got.feature, got.bin_index] == pytest.approx(
                want.gain, abs=1e-9
            )


class TestRequiredLimbBits:
    def test_grows_with_magnitude(self):
        small = required_limb_bits(10.0, 16, 8, 16)
        large = required_limb_bits(1e9, 16, 8, 16)
        assert large > small >= 16

    def test_respects_configured_floor(self):
        assert required_limb_bits(1.0, 16, 2, 64) == 64

    def test_zero_magnitude(self):
        assert required_limb_bits(0.0, 16, 8, 48) == 48
