"""Tests for encrypted histogram construction and §5.2 packing."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.enc_histogram import (
    BinCodeError,
    EncryptedHistogram,
    EncryptedHistogramError,
    PackedHistogramError,
    build_encrypted_histogram,
    decrypt_histogram,
    pack_histogram,
    unpack_histogram,
)
from repro.crypto.ciphertext import EncryptedNumber, PaillierContext
from repro.crypto.packing import GradHessLayout
from repro.gbdt.binning import bin_dataset
from repro.gbdt.histogram import build_histogram
from repro.gbdt.params import GBDTParams
from repro.gbdt.split import find_best_split, gain_matrix

CTX = PaillierContext.create(256, seed=31, jitter=3)


def _on_grid(values):
    """Values rounded onto the trainers' gradient grid, as Party B ships them."""
    return np.round(values * GradHessLayout.scale) / GradHessLayout.scale


def _setup(n=40, d=3, n_bins=6, seed=0, context=CTX):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    dataset = bin_dataset(features, n_bins)
    grads = _on_grid(rng.uniform(-1, 1, size=n))
    hess = _on_grid(rng.uniform(0.01, 0.25, size=n))
    grad_ciphers = [context.encrypt(float(g)) for g in grads]
    hess_ciphers = [context.encrypt(float(h)) for h in hess]
    return dataset, grads, hess, grad_ciphers, hess_ciphers


class _Pairs(list):
    """Pair ciphers plus ``raw``, the integers Party B encrypted into them."""

    raw: list[int]

    def total(self, rows) -> int:
        """What B adds up for a node: its rows' integers."""
        return sum(self.raw[i] for i in rows)


def _pair_setup(n=40, d=3, n_bins=6, seed=0, grads=None, context=CTX):
    """Like ``_setup`` with one (g, h) pair cipher per instance."""
    rng = np.random.default_rng(seed)
    dataset = bin_dataset(rng.normal(size=(n, d)), n_bins)
    grads = _on_grid(rng.uniform(-1, 1, size=n) if grads is None else grads)
    hess = _on_grid(rng.uniform(0.01, 0.25, size=n))
    layout = GradHessLayout(256, n, grad_bound=1.0, hess_bound=0.25)
    raw = layout.encode(grads.tolist(), hess.tolist())
    pairs = _Pairs(layout.encrypt(context, raw))
    pairs.raw = raw
    return dataset, grads, hess, pairs, layout


def _packed(dataset, rows, pairs, layout, reordered=False, context=CTX):
    public = context.public_context()
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
        decrypted = decrypt_histogram(CTX, encrypted, rows.size)
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
        decrypted = decrypt_histogram(CTX, encrypted, rows.size)
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


    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("bad", [6, -1])
    def test_code_outside_the_bins_is_refused(self, packed, bad):
        # Such a code used to count as "last bin"; in the paired build
        # it would name another feature's joint cell.
        dataset, _, _, gc, hc = _setup(n=8, d=2)
        codes = dataset.codes.astype(np.int64)
        codes[5, 1] = bad
        ciphers = (gc, None) if packed else (gc, hc)
        with pytest.raises(BinCodeError, match=r"\[0, 6\)"):
            build_encrypted_histogram(
                CTX.public_context(), codes, np.arange(8), *ciphers, 6, False
            )
        # Rows off the node are not the node's business.
        build_encrypted_histogram(
            CTX.public_context(), codes, np.arange(5), *ciphers, 6, False
        )


class TestPairedBuild:
    """Two features per HAdd: the per-feature ciphertexts for fewer additions."""

    POOL = 14
    _, _, _, PAIRS, LAYOUT = _pair_setup(n=POOL, d=1, n_bins=2, seed=21)

    @given(
        n=st.integers(0, POOL),
        d=st.integers(1, 5),
        s=st.integers(1, 7),
        all_last=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @example(n=9, d=3, s=4, all_last=False, seed=0)  # odd D
    @example(n=9, d=1, s=4, all_last=False, seed=1)  # D = 1: no pair at all
    @example(n=9, d=4, s=2, all_last=False, seed=2)  # one held bin
    @example(n=9, d=4, s=1, all_last=False, seed=3)  # nothing held
    @example(n=0, d=4, s=4, all_last=False, seed=4)  # empty node
    @example(n=1, d=4, s=4, all_last=False, seed=5)
    @example(n=9, d=4, s=4, all_last=True, seed=6)  # every code a last bin
    @example(n=5, d=4, s=7, all_last=False, seed=7)  # sparse: n < s
    @example(n=POOL, d=5, s=3, all_last=False, seed=8)  # crowded cells
    @settings(max_examples=30, derandomize=True, deadline=None)
    def test_same_ciphertexts_for_fewer_additions(self, n, d, s, all_last, seed):
        rng = np.random.default_rng(seed)
        rows = rng.permutation(self.POOL)[:n]
        codes = rng.integers(0, s, size=(self.POOL, d))
        if all_last:
            codes[:] = s - 1
        public = CTX.public_context()
        n_squared = public.public_key.n_squared
        width = s - 1

        built = build_encrypted_histogram(public, codes, rows, self.PAIRS, None, s, False)
        build_adds = public.stats.additions

        # (i) every bin is the per-feature product of its instances.
        reference = [[None] * width for _ in range(d)]
        for i in rows:
            for j, k in enumerate(codes[i]):
                if k < width:
                    held = reference[j][k]
                    cipher = self.PAIRS[i].ciphertext
                    reference[j][k] = cipher if held is None else held * cipher % n_squared
        assert [
            [cell and cell.ciphertext for cell in bins] for bins in built.grad_bins
        ] == reference
        assert (built.n_instances, built.n_bins, built.hess_bins) == (n, s, [])

        # (ii) HAdds = per-feature - sum over pairs of (instances with
        # both codes held - non-empty joint cells), never more.
        node = codes[rows]
        per_feature = sum(
            int((node[:, j] < width).sum()) - len(set(node[node[:, j] < width, j]))
            for j in range(d)
        )
        saved = 0
        for j in range(0, d - 1, 2):
            joined = node[(node[:, j] < width) & (node[:, j + 1] < width)][:, j : j + 2]
            saved += len(joined) - len({tuple(pair) for pair in joined.tolist()})
        assert build_adds == per_feature - saved <= per_feature

        # (iii) packs are what the explicit zeros of empty bins gave, for
        # one HAdd less per empty bin after a feature's first.
        zero = public.encrypt_zero(self.LAYOUT.exponent)
        explicit = EncryptedHistogram(
            [
                [
                    zero if cell is None
                    else EncryptedNumber(public, cell, self.LAYOUT.exponent)
                    for cell in bins
                ]
                for bins in reference
            ],
            [], n, s,
        )
        before = public.stats.snapshot()
        packed = pack_histogram(public, built, self.LAYOUT)
        pack_adds = public.stats.diff(before).additions
        before = public.stats.snapshot()
        packed_explicit = pack_histogram(public, explicit, self.LAYOUT)
        empty_after_first = sum(cell is None for bins in reference for cell in bins[1:])
        assert public.stats.diff(before).additions - pack_adds == empty_after_first
        assert [p.ciphertext for p in packed.packs] == [
            p.ciphertext for p in packed_explicit.packs
        ]
        total = self.PAIRS.total(rows)
        recovered = unpack_histogram(CTX, packed, total)
        expected = unpack_histogram(CTX, packed_explicit, total)
        assert np.array_equal(recovered.grad, expected.grad)
        assert np.array_equal(recovered.hess, expected.hess)


class TestPackUnpackHistogram:
    @pytest.mark.parametrize("reordered", [False, True])
    def test_round_trip(self, reordered):
        dataset, grads, hess, pairs, layout = _pair_setup(n=50, d=2, n_bins=8, seed=3)
        rows = np.arange(dataset.n_instances)
        _, packed = _packed(dataset, rows, pairs, layout, reordered)
        recovered = unpack_histogram(CTX, packed, pairs.total(rows))
        reference = build_histogram(dataset, rows, grads, hess)
        assert np.allclose(recovered.grad, reference.grad, atol=1e-7)
        assert np.allclose(recovered.hess, reference.hess, atol=1e-7)

    def test_wire_size_shrinks(self):
        dataset, _, _, pairs, layout = _pair_setup(n=30, d=2, n_bins=8)
        encrypted, packed = _packed(dataset, np.arange(30), pairs, layout)
        assert layout.capacity == 6  # 253 usable bits, 41-bit slots
        # 2 features x 7 shipped bins: no feature's last bin is built.
        assert encrypted.cipher_count() == 14
        assert packed.cipher_count() == 3

    def test_one_decryption_per_pack(self):
        dataset, _, _, pairs, layout = _pair_setup(n=20, d=1, n_bins=6)
        _, packed = _packed(dataset, np.arange(20), pairs, layout)
        before = CTX.stats.snapshot()
        unpack_histogram(CTX, packed, pairs.total(range(20)))
        assert CTX.stats.diff(before).decryptions == packed.cipher_count()

    def test_pair_bins_never_scale(self):
        dataset, _, _, pairs, layout = _pair_setup(n=20, d=2, n_bins=6)
        public = CTX.public_context()
        encrypted = build_encrypted_histogram(
            public, dataset.codes, np.arange(20), pairs, None, 6, reordered=False
        )
        pack_histogram(public, encrypted, layout)
        assert public.stats.scalings == 0
        assert encrypted.cipher_count() == 2 * 5

    def test_negative_gradient_sums_survive_shift(self):
        # All-negative gradients stress the N*Bound shift.
        n = 30
        grads = -np.random.default_rng(4).uniform(0.5, 1.0, size=n)
        dataset, grads, hess, pairs, layout = _pair_setup(
            n=n, d=1, n_bins=5, seed=4, grads=grads
        )
        _, packed = _packed(dataset, np.arange(n), pairs, layout)
        recovered = unpack_histogram(CTX, packed, pairs.total(range(n)))
        reference = build_histogram(dataset, np.arange(n), grads, hess)
        assert np.allclose(recovered.grad, reference.grad, atol=1e-7)
        assert np.allclose(recovered.hess, reference.hess, atol=1e-7)

    def test_shift_value_recorded(self):
        dataset, _, _, pairs, layout = _pair_setup(n=25, d=1, n_bins=4)
        _, packed = _packed(dataset, np.arange(25), pairs, layout)
        assert packed.layout.shift(packed.n_instances) == 25 * 16**4

    def test_packs_fill_across_features(self):
        # 5 features x 4 shipped bins = 20 slots in 4 ciphers of up to 6
        # (39-bit slots), where per-feature packs would have cost 5 x 1.
        dataset, grads, hess, pairs, layout = _pair_setup(n=12, d=5, n_bins=5)
        rows = np.arange(12)
        _, packed = _packed(dataset, rows, pairs, layout)
        assert [pack.count for pack in packed.packs] == [6] * 3 + [2]
        recovered = unpack_histogram(CTX, packed, pairs.total(rows))
        reference = build_histogram(dataset, rows, grads, hess)
        assert np.allclose(recovered.grad, reference.grad, atol=1e-7)
        assert np.allclose(recovered.hess, reference.hess, atol=1e-7)

    def test_nothing_to_pack(self):
        # One bin per feature, or no feature at all: no slots, no packs,
        # and the one bin of every feature is B's own total.
        _, grads, _, pairs, layout = _pair_setup(n=6, d=2, n_bins=2)
        public = CTX.public_context()
        rows = np.arange(6)
        total = pairs.total(rows)
        for codes in (np.zeros((6, 2), dtype=np.int64), np.zeros((6, 0), dtype=np.int64)):
            encrypted = build_encrypted_histogram(public, codes, rows, pairs, None, 1, False)
            packed = pack_histogram(public, encrypted, layout)
            assert encrypted.cipher_count() == 0 and packed.packs == []
            recovered = unpack_histogram(CTX, packed, total)
            own = sum(round(g * layout.scale) for g in grads) / layout.scale
            assert recovered.grad.tolist() == [[own]] * codes.shape[1]


class TestPackedIntegrity:
    """What B's own node total lets it refuse."""

    N = 30
    #: a modulus above ``CTX``'s, so every ``CTX`` cipher is in its range
    #: and reaches the slot checks instead of ``raw_decrypt``'s range check
    HOME = PaillierContext.create(256, seed=32, jitter=1)
    DATASET, _, _, PAIRS, LAYOUT = _pair_setup(n=N, d=4, n_bins=6, seed=11, context=HOME)
    ROWS = np.arange(N)

    def _packed(self, rows=ROWS):
        return _packed(self.DATASET, rows, self.PAIRS, self.LAYOUT, context=self.HOME)[1]

    def _unpack(self, packed, rows=ROWS):
        return unpack_histogram(self.HOME, packed, self.PAIRS.total(rows))

    def test_intact_packs_unpack(self):
        self._unpack(self._packed())

    def test_pack_under_another_key(self):
        assert CTX.public_key.n < self.HOME.public_key.n
        _, _, _, foreign_pairs, _ = _pair_setup(n=self.N, d=4, n_bins=6, seed=11)
        foreign = _packed(self.DATASET, self.ROWS, foreign_pairs, self.LAYOUT)[1]
        packed = self._packed()
        for position in range(len(packed.packs)):
            packs = list(packed.packs)
            packs[position] = foreign.packs[position]
            with pytest.raises(PackedHistogramError):
                self._unpack(dataclasses.replace(packed, packs=packs))

    def test_pack_lists_of_two_nodes_swapped(self):
        # The same slot count either way, so only the totals can tell:
        # the large node's hessian prefixes pass the small node's sum.
        small = np.arange(4)
        swapped = dataclasses.replace(self._packed(small), packs=self._packed().packs)
        with pytest.raises(PackedHistogramError, match="cannot belong"):
            self._unpack(swapped, small)

    def test_one_pack_dropped(self):
        packed = self._packed()
        with pytest.raises(PackedHistogramError, match="slots"):
            self._unpack(dataclasses.replace(packed, packs=packed.packs[:-1]))

    def test_one_pack_duplicated(self):
        packed = self._packed()
        longer = dataclasses.replace(packed, packs=packed.packs + packed.packs[-1:])
        with pytest.raises(PackedHistogramError, match="slots"):
            self._unpack(longer)
        # Same length, one pack standing in for its neighbour: the
        # repeated prefixes run backwards at the next pack.
        packs = list(packed.packs)
        packs[2] = packs[1]
        with pytest.raises(PackedHistogramError, match="cannot belong"):
            self._unpack(dataclasses.replace(packed, packs=packs))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("limb_bits", LAYOUT.stride - 1),  # slices across slot borders
            ("limb_bits", LAYOUT.stride + 1),
            ("exponent", LAYOUT.exponent - 1),
            ("count", 0),
            ("count", LAYOUT.capacity + 1),  # reads slots nobody packed
        ],
        # by role, not value: the values move with the layout
        ids=["limb_bits-narrower", "limb_bits-wider", "exponent-lower", "count-0",
             "count-over-capacity"],
    )
    def test_pack_header_is_not_the_layouts(self, field, value):
        # limb_bits / exponent / count are the sender's words; B slices
        # by its own layout and decrypts nothing it would mis-slice.
        packed = self._packed()
        for position in (0, len(packed.packs) - 1):
            packs = list(packed.packs)
            packs[position] = dataclasses.replace(packs[position], **{field: value})
            before = self.HOME.stats.snapshot()
            with pytest.raises(PackedHistogramError, match="the layout packs"):
                self._unpack(dataclasses.replace(packed, packs=packs))
            assert self.HOME.stats.diff(before).decryptions == 0

    def test_slot_counts_that_only_add_up(self):
        # [t + 1, t - 1, ...] holds the right total; each pack is checked.
        packed = self._packed()
        first, second = packed.packs[:2]
        packs = [
            dataclasses.replace(first, count=first.count + 1),
            dataclasses.replace(second, count=second.count - 1),
            *packed.packs[2:],
        ]
        with pytest.raises(PackedHistogramError, match="the layout packs"):
            self._unpack(dataclasses.replace(packed, packs=packs))


class TestUnpackedIntegrity:
    """What B's bound on a node's bins lets it refuse on the unpacked path."""

    N = 20
    HOME = TestPackedIntegrity.HOME
    DATASET, _, _, GRADS, HESSES = _setup(n=N, d=3, n_bins=4, seed=12, context=HOME)
    ROWS = np.arange(N)

    def _encrypted(self):
        return build_encrypted_histogram(
            self.HOME.public_context(), self.DATASET.codes, self.ROWS,
            self.GRADS, self.HESSES, self.DATASET.n_bins, reordered=False,
        )

    def test_intact_bins_decrypt(self):
        decrypt_histogram(self.HOME, self._encrypted(), self.N)

    @pytest.mark.parametrize("seed", range(20))
    def test_bin_under_another_key(self, seed):
        # A CTX cipher is in HOME's range (smaller modulus), and decrypts
        # to a value inside the node's bound with probability ~2^-90.
        rng = np.random.default_rng(seed)
        encrypted = self._encrypted()
        half = encrypted.grad_bins if rng.integers(2) else encrypted.hess_bins
        j, k = rng.integers(encrypted.n_features), rng.integers(encrypted.n_bins)
        value = float(_on_grid(rng.uniform(-1, 1)))
        half[j][k] = EncryptedNumber(
            self.HOME, CTX.encrypt(value).ciphertext, half[j][k].exponent
        )
        with pytest.raises(EncryptedHistogramError, match=f"feature {j}, bin {k}"):
            decrypt_histogram(self.HOME, encrypted, self.N)

    @pytest.mark.parametrize(
        "value, bound",
        [(N + 1.0, N), (2.0**100, 2.0**99)],  # one-prime route, CRT route
        ids=["one-prime", "crt"],
    )
    def test_bin_past_the_bound(self, value, bound):
        # An honest cipher of more than the bound allows is refused too.
        encrypted = self._encrypted()
        encrypted.grad_bins[1][2] = self.HOME.encrypt(value)
        with pytest.raises(EncryptedHistogramError, match="feature 1, bin 2"):
            decrypt_histogram(self.HOME, encrypted, bound)


class TestSiblingBySubtraction:
    """``parent - small`` stands in for the large child's own histogram."""

    N = 24
    DATASET, _, _, GRAD_CIPHERS, HESS_CIPHERS = _setup(n=N, d=2, n_bins=4, seed=8)
    _, _, _, PAIR_CIPHERS, LAYOUT = _pair_setup(n=N, d=2, n_bins=4, seed=8)
    PARAMS = GBDTParams(n_bins=4)

    def _decrypted(self, rows, packed):
        if packed:
            return unpack_histogram(
                CTX,
                _packed(self.DATASET, rows, self.PAIR_CIPHERS, self.LAYOUT)[1],
                self.PAIR_CIPHERS.total(rows),
            )
        encrypted = build_encrypted_histogram(
            CTX.public_context(), self.DATASET.codes, rows, self.GRAD_CIPHERS,
            self.HESS_CIPHERS, self.DATASET.n_bins, reordered=True,
        )
        return decrypt_histogram(CTX, encrypted, rows.size)

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
