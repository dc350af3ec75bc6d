"""Tests for the two-limb (g, h) layout of the packed protocol path."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.bench.costmodel import CostModel
from repro.core.config import VF2BoostConfig
from repro.core.enc_histogram import (
    EncryptedHistogram,
    build_encrypted_histogram,
    pack_histogram,
    unpack_histogram,
)
from repro.core.protocol import ProtocolScheduler
from repro.core.trainer import FederatedTrainer
from repro.crypto.ciphertext import EncryptedNumber, PaillierContext
from repro.crypto.packing import GradHessLayout, GradientRangeError, pack_capacity
from repro.crypto.paillier import PaillierPublicKey
from repro.fed.cluster import ClusterSpec
from repro.fed.messages import CountedCipherPayload
from repro.gbdt.binning import bin_dataset
from repro.gbdt.boosting import GBDTTrainer
from repro.gbdt.params import GBDTParams

CTX = PaillierContext.create(256, seed=51, jitter=1)
LAYOUT = GradHessLayout(256, max_count=1000, grad_bound=1.0, hess_bound=0.25)
SCALE = LAYOUT.scale


def _on_grid(value):
    """A value rounded onto the trainers' gradient grid, as Party B ships it."""
    return round(value * SCALE) / SCALE


def _decode(cipher, count, layout=LAYOUT, context=CTX):
    """Exact ``(grad sum, hess sum)`` of a cipher summing ``count`` pairs."""
    shift = layout.shift(count)
    shifted = context.add_plain_raw(cipher, shift)
    grad_raw, hess_raw = layout.split(context.decrypt_raw(shifted))
    return (grad_raw - shift) / layout.scale, hess_raw / layout.scale


def _encrypt_pair(grad, hess):
    return LAYOUT.encrypt(CTX, LAYOUT.encode([_on_grid(grad)], [_on_grid(hess)]))[0]


class TestCodec:
    def test_single_pair_round_trip(self):
        grad_sum, hess_sum = _decode(_encrypt_pair(0.75, 0.2), 1)
        assert grad_sum == 0.75
        assert hess_sum == round(0.2 * SCALE) / SCALE

    def test_negative_gradient(self):
        grad_sum, hess_sum = _decode(_encrypt_pair(-0.9, 0.01), 1)
        assert grad_sum == round(-0.9 * SCALE) / SCALE
        # A negative gradient under a zero hessian makes the whole
        # plaintext negative; the shift alone must bring it back.
        assert _decode(_encrypt_pair(-1.0, 0.0), 1) == (-1.0, 0.0)

    @given(
        st.lists(
            st.tuples(st.floats(-1, 1), st.floats(0, 0.25)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_accumulated_sums(self, pairs):
        pairs = [(_on_grid(g), _on_grid(h)) for g, h in pairs]
        total = CTX.sum_ciphers(LAYOUT.encrypt(CTX, LAYOUT.encode(*zip(*pairs))))
        grad_sum, hess_sum = _decode(total, len(pairs))
        assert grad_sum == sum(round(g * SCALE) for g, _ in pairs) / SCALE
        assert hess_sum == sum(round(h * SCALE) for _, h in pairs) / SCALE

    def test_accumulation_never_scales(self):
        ciphers = LAYOUT.encrypt(CTX, LAYOUT.encode([0.5] * 10, [_on_grid(0.1)] * 10))
        before = CTX.stats.snapshot()
        CTX.sum_ciphers(ciphers)
        assert CTX.stats.diff(before).scalings == 0

    def test_one_encryption_per_pair(self):
        before = CTX.stats.snapshot()
        _encrypt_pair(0.1, 0.1)
        assert CTX.stats.diff(before).encryptions == 1

    def test_bound_enforced(self):
        for grad, hess in [
            (1.5, 0.1), (-1.0000001, 0.1), (0.5, -0.1), (0.5, 0.2500001),
            (math.nan, 0.1), (0.5, math.nan),
        ]:
            with pytest.raises(GradientRangeError):
                LAYOUT.encode([grad], [hess])
        assert LAYOUT.encode([-1.0, 1.0], [0.0, 0.25]) == [
            -SCALE, (SCALE // 4 << LAYOUT.limb_bits) + SCALE,
        ]

    @pytest.mark.parametrize(
        "grad, hess",
        [
            (0.1, 0.125),  # 0.1 * 2**16 = 6553.6
            (0.5, 0.2),
            (2.0**-17, 0.0),  # half a grid step
            (-1.0 + 2.0**-40, 0.0),
            (0.5, 0.25 - 2.0**-30),
        ],
    )
    def test_value_off_the_grid_is_refused(self, grad, hess):
        # Rounding it here would make the federated model differ from
        # the co-located one, which trains on the grid value.
        with pytest.raises(GradientRangeError, match="grid"):
            LAYOUT.encode([0.5, grad], [0.125, hess])
        assert LAYOUT.encode([_on_grid(grad)], [_on_grid(hess)]) == [
            (round(hess * SCALE) << LAYOUT.limb_bits) + round(grad * SCALE)
        ]

    def test_capacity_check(self):
        with pytest.raises(ValueError, match="key too small"):
            GradHessLayout(64, 10**9, grad_bound=1.0, hess_bound=0.25)

    def test_zero_cipher(self):
        assert _decode(CTX.encrypt_zero(LAYOUT.exponent), 0) == (0.0, 0.0)

    def test_hessian_limb_sized_from_its_own_bound(self):
        # A large hessian bound widens the hessian's bits of the slot
        # and leaves the gradient limb (where the hessian starts) alone.
        narrow = GradHessLayout(512, 64, grad_bound=1.0, hess_bound=0.25)
        wide = GradHessLayout(512, 64, grad_bound=1.0, hess_bound=16.0)
        assert narrow.limb_bits == 24  # bit_length(2 * 64 * 2**16 = 2**23)
        assert wide.limb_bits == narrow.limb_bits
        assert wide.stride == narrow.stride + 6
        assert wide.shift(64) == narrow.shift(64)


class TestLayoutProperties:
    """No carry and exact round-trip wherever the limbs are fullest."""

    CONTEXTS = {
        bits: PaillierContext.create(bits, seed=7, jitter=1)
        for bits in (256, 384, 512)
    }

    def _round_trip(self, key_bits, codes, pairs, n_bins):
        """Build -> pack -> unpack one node; exact against the integer sums.

        ``codes`` is the node's ``(n, d)`` bin-code matrix, ``pairs`` its
        ``(g, h)`` per row.  Party B's side of the bargain is ``sum(raw)``.
        """
        context = self.CONTEXTS[key_bits]
        n, d = codes.shape
        pairs = [(_on_grid(grad), _on_grid(hess)) for grad, hess in pairs]
        layout = GradHessLayout(key_bits, max(n, 1), grad_bound=1.0, hess_bound=0.25)
        raw = layout.encode(*zip(*pairs)) if pairs else []
        public = context.public_context()
        encrypted = build_encrypted_histogram(
            public, codes, np.arange(n), layout.encrypt(context, raw), None, n_bins,
            False,
        )
        assert encrypted.cipher_count() == d * (n_bins - 1)
        packed = pack_histogram(public, encrypted, layout)
        assert public.stats.scalings == 0
        n_packs = -(-d * (n_bins - 1) // layout.capacity)
        assert packed.cipher_count() == n_packs == layout.packs_per_node(d, n_bins)
        before = context.stats.snapshot()
        histogram = unpack_histogram(context, packed, sum(raw))
        assert context.stats.diff(before).decryptions == n_packs
        scale = layout.scale
        grad_sums = np.zeros((d, n_bins), dtype=object)
        hess_sums = np.zeros((d, n_bins), dtype=object)
        for row_codes, (grad, hess) in zip(codes.tolist(), pairs):
            for feature, code in enumerate(row_codes):
                grad_sums[feature, code] += round(grad * scale)
                hess_sums[feature, code] += round(hess * scale)
        assert (histogram.grad * scale == grad_sums).all()
        assert (histogram.hess * scale == hess_sums).all()
        return layout, packed

    def _one_feature(self, key_bits, bin_contents):
        """One feature whose bin ``k`` holds the pairs ``bin_contents[k]``."""
        pairs = [pair for content in bin_contents for pair in content]
        codes = np.repeat(
            np.arange(len(bin_contents)), [len(c) for c in bin_contents]
        ).reshape(-1, 1)
        return self._round_trip(key_bits, codes, pairs, len(bin_contents))

    @pytest.mark.parametrize("key_bits", [256, 384, 512])
    @pytest.mark.parametrize("extreme", [(-1.0, 0.0), (-1.0, 0.25), (1.0, 0.25), (1.0, 0.0)])
    def test_every_instance_at_the_bound_in_one_bin(self, key_bits, extreme):
        # N * Bound lands in one limb; its neighbours are empty bins.
        self._one_feature(key_bits, [[], [extreme] * 12, [], []])

    @pytest.mark.parametrize("extreme", [(-1.0, 0.0), (-1.0, 0.25), (1.0, 0.25), (1.0, 0.0)])
    @pytest.mark.parametrize("n", [32, 64])
    def test_bounds_that_are_exact_powers_of_two(self, n, extreme):
        # N = 64: the largest shifted prefix 2 * N * G = 2**23 needs 24
        # bits and N * H = 2**20 needs 21 (a log2 rule says 23 and 20).
        layout = GradHessLayout(256, n, grad_bound=1.0, hess_bound=0.25)
        assert 2 * layout.shift(n) == 1 << (layout.limb_bits - 1)
        assert n * SCALE // 4 == 1 << (layout.stride - layout.limb_bits - 1)
        self._one_feature(256, [[], [extreme] * n, [], []])

    @given(
        key_bits=st.sampled_from([256, 384, 512]),
        n=st.one_of(
            st.integers(1, 5000), st.sampled_from([2**k for k in range(1, 31)])
        ),
        bounds=st.sampled_from([(1.0, 0.25), (4.0, 1.0)]),  # logistic, squared
    )
    @example(key_bits=512, n=200, bounds=(1.0, 0.25))
    @example(key_bits=256, n=2**30, bounds=(4.0, 1.0))
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_fullest_pack_stays_in_the_positive_range(self, key_bits, n, bounds):
        # Every slot of a full pack at its bound: all N instances at
        # (+Bound_g, Bound_h) in the first bin, so each of the t prefixes
        # is 2 * N * G under N * H.  The bin is built as one cipher of the
        # N-fold integer, which is what N HAdds would have left there.
        context = self.CONTEXTS[key_bits]
        public = context.public_context()
        layout = GradHessLayout(key_bits, n, *bounds)
        t = layout.capacity
        whole_node = n * layout.encode([bounds[0]], [bounds[1]])[0]

        def packed(slots):
            cells = layout.encrypt(context, [whole_node] + [0] * (slots - 1))
            return pack_histogram(
                public, EncryptedHistogram([cells], [], n, slots + 1), layout
            )

        full = packed(t)
        (pack,) = full.packs
        plaintext = context.decrypt_raw(
            EncryptedNumber(context, pack.ciphertext, pack.exponent)
        )
        assert plaintext.bit_length() == t * layout.stride
        assert plaintext.bit_length() <= key_bits - 3
        assert plaintext <= context.public_key.max_int
        histogram = unpack_histogram(context, full, whole_node)
        assert histogram.grad[0].tolist() == [n * bounds[0]] + [0.0] * t
        assert histogram.hess[0].tolist() == [n * bounds[1]] + [0.0] * t
        assert [pack.count for pack in packed(t + 1).packs] == [t, 1]

    @pytest.mark.parametrize("key_bits", [256, 384, 512])
    def test_capacity_exactly_reached_then_exceeded(self, key_bits):
        layout = GradHessLayout(key_bits, 12, grad_bound=1.0, hess_bound=0.25)
        t = layout.capacity
        assert t == (key_bits - 3) // layout.stride
        # t + 1 bins ship t prefixes, each the whole node at the bound.
        full = [[(1.0, 0.25)] * 12] + [[] for _ in range(t)]
        _, packed = self._one_feature(key_bits, full)
        assert [pack.count for pack in packed.packs] == [t]
        # The fullest pack stays inside the positive plaintext range.
        context = self.CONTEXTS[key_bits]
        (pack,) = packed.packs
        plaintext = context.decrypt_raw(
            EncryptedNumber(context, pack.ciphertext, pack.exponent)
        )
        assert plaintext.bit_length() == t * layout.stride
        assert plaintext.bit_length() <= key_bits - 3
        _, packed = self._one_feature(key_bits, full + [[(-1.0, 0.0)]])
        assert [pack.count for pack in packed.packs] == [t, 1]

    def test_single_bin_feature_and_empty_node(self):
        # One bin: nothing to ship, the bin is B's own total.
        _, packed = self._one_feature(256, [[(-0.3, 0.1), (0.9, 0.2)]])
        assert packed.packs == []
        self._one_feature(256, [[], []])

    @given(
        st.lists(
            st.lists(
                st.tuples(
                    st.sampled_from([-1.0, 1.0, -0.5, 0.123456789]),
                    st.sampled_from([0.0, 0.25, 0.2]),
                ),
                max_size=4,
            ),
            min_size=1,
            max_size=7,
        )
    )
    @settings(max_examples=15, derandomize=True, deadline=None)
    def test_generated_bins_round_trip_exactly(self, bin_contents):
        self._one_feature(256, bin_contents)

    @given(
        key_bits=st.sampled_from([256, 384, 512]),
        n_bins=st.sampled_from([1, 2, 3, 4, 8, 33]),
        d=st.integers(1, 5),
        fill=st.sampled_from(["random", "first", "last", "empty"]),
        edge=st.sampled_from([None, -1, 0, 1]),
        seed=st.integers(0, 2**16),
    )
    @example(key_bits=256, n_bins=33, d=2, fill="last", edge=None, seed=0)
    @example(key_bits=512, n_bins=4, d=3, fill="first", edge=None, seed=0)
    @example(key_bits=384, n_bins=8, d=2, fill="empty", edge=None, seed=0)
    @example(key_bits=384, n_bins=1, d=3, fill="random", edge=None, seed=2)
    @example(key_bits=256, n_bins=2, d=1, fill="random", edge=-1, seed=1)
    @example(key_bits=256, n_bins=2, d=1, fill="random", edge=0, seed=1)
    @example(key_bits=512, n_bins=2, d=1, fill="last", edge=1, seed=1)
    @settings(max_examples=25, derandomize=True, deadline=None)
    def test_generated_nodes_round_trip_exactly(
        self, key_bits, n_bins, d, fill, edge, seed
    ):
        # Packs fill across features; B's total closes every feature.
        rng = np.random.default_rng(seed)
        n = 0 if fill == "empty" else 5
        if edge is not None:
            # D(s-1) on a pack boundary, one slot short of it, one past it.
            capacity = GradHessLayout(key_bits, max(n, 1), 1.0, 0.25).capacity
            n_bins, d = 2, 2 * capacity + edge
        codes = {
            "first": np.zeros((n, d), dtype=np.int64),
            "last": np.full((n, d), n_bins - 1, dtype=np.int64),
        }.get(fill, rng.integers(0, n_bins, size=(n, d)))
        pairs = list(
            zip(
                rng.choice([-1.0, 1.0, -0.5, 0.123456789], size=n).tolist(),
                rng.choice([0.0, 0.25, 0.2], size=n).tolist(),
            )
        )
        self._round_trip(key_bits, codes, pairs, n_bins)

    def test_decoded_sums_fit_float64_exactly(self):
        # A bin's raw sums are at most shift(N) in magnitude: at most 2**53
        # up to 2**37 unit-bound instances, so every sum of grid values
        # is an exact float64 on every path.
        assert GradHessLayout(2048, 2**37, 1.0, 0.25).shift(2**37) == 2**53
        # Paper scale: 25 two-value bins per cipher, the paper's t = 32.
        assert GradHessLayout(2048, 10_000_000, 1.0, 0.25).capacity == 25

    def test_grid_values_decode_exactly_at_every_jittered_exponent(self):
        # The unpacked path encrypts float(g) at a jittered exponent >= 8:
        # a grid value is an integer there, and 48 of them sum past 2**53
        # at 8 + 6 - 1, yet decode to the float64 sum of the grid values.
        value = -_on_grid(0.987654321)
        for exponent in range(LAYOUT.exponent, 8 + 6):
            ciphers = [CTX.encrypt(value, exponent=exponent) for _ in range(48)]
            assert CTX.decrypt(CTX.sum_ciphers(ciphers)) == 48 * value
        assert (2 * 48 * 16 ** (8 + 6 - 1)).bit_length() > 53

    def test_experiments_t_table_is_what_the_layout_computes(self):
        # EXPERIMENTS.md "Gradients on one 2⁻¹⁶ grid": | S | N | L_g | L_h | stride | t |
        import re
        from pathlib import Path

        text = (Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
        table = text.split("<!-- t-table:", 1)[1].split("<!-- /t-table -->", 1)[0]
        rows = [
            tuple(int(cell) for cell in row)
            for row in re.findall(r"^\|" + r" (\d+) \|" * 6 + "$", table, re.MULTILINE)
        ]
        assert {(bits, n) for bits, n, *_ in rows} >= {
            (512, 200), (1024, 200), (2048, 10_000_000),
        }
        for bits, n, grad_bits, hess_bits, stride, t in rows:
            layout = GradHessLayout(bits, n, grad_bound=1.0, hess_bound=0.25)
            assert (
                layout.limb_bits, layout.stride - layout.limb_bits,
                layout.stride, layout.capacity,
            ) == (grad_bits, hess_bits, stride, t), (bits, n)


def _problem(labels_kind, n=96, d=9, seed=3):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, d))
    score = features @ rng.normal(size=d) / 2 + rng.normal(scale=0.3, size=n)
    soft = 1.0 / (1.0 + np.exp(-score))
    return features, soft if labels_kind == "soft" else (soft > 0.5).astype(float)


class TestTrainerIntegration:
    def _setup(self):
        rng = np.random.default_rng(3)
        n, d = 120, 8
        features = rng.normal(size=(n, d))
        labels = ((features @ rng.normal(size=d)) > 0).astype(float)
        params = GBDTParams(n_trees=2, n_layers=3, n_bins=6)
        full = bin_dataset(features, params.n_bins)
        parties = [
            full.subset_features(np.arange(4, 8)),
            full.subset_features(np.arange(0, 4)),
        ]
        return full, parties, labels, params

    def test_pair_packed_training_is_lossless(self):
        full, parties, labels, params = self._setup()
        plaintext = GBDTTrainer(params)
        plaintext.fit_binned(full, labels)
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="real", key_bits=256)
        result = FederatedTrainer(config).fit(parties, labels)
        assert [r.train_loss for r in result.history] == pytest.approx(
            [r.train_loss for r in plaintext.history], abs=1e-4
        )

    @pytest.mark.parametrize("n_passive", [1, 2])
    @pytest.mark.parametrize("labels_kind", ["soft", "hard"])
    def test_real_counted_colocated_agree(self, labels_kind, n_passive):
        self._assert_real_counted_colocated_agree(labels_kind, n_passive, n_layers=4)

    @pytest.mark.parametrize("n_passive", [1, 2])
    def test_real_counted_colocated_agree_five_layers_deep(self, n_passive):
        # Derived parents of derived nodes, and small nodes whose last
        # bins (B's total minus what A shipped) are often empty.
        self._assert_real_counted_colocated_agree("soft", n_passive, n_layers=5)

    def _assert_real_counted_colocated_agree(self, labels_kind, n_passive, n_layers):
        features, labels = _problem(labels_kind)
        params = GBDTParams(n_trees=2, n_layers=n_layers, n_bins=5)
        full = bin_dataset(features, params.n_bins)
        width = 9 // (n_passive + 1)
        parties = [
            full.subset_features(np.arange(p * width, (p + 1) * width))
            for p in range(n_passive + 1)
        ]
        used = bin_dataset(features[:, : width * (n_passive + 1)], params.n_bins)
        codes = {p: ds.codes for p, ds in enumerate(parties)}
        plaintext = GBDTTrainer(params)
        plaintext.fit_binned(used, labels)
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="real", key_bits=256)
        real = FederatedTrainer(config).fit(parties, labels)
        counted = FederatedTrainer(config.replace(crypto_mode="counted")).fit(
            parties, labels
        )
        reference = [r.train_loss for r in plaintext.history]
        assert [r.train_loss for r in real.history] == reference
        assert [r.train_loss for r in counted.history] == reference
        assert np.array_equal(
            real.model.predict_margin(codes), counted.model.predict_margin(codes)
        )
        assert sum(s.scalings for s in real.crypto_stats.values()) == 0
        assert real.crypto_stats[0].encryptions == params.n_trees * len(labels)

    def test_size_tie_real_matches_counted(self):
        # The 8 | 8 root split of test_trainer's tie case, on real crypto.
        column = np.repeat([0.0, 1.0], 8)
        features = np.column_stack([column, np.tile([0.0, 1.0, 2.0, 3.0], 4)])
        params = GBDTParams(n_trees=1, n_layers=3, n_bins=4)
        full = bin_dataset(features, params.n_bins)
        parties = [full.subset_features(np.arange(0, 1)), full.subset_features(np.arange(1, 2))]
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="real", key_bits=256)
        real = FederatedTrainer(config).fit(parties, column)
        counted = FederatedTrainer(config.replace(crypto_mode="counted")).fit(parties, column)
        children = real.trace.trees[0].layers[1]
        assert [node.n_instances for node in children.nodes] == [8, 8]
        assert [node.derived for node in children.nodes] == [False, True]
        assert [r.train_loss for r in real.history] == [r.train_loss for r in counted.history]

    def test_pair_packed_enc_reaches_every_counter(self):
        # Pair ciphers go through the context's counted entry point:
        # they reach OpStats, and through it the GradEnc row.
        __, parties, labels, params = self._setup()
        config = VF2BoostConfig.vf2boost(
            params=params.replace(n_trees=1, n_layers=2), crypto_mode="real",
            key_bits=256,
        )
        result = FederatedTrainer(config).fit(parties, labels)
        encryptions = sum(s.encryptions for s in result.crypto_stats.values())
        assert encryptions == len(labels)  # one cipher per instance
        assert result.profile["phases"]["GradEnc"]["encryptions"] == encryptions

    def test_pair_packing_halves_gradient_stream(self):
        __, parties, labels, params = self._setup()
        packed = VF2BoostConfig.vf2boost(params=params, crypto_mode="real", key_bits=256)
        base = FederatedTrainer(packed.replace(histogram_packing=False)).fit(parties, labels)
        pair = FederatedTrainer(packed).fit(parties, labels)
        stream = "EncryptedGradHessBatch"
        headers = 8 * pair.channel.by_type[stream].messages
        assert 2 * (pair.channel.by_type[stream].bytes - headers) == (
            base.channel.by_type[stream].bytes - headers
        )
        assert pair.channel.total_bytes() < 0.5 * base.channel.total_bytes()

    def test_counted_mode_accounts_pairs(self):
        __, parties, labels, params = self._setup()
        config = VF2BoostConfig.vf2boost(params=params, crypto_mode="counted")
        result = FederatedTrainer(config).fit(parties, labels)
        shipped = [
            m.n_ciphers for m in result.channel.log
            if isinstance(m, CountedCipherPayload) and m.kind == "grad_hess"
        ]
        assert sum(shipped) == params.n_trees * len(labels)

    def test_out_of_range_gradient_fails_loudly(self):
        # Squared loss only *assumes* |g| <= 4; a target far outside the
        # unit range breaks the assumption on the first tree.
        __, parties, labels, params = self._setup()
        config = VF2BoostConfig.vf2boost(
            params=params.replace(objective="squared"), crypto_mode="real", key_bits=256
        )
        with pytest.raises(GradientRangeError):
            FederatedTrainer(config).fit(parties, labels * 100.0)


class TestSchedulerIntegration:
    def test_pair_packing_near_halves_makespan(self):
        from repro.core.profile import analytic_trace
        from repro.fed.cluster import PAPER_CLUSTER

        trace = analytic_trace(1_000_000, 5000, [5000], 0.01, 20, 5)
        params = GBDTParams(n_layers=5, n_bins=20)
        flags = dict(params=params, optimistic_split=False, blaster_encryption=False)
        base = ProtocolScheduler(
            VF2BoostConfig(histogram_packing=False, **flags),
            CostModel.paper(), PAPER_CLUSTER,
        ).schedule(trace)
        pair = ProtocolScheduler(
            VF2BoostConfig(**flags), CostModel.paper(), PAPER_CLUSTER
        ).schedule(trace)
        # Half the Enc and gradient stream, and packed histograms on top.
        assert 2 * pair.phase_totals["Enc"] == pytest.approx(base.phase_totals["Enc"])
        assert base.makespan / pair.makespan > 1.9
        assert pair.bytes_per_tree < 0.5 * base.bytes_per_tree

    def test_whatif_prices_packs_from_the_layout(self):
        from repro.bench.scenario import GOLDEN_DIMS
        from repro.obs.whatif import run_whatif

        params = GOLDEN_DIMS.params()
        # 3 features x 3 shipped bins: one pack per node at the default
        # 2048 bits, five when a 128-bit key holds two slots per cipher.
        narrow = run_whatif({"dec": 2.0}, config=VF2BoostConfig(params=params))
        wide = run_whatif(
            {"dec": 2.0}, config=VF2BoostConfig(params=params, key_bits=128)
        )
        assert VF2BoostConfig(params=params, key_bits=128).gradient_layout(48).capacity == 2
        assert wide.baseline.phases["FindSplitA"] > 3 * narrow.baseline.phases["FindSplitA"]
        assert wide.baseline.phases["CipherComm"] > narrow.baseline.phases["CipherComm"]

    def test_real_counted_and_scheduler_ship_the_same_ciphers(self, ledger_workload):
        parties, labels, config = ledger_workload
        rows, d_a, bins = len(labels), parties[1].n_features, parties[1].n_bins
        key_bits = config.key_bits
        real = FederatedTrainer(config).fit(parties, labels)
        counted = FederatedTrainer(config.replace(crypto_mode="counted")).fit(
            parties, labels
        )
        cipher_bytes = key_bits // 4
        packed = real.channel.by_type["PackedHistogramMessage"]
        real_packs = (packed.bytes - 32 * packed.messages) // cipher_bytes
        assert real_packs * cipher_bytes + 32 * packed.messages == packed.bytes
        counted_packs = sum(
            m.n_ciphers for m in counted.channel.log
            if isinstance(m, CountedCipherPayload) and m.kind == "histograms"
        )
        # Bytes as seconds: no latency, one byte per second.
        wire = ClusterSpec(wan_latency=0.0, wan_bandwidth=1.0)
        cost = CostModel(0, 0, 0, 0, 0, 0, 0, 0, cipher_bytes=cipher_bytes)
        tasks = ProtocolScheduler(config, cost, wire).schedule(
            real.trace, collect_tasks=True
        ).task_graphs[0]
        # (a duration is end - start: exact only to float rounding)
        scheduled_packs = round(
            sum(t.duration for t in tasks if t.name.startswith("histcomm"))
            / cipher_bytes,
            6,
        )
        layout = config.gradient_layout(rows)
        built = sum(layer.built_nodes for layer in real.trace.trees[0].layers)
        assert real_packs == counted_packs == scheduled_packs
        # Packs fill across features and no feature ships its last bin.
        assert real_packs == built * -(-d_a * (bins - 1) // layout.capacity)
        assert real.crypto_stats[0].decryptions == real_packs
        # Party A's whole SMul budget is the Horner packing; its ciphers
        # are the pair bins it held, the last one of no feature.
        assert real.crypto_stats[1].scalar_multiplications == (
            built * d_a * (bins - 1) - real_packs
        )

    @pytest.mark.parametrize(
        "key_bits, rows, stride, capacity",
        [(1024, 200, 47, 21), (2048, 10_000_000, 79, 25)],
    )
    def test_counted_and_scheduler_follow_the_layout_at_larger_keys(
        self, make_ledger_workload, key_bits, rows, stride, capacity
    ):
        # Layout-only rows beyond the benchmark's 512 bits: no Paillier
        # op runs, the real packer is held by its capacity rule.
        from repro.core.profile import analytic_trace

        d_a, bins = 160, 4
        config = VF2BoostConfig.vf2boost(
            params=GBDTParams(n_trees=1, n_layers=3, n_bins=bins),
            key_bits=key_bits, optimistic_split=False,
        )
        layout = config.gradient_layout(rows)
        assert (layout.stride, layout.capacity) == (stride, capacity)
        # pack_ciphers takes exactly `capacity` slots under the smallest
        # modulus of the size, and never fewer under a larger one.
        assert pack_capacity(PaillierPublicKey((1 << key_bits - 1) + 1), stride) == capacity
        assert pack_capacity(PaillierPublicKey((1 << key_bits) - 1), stride) >= capacity
        slots = d_a * (bins - 1)
        per_node = layout.packs_per_node(d_a, bins)
        assert per_node == -(-slots // capacity)
        trace = analytic_trace(rows, 4, [d_a], 1.0, bins, 3)
        built = sum(layer.built_nodes for layer in trace.trees[0].layers)
        # Bytes as seconds on the wire, one packing SMul as one second.
        cluster = ClusterSpec(wan_latency=0.0, wan_bandwidth=1.0)
        cost = CostModel(0, 0, 0, 0, 0, 1.0, 0, 0, cipher_bytes=key_bits // 4)
        result = ProtocolScheduler(config, cost, cluster).schedule(
            trace, collect_tasks=True
        )
        shipped = sum(
            t.duration for t in result.task_graphs[0] if t.name.startswith("histcomm")
        )
        assert round(shipped / cost.cipher_bytes, 6) == built * per_node
        # slots - packs Horner steps, each stride / 64 of t_smul_small.
        assert result.phase_totals["Pack"] * cluster.compute_lanes == pytest.approx(
            built * (slots - per_node) * stride / 64
        )
        if rows <= 1000:
            parties, labels, _ = make_ledger_workload(rows, d_a, bins, 3, key_bits)
            counted = FederatedTrainer(config).fit(parties, labels)
            counted_built = sum(
                layer.built_nodes for layer in counted.trace.trees[0].layers
            )
            assert counted_built * per_node == sum(
                m.n_ciphers for m in counted.channel.log
                if isinstance(m, CountedCipherPayload) and m.kind == "histograms"
            )
