"""Encrypted histogram construction and packing on the passive party.

This module is the real-crypto heart of Party A's work:

* :func:`build_encrypted_histogram` — accumulate encrypted gradient
  statistics into per-(feature, bin) cipher sums, either naively (the
  VF-GBDT baseline) or with the re-ordered per-exponent workspaces of
  §5.1;
* :func:`pack_histogram` / :func:`unpack_histogram` — the §5.2
  polynomial packing pipeline: prefix-sum the bins per feature, shift
  the (possibly negative) gradient sums into the non-negative range by
  ``N x Bound`` applied to the first bin, align exponents within each
  pack group, pack ``t`` bins per cipher, and invert all of it on the
  active party after a single decryption per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.crypto.accumulation import ExponentWorkspace
from repro.crypto.ciphertext import EncryptedNumber, PaillierContext
from repro.crypto.packing import PackedCipher, pack_capacity, pack_ciphers, unpack_values
from repro.gbdt.histogram import Histogram

__all__ = [
    "EncryptedHistogram",
    "build_encrypted_histogram",
    "PackedHistogram",
    "pack_histogram",
    "unpack_histogram",
    "decrypt_histogram",
]


@dataclass
class EncryptedHistogram:
    """Per-(feature, bin) cipher sums of one tree node.

    ``grad_bins[j][k]`` / ``hess_bins[j][k]`` are ciphers of the sums of
    gradients / hessians of the node's instances falling in bin ``k`` of
    the party-local feature ``j``.
    """

    grad_bins: list[list[EncryptedNumber]]
    hess_bins: list[list[EncryptedNumber]]
    n_instances: int

    @property
    def n_features(self) -> int:
        """Features summarized."""
        return len(self.grad_bins)

    @property
    def n_bins(self) -> int:
        """Bins per feature."""
        return len(self.grad_bins[0]) if self.grad_bins else 0

    def cipher_count(self) -> int:
        """Total ciphers held (gradient plus hessian bins)."""
        return 2 * self.n_features * self.n_bins


def build_encrypted_histogram(
    context: PaillierContext,
    codes: np.ndarray,
    instance_rows: np.ndarray,
    grad_ciphers: list[EncryptedNumber],
    hess_ciphers: list[EncryptedNumber],
    n_bins: int,
    reordered: bool,
) -> EncryptedHistogram:
    """Accumulate encrypted statistics into a node's histogram.

    Args:
        context: the passive party's (public) Paillier context.
        codes: party-local ``(N, D)`` bin-code matrix.
        instance_rows: rows sitting on the node.
        grad_ciphers / hess_ciphers: full-length cipher lists indexed by
            global row id (as received from the active party).
        n_bins: bins per feature ``s``.
        reordered: use per-exponent workspaces (§5.1) instead of the
            naive in-arrival-order accumulation.
    """
    rows = np.asarray(instance_rows, dtype=np.int64)
    n_features = codes.shape[1]
    zero_exponent = context.encoder.exponent

    if reordered:
        grad_ws = [
            [ExponentWorkspace(context) for _ in range(n_bins)]
            for _ in range(n_features)
        ]
        hess_ws = [
            [ExponentWorkspace(context) for _ in range(n_bins)]
            for _ in range(n_features)
        ]
        for i in rows:
            g, h = grad_ciphers[i], hess_ciphers[i]
            for j in range(n_features):
                k = codes[i, j]
                grad_ws[j][k].add(g)
                hess_ws[j][k].add(h)
        grad_bins = [
            [ws.finalize_or_zero(zero_exponent) for ws in row] for row in grad_ws
        ]
        hess_bins = [
            [ws.finalize_or_zero(zero_exponent) for ws in row] for row in hess_ws
        ]
    else:
        grad_acc: list[list[EncryptedNumber | None]] = [
            [None] * n_bins for _ in range(n_features)
        ]
        hess_acc: list[list[EncryptedNumber | None]] = [
            [None] * n_bins for _ in range(n_features)
        ]
        for i in rows:
            g, h = grad_ciphers[i], hess_ciphers[i]
            for j in range(n_features):
                k = codes[i, j]
                grad_acc[j][k] = (
                    g if grad_acc[j][k] is None else context.add(grad_acc[j][k], g)
                )
                hess_acc[j][k] = (
                    h if hess_acc[j][k] is None else context.add(hess_acc[j][k], h)
                )
        grad_bins = [
            [
                cell if cell is not None else context.encrypt_zero(zero_exponent)
                for cell in row
            ]
            for row in grad_acc
        ]
        hess_bins = [
            [
                cell if cell is not None else context.encrypt_zero(zero_exponent)
                for cell in row
            ]
            for row in hess_acc
        ]
    return EncryptedHistogram(grad_bins, hess_bins, int(rows.size))


def decrypt_histogram(
    context: PaillierContext, encrypted: EncryptedHistogram
) -> Histogram:
    """Decrypt an *unpacked* histogram bin by bin (baseline path).

    Counts are unknown to the decrypting party; the returned histogram
    carries zeros and must be searched with ``check_counts=False``.
    """
    d, s = encrypted.n_features, encrypted.n_bins
    grad = np.zeros((d, s), dtype=np.float64)
    hess = np.zeros((d, s), dtype=np.float64)
    for j in range(d):
        for k in range(s):
            grad[j, k] = context.decrypt(encrypted.grad_bins[j][k])
            hess[j, k] = context.decrypt(encrypted.hess_bins[j][k])
    return Histogram(grad, hess, np.zeros((d, s), dtype=np.int64))


@dataclass
class PackedHistogram:
    """The §5.2 wire format of one node's histogram.

    Attributes:
        grad_packs / hess_packs: per-feature lists of packed prefix-sum
            groups.
        grad_shift: the ``N x Bound`` shift added to every gradient
            prefix sum (hessian prefix sums are non-negative already).
        n_bins: bins per feature, needed to unpack.
        limb_bits: effective limb width used (may exceed the configured
            ``M`` when the shift magnitude demands it).
        n_instances: instances on the node.
    """

    grad_packs: list[list[PackedCipher]]
    hess_packs: list[list[PackedCipher]]
    grad_shift: float
    n_bins: int
    limb_bits: int
    n_instances: int

    def cipher_count(self) -> int:
        """Packed ciphers on the wire."""
        return sum(len(p) for p in self.grad_packs) + sum(
            len(p) for p in self.hess_packs
        )


def required_limb_bits(
    max_abs_value: float, base: int, max_exponent: int, configured: int
) -> int:
    """Smallest limb width that can hold the largest packed integer.

    The largest packed integer is ``round(max_abs_value * B**e_max)``;
    jittered exponents push ``e_max`` (and therefore the width) up, so
    the effective width is ``max(configured, required)``.
    """
    if max_abs_value <= 0:
        return configured
    required = math.ceil(math.log2(max_abs_value) + max_exponent * math.log2(base)) + 2
    return max(configured, required)


def pack_histogram(
    context: PaillierContext,
    encrypted: EncryptedHistogram,
    grad_bound: float,
    limb_bits: int,
) -> PackedHistogram:
    """Prefix-sum, shift, align and pack a node's histogram (Party A side).

    Steps per feature (Figure 9):

    1. shift the **first** gradient bin by ``N x Bound`` (one cheap
       plaintext addition) so every gradient *prefix sum* is
       non-negative;
    2. prefix-sum the bins with ``s - 1`` HAdds per statistic;
    3. split the prefix bins into groups of ``t`` and align each
       group's exponents to the group maximum;
    4. pack each group with ``t - 1`` HAdd + ``t - 1`` SMul.
    """
    base = context.encoder.base
    shift = encrypted.n_instances * grad_bound
    max_exponent = context.encoder.exponent + context.encoder.jitter - 1
    # Largest packed magnitude: shifted gradient prefix (<= 2 N Bound) or
    # raw hessian prefix (<= N h_bound <= shift scale); use the former.
    # ``value_bits`` bounds every packed value, not just the top limb,
    # so it is the honest ``top_bits`` for the capacity calculation.
    value_bits = required_limb_bits(
        max(2.0 * shift, float(encrypted.n_instances)), base, max_exponent, 1
    )
    effective_limb = max(limb_bits, value_bits)
    capacity = pack_capacity(context.public_key, effective_limb, top_bits=value_bits)

    def process(bins: list[EncryptedNumber], shift_value: float) -> list[PackedCipher]:
        prefix: list[EncryptedNumber] = []
        running: EncryptedNumber | None = None
        for index, cell in enumerate(bins):
            if index == 0 and shift_value:
                cell = context.add_plain(cell, shift_value)
            running = cell if running is None else context.add(running, cell)
            prefix.append(running)
        packs = []
        for start in range(0, len(prefix), capacity):
            group = prefix[start : start + capacity]
            top = max(item.exponent for item in group)
            aligned = [context.scale_to(item, top) for item in group]
            packs.append(
                pack_ciphers(context, aligned, effective_limb, top_bits=value_bits)
            )
        return packs

    grad_packs = [process(row, shift) for row in encrypted.grad_bins]
    hess_packs = [process(row, 0.0) for row in encrypted.hess_bins]
    return PackedHistogram(
        grad_packs=grad_packs,
        hess_packs=hess_packs,
        grad_shift=shift,
        n_bins=encrypted.n_bins,
        limb_bits=effective_limb,
        n_instances=encrypted.n_instances,
    )


def build_pair_histogram(
    context: PaillierContext,
    codes: np.ndarray,
    instance_rows: np.ndarray,
    pair_ciphers: list[EncryptedNumber],
    n_bins: int,
) -> list[list[EncryptedNumber]]:
    """Accumulate packed ``(g, h, 1)`` pair ciphers into one-cipher bins.

    The gradient-pair extension (:mod:`repro.crypto.pairing`): each bin
    holds a single cipher carrying gradient sum, hessian sum and count.
    Exponents are fixed by construction, so accumulation needs no
    workspaces and never scales.
    """
    rows = np.asarray(instance_rows, dtype=np.int64)
    n_features = codes.shape[1]
    acc: list[list[EncryptedNumber | None]] = [
        [None] * n_bins for _ in range(n_features)
    ]
    for i in rows:
        pair = pair_ciphers[i]
        for j in range(n_features):
            k = codes[i, j]
            acc[j][k] = pair if acc[j][k] is None else context.add(acc[j][k], pair)
    exponent = pair_ciphers[0].exponent if pair_ciphers else 0
    return [
        [
            cell if cell is not None else context.encrypt_zero(exponent)
            for cell in row
        ]
        for row in acc
    ]


def decode_pair_histogram(codec, bins: list[list[EncryptedNumber]]) -> Histogram:
    """Decrypt one-cipher pair bins into a histogram with exact counts.

    Unlike the baseline path, counts are recovered (third limb), so the
    active party can apply its full count-based split constraints.
    """
    d = len(bins)
    s = len(bins[0]) if bins else 0
    grad = np.zeros((d, s), dtype=np.float64)
    hess = np.zeros((d, s), dtype=np.float64)
    count = np.zeros((d, s), dtype=np.int64)
    for j in range(d):
        for k in range(s):
            sums = codec.decode_sums(bins[j][k])
            grad[j, k] = sums.grad_sum
            hess[j, k] = sums.hess_sum
            count[j, k] = sums.count
    return Histogram(grad, hess, count)


def unpack_histogram(context: PaillierContext, packed: PackedHistogram) -> Histogram:
    """Decrypt-and-unpack a packed histogram (Party B side).

    One decryption per pack group recovers the prefix sums; differencing
    restores the per-bin histogram, and the gradient shift is removed
    from every prefix before differencing (it was applied to bin 0).
    """
    base = context.encoder.base

    def recover(packs: list[PackedCipher], shift: float) -> np.ndarray:
        prefix: list[float] = []
        for pack in packs:
            scale = base**pack.exponent
            prefix.extend(raw / scale for raw in unpack_values(context, pack))
        values = np.asarray(prefix, dtype=np.float64) - shift
        bins = np.empty_like(values)
        bins[0] = values[0]
        bins[1:] = values[1:] - values[:-1]
        return bins

    d = len(packed.grad_packs)
    s = packed.n_bins
    grad = np.zeros((d, s), dtype=np.float64)
    hess = np.zeros((d, s), dtype=np.float64)
    for j in range(d):
        grad[j, :] = recover(packed.grad_packs[j], packed.grad_shift)
        hess[j, :] = recover(packed.hess_packs[j], 0.0)
    return Histogram(grad, hess, np.zeros((d, s), dtype=np.int64))
