"""Encrypted histogram construction and packing on the passive party.

This module is the real-crypto heart of Party A's work:

* :func:`build_encrypted_histogram` — accumulate encrypted gradient
  statistics into per-(feature, bin) cipher sums: one ``(g, h)`` pair
  cipher per instance at a fixed exponent on the packed path, where a
  bin is a plain product mod ``n**2`` and two features share each HAdd
  through a joint ``(bin, bin)`` cell, or two jittered ciphers per
  instance on the baselines, there either naively (VF-GBDT) or with the
  re-ordered per-exponent workspaces of §5.1;
* :func:`pack_histogram` / :func:`unpack_histogram` — the §5.2
  polynomial packing pipeline over pair-cipher bins: shift the first
  bin of every feature by ``N x Bound`` so every gradient *prefix sum*
  is non-negative, prefix-sum the bins, pack ``t`` two-limb prefixes
  per cipher across the node's features, and invert all of it on the
  active party after a single decryption per pack.

A feature's last prefix sum is the node's ``(sum g, sum h)``, which the
active party can add up from the integers it encrypted.  The packed
path therefore never builds, packs, ships or decrypts the last bin:
Party A handles ``s - 1`` bins per feature and Party B appends its own
total — the same integers, and a check on everything that arrived.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import compress

import numpy as np

from repro.crypto.accumulation import ExponentWorkspace
from repro.crypto.ciphertext import Block, EncryptedNumber, PaillierContext
from repro.crypto.packing import (
    GradHessLayout,
    PackedCipher,
    pack_ciphers,
    unpack_values,
)
from repro.gbdt.histogram import Histogram

__all__ = [
    "BinCodeError",
    "EncryptedHistogram",
    "EncryptedHistogramError",
    "build_encrypted_histogram",
    "PackedHistogram",
    "PackedHistogramError",
    "pack_histogram",
    "unpack_histogram",
    "decrypt_histogram",
]


class BinCodeError(ValueError):
    """A bin code outside ``[0, n_bins)`` on a node being built."""


@dataclass
class EncryptedHistogram:
    """Per-(feature, bin) cipher sums of one tree node.

    ``grad_bins[j][k]`` / ``hess_bins[j][k]`` are ciphers of the sums of
    gradients / hessians of the node's instances falling in bin ``k`` of
    the party-local feature ``j``.  Built from pair ciphers,
    ``grad_bins`` hold the ``(g, h)`` sums of the first ``n_bins - 1``
    bins only, as operands of the builder's
    :meth:`~PaillierContext.resident` block (valid until it is left,
    for :func:`pack_histogram`); a bin no instance fell in is ``None``
    (it costs the packer nothing) and ``hess_bins`` is empty.  A held
    bin is the product mod ``n**2`` of its instances' ciphers, whatever
    order or grouping the build multiplied them in.  The unpacked
    builds' bins are :class:`EncryptedNumber` s, ready for the wire.
    """

    grad_bins: list[list[EncryptedNumber | None]]
    hess_bins: list[list[EncryptedNumber]]
    n_instances: int
    n_bins: int

    @property
    def n_features(self) -> int:
        """Features summarized."""
        return len(self.grad_bins)

    def cipher_count(self) -> int:
        """Bins held, empty ones included."""
        return sum(len(row) for row in self.grad_bins + self.hess_bins)


def _add_into(
    context: PaillierContext, table: dict[int, object], keys: Iterable[int], operands: Iterable
) -> None:
    """``table[key] += operand`` in arrival order; a key's first operand is free."""
    add, held_at = context.add, table.get
    for key, operand in zip(keys, operands):
        held = held_at(key)
        table[key] = operand if held is None else add(held, operand)


def _paired_bins(
    context: PaillierContext,
    block: Block,
    node_codes: np.ndarray,
    operands: list,
    width: int,
) -> list[dict[int, object]]:
    """The first ``width`` bins of every feature, two features per HAdd.

    Features are taken two at a time.  An instance whose codes ``(a, b)``
    are both held costs one HAdd into the joint cell ``(a, b)`` of a
    sparse table instead of one per feature, an instance with one code
    in the last bin goes straight into the other feature's bin, and
    every non-empty cell is folded once into ``first[a]`` and once into
    ``second[b]``.  A pair's HAdds are the per-feature loop's minus
    (instances with both codes held - non-empty cells): never more, and
    the products are the same integers because multiplication mod
    ``n**2`` commutes.  One table (at most ``min(n, width**2)`` cells)
    is alive at a time; a left-over odd feature is accumulated alone.
    As soon as a pair is done its other products go back to the pool.
    """
    n_features = node_codes.shape[1]
    held = node_codes < width
    bins: list[dict[int, object]] = [{} for _ in range(n_features)]

    def route(table, mask, keys):
        _add_into(context, table, keys[mask].tolist(), compress(operands, mask.tolist()))

    for j in range(0, n_features - 1, 2):
        mark = block.mark()
        a, b = node_codes[:, j], node_codes[:, j + 1]
        in_a, in_b = held[:, j], held[:, j + 1]
        joint: dict[int, object] = {}
        route(joint, in_a & in_b, a * width + b)
        route(bins[j], in_a & ~in_b, a)
        route(bins[j + 1], in_b & ~in_a, b)
        _add_into(context, bins[j], (key // width for key in joint), joint.values())
        _add_into(context, bins[j + 1], (key % width for key in joint), joint.values())
        block.recycle(mark, (*bins[j].values(), *bins[j + 1].values()))
    if n_features % 2:
        route(bins[-1], held[:, -1], node_codes[:, -1])
    return bins


def build_encrypted_histogram(
    context: PaillierContext,
    codes: np.ndarray,
    instance_rows: np.ndarray,
    grad_ciphers: list,
    hess_ciphers: list | None,
    n_bins: int,
    reordered: bool,
) -> EncryptedHistogram:
    """Accumulate encrypted statistics into a node's histogram.

    Runs in the context's open :meth:`~PaillierContext.resident` block.

    Args:
        context: the passive party's (public) Paillier context.
        codes: party-local ``(N, D)`` bin-code matrix.
        instance_rows: rows sitting on the node.
        grad_ciphers / hess_ciphers: full-length lists of the block's
            operands, indexed by global row id (the active party's
            ciphers, loaded); ``hess_ciphers`` is ``None`` when
            ``grad_ciphers`` are ``(g, h)`` pair ciphers.  Those share
            one exponent, so a bin is a plain product and the build is
            :func:`_paired_bins`: instances in a feature's last bin are
            skipped (the receiver derives that bin), an empty bin is
            held as ``None`` and the bins stay operands, for
            :func:`pack_histogram`.
        n_bins: bins per feature ``s``.
        reordered: with two jittered ciphers per instance, use
            per-exponent workspaces (§5.1) instead of the naive
            in-arrival-order accumulation; pair ciphers have nothing to
            re-order.  Either unpacked build unloads a feature's bins to
            ciphers, and hands its products back to the pool, as soon as
            the feature is done.

    Raises:
        BinCodeError: when a code of the node lies outside ``[0, n_bins)``
            (it would land in another feature's joint cell).
        TypeError: no block is open on ``context``.
    """
    block = context.block
    if block is None:
        raise TypeError("no resident block is open: the build adds its operands")
    rows = np.asarray(instance_rows, dtype=np.int64)
    node_codes = codes[rows].astype(np.int64, copy=False)
    if ((node_codes < 0) | (node_codes >= n_bins)).any():
        raise BinCodeError(f"bin codes on the node must lie in [0, {n_bins})")
    row_ids = rows.tolist()
    if hess_ciphers is None:
        bins = _paired_bins(
            context, block, node_codes, [grad_ciphers[i] for i in row_ids], n_bins - 1
        )
        return EncryptedHistogram(
            [[table.get(k) for k in range(n_bins - 1)] for table in bins],
            [],
            int(rows.size),
            n_bins,
        )
    zero_exponent = context.encoder.exponent
    feature_codes = node_codes.T.tolist()

    def feature_sums(column: list[int], node_operands: list) -> list:
        if reordered:
            workspaces = [ExponentWorkspace(context) for _ in range(n_bins)]
            for k, operand in zip(column, node_operands):
                workspaces[k].add(operand)
            return [ws.finalize_or_zero(zero_exponent) for ws in workspaces]
        table: dict[int, object] = {}
        _add_into(context, table, column, node_operands)
        return [
            table[k] if k in table else context.encrypt_zero(zero_exponent)
            for k in range(n_bins)
        ]

    def accumulate(operands: list) -> list[list[EncryptedNumber]]:
        node_operands = [operands[i] for i in row_ids]
        features = []
        for column in feature_codes:
            mark = block.mark()
            features.append([block.unload(s) for s in feature_sums(column, node_operands)])
            block.recycle(mark)
        return features

    return EncryptedHistogram(
        accumulate(grad_ciphers), accumulate(hess_ciphers), int(rows.size), n_bins
    )


class EncryptedHistogramError(ValueError):
    """Bins that cannot be the unpacked histogram of the node they arrived for.

    Raised by :func:`decrypt_histogram`: a bin under another key, out of
    the key's range, or decrypting outside the bound the node allows.
    """


def decrypt_histogram(
    context: PaillierContext, encrypted: EncryptedHistogram, value_bound: float
) -> Histogram:
    """Decrypt an *unpacked* histogram bin by bin (baseline path).

    ``value_bound`` bounds every bin's sum: the node's instance count
    times the largest ``|g|`` or ``|h|`` the key holder encrypted.  It
    makes each Dec a one-prime Dec whenever that fits below ``p / 2``
    (:meth:`PaillierContext.decrypt_encoded`).

    Counts are unknown to the decrypting party; the returned histogram
    carries zeros and must be searched with ``check_counts=False``.

    Raises:
        EncryptedHistogramError: a bin outside the key's range or
            decrypting outside ``±value_bound``.
    """
    d, s = encrypted.n_features, encrypted.n_bins
    grad = np.zeros((d, s), dtype=np.float64)
    hess = np.zeros((d, s), dtype=np.float64)
    for j in range(d):
        for k in range(s):
            try:
                grad[j, k] = context.decrypt(encrypted.grad_bins[j][k], value_bound)
                hess[j, k] = context.decrypt(encrypted.hess_bins[j][k], value_bound)
            except ValueError as error:
                raise EncryptedHistogramError(f"feature {j}, bin {k}: {error}") from error
    return Histogram(grad, hess, np.zeros((d, s), dtype=np.int64))


class PackedHistogramError(ValueError):
    """Packs that cannot be the histogram of the node they arrived for.

    Raised by :func:`unpack_histogram`: a pack under another key, a
    pack of another node, a truncated or repeated pack list.
    """


@dataclass
class PackedHistogram:
    """The §5.2 wire format of one node's histogram.

    Attributes:
        packs: the node's ``D * (s - 1)`` prefix-sum slots, feature-major
            (feature 0's first ``s - 1`` prefixes, then feature 1's, ...),
            ``layout.capacity`` to a cipher, ``layout.stride`` bits
            apart; every slot holds a shifted gradient prefix sum in its
            low ``L_g`` bits and a hessian prefix sum in the ``L_h``
            above them.
        layout: limb widths, scale and shift rule both sides share.
        n_features / n_bins: ``D`` and ``s``, needed to unpack.
        n_instances: instances on the node (sizes the gradient shift).
    """

    packs: list[PackedCipher]
    layout: GradHessLayout
    n_features: int
    n_bins: int
    n_instances: int

    def cipher_count(self) -> int:
        """Packed ciphers on the wire."""
        return len(self.packs)


def pack_histogram(
    context: PaillierContext, encrypted: EncryptedHistogram, layout: GradHessLayout
) -> PackedHistogram:
    """Shift, prefix-sum and pack a node's pair-cipher histogram (Party A side).

    Over the ``s - 1`` bins held per feature (Figure 9):

    1. shift the **first** bin's gradient limb by ``N x Bound`` (one
       cheap plaintext addition, on a zero when the bin is empty) so
       every gradient *prefix sum* is non-negative;
    2. prefix-sum the bins with one HAdd per non-empty bin after the
       first (the prefix at an empty bin is the running cipher itself);
    3. lay the node's ``D * (s - 1)`` prefixes out feature-major and
       pack each group of ``t`` with ``t - 1`` HAdd + ``t - 1`` SMul
       (one exponent throughout: nothing to align).

    Runs in the :meth:`PaillierContext.resident` block the histogram
    was built in: every step works on the block's operands (the zero of
    an empty first bin too) and only the packs are unloaded, each
    pack's Horner products back in the pool before the next pack.  A
    node without slots (``s = 1``, or no features) packs to nothing.
    """
    shift = layout.shift(encrypted.n_instances)
    capacity = layout.capacity
    slots: list = []
    for bins in encrypted.grad_bins:
        running = None
        for cell in bins:
            if running is None:
                if cell is None:
                    cell = context.encrypt_zero(layout.exponent)
                running = context.add_plain_raw(cell, shift)
            elif cell is not None:
                running = context.add(running, cell)
            slots.append(running)
    return PackedHistogram(
        packs=[
            pack_ciphers(context, slots[start : start + capacity], layout.stride)
            for start in range(0, len(slots), capacity)
        ],
        layout=layout,
        n_features=encrypted.n_features,
        n_bins=encrypted.n_bins,
        n_instances=encrypted.n_instances,
    )


def unpack_histogram(
    context: PaillierContext, packed: PackedHistogram, total: int
) -> Histogram:
    """Decrypt-and-unpack a packed histogram (Party B side).

    One decryption per pack recovers ``t`` prefix sums of both
    statistics; ``total + shift`` — ``total`` being the sum of the
    node's instances as :meth:`GradHessLayout.encode` made them, which
    only the key holder can form — is every feature's last prefix.
    Differencing the integers (the gradient shift sits in every prefix,
    so it leaves with the first difference) restores the per-bin sums:
    exact in float64 while a bin's raw sums stay below ``2**53`` (``2**37``
    unit-bound instances at ``B**e = 2**16``), and so bit for bit the
    float64 sums of the same grid values a plaintext histogram holds.

    Raises:
        PackedHistogramError: when a pack's ``limb_bits``, ``exponent``
            or ``count`` is not the layout's (checked before anything is
            decrypted: the slicing trusts the layout, not the sender),
            the packs do not hold exactly ``D * (s - 1)`` slots, a
            plaintext has bits above its pack's slots, a slot is wider
            than ``layout.stride``, a feature's hessian prefixes
            decrease or pass the node's own ``sum h``, or a gradient
            prefix leaves ``[0, 2 * shift]``.
    """
    layout = packed.layout
    scale = layout.scale
    shift = layout.shift(packed.n_instances)
    d, s = packed.n_features, packed.n_bins
    width = s - 1
    header = (layout.stride, layout.exponent)
    for pack in packed.packs:
        in_range = 1 <= pack.count <= layout.capacity
        if (pack.limb_bits, pack.exponent) != header or not in_range:
            raise PackedHistogramError(
                f"{pack.count} slots of {pack.limb_bits} bits at exponent "
                f"{pack.exponent}: the layout packs 1..{layout.capacity} of "
                f"{layout.stride} bits at exponent {layout.exponent}"
            )
    held = sum(pack.count for pack in packed.packs)
    if held != d * width:
        raise PackedHistogramError(
            f"packs hold {held} slots, a node of {d} features x {s} bins "
            f"ships {d * width}"
        )
    try:
        slots = [slot for pack in packed.packs for slot in unpack_values(context, pack)]
    except ValueError as error:  # a cipher outside the key's range or a pack's slots
        raise PackedHistogramError(str(error)) from error
    if any(slot.bit_length() > layout.stride for slot in slots):
        raise PackedHistogramError(f"a slot is wider than the layout's {layout.stride} bits")
    last = layout.split(total + shift)
    grad_limit = 2 * shift
    grad = np.zeros((d, s), dtype=np.float64)
    hess = np.zeros((d, s), dtype=np.float64)
    for j in range(d):
        previous_grad, previous_hess = shift, 0
        prefixes = [layout.split(slot) for slot in slots[j * width : (j + 1) * width]]
        prefixes.append(last)
        for k, (grad_prefix, hess_prefix) in enumerate(prefixes):
            if hess_prefix < previous_hess or grad_prefix > grad_limit:
                raise PackedHistogramError(
                    f"feature {j}, bin {k}: prefix sums ({grad_prefix}, "
                    f"{hess_prefix}) cannot belong to this node"
                )
            grad[j, k] = (grad_prefix - previous_grad) / scale
            hess[j, k] = (hess_prefix - previous_hess) / scale
            previous_grad, previous_hess = grad_prefix, hess_prefix
    return Histogram(grad, hess, np.zeros((d, s), dtype=np.int64))
