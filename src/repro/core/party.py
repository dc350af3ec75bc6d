"""The two kinds of party of §3.1-3.2, sharing nothing but a channel.

:class:`ActiveParty` is Party B: labels, loss, the private context, its
own columns, the integers it encrypted and every party's plaintext
histograms of the layer above.  :class:`PassiveParty` is a Party A: its
columns, a public context and the ciphers it was sent — its constructor
takes no label, gradient or private key.  In every step the sender
builds a message and ``channel.send``\\ s it, the receiver
``channel.receive``\\ s it (:func:`_receive`: a typed
:class:`ProtocolError` for what the step cannot accept) and acts on its
content; :class:`~repro.core.trainer.FederatedTrainer` pumps the steps:

1. **GradEnc** — B encrypts every instance's ``(g, h)`` (one pair
   cipher with histogram packing, else two jittered ciphers) and ships
   them to every A, in blaster batches when enabled;
2. **Histogram** — every A builds the layer's *built* nodes (the root,
   then the smaller child of every split) homomorphically and ships
   them; B opens them and derives each larger sibling;
3. **Split** — B picks each node's global best split, learning at most
   a *bin index* of an A's winning feature; the owner materializes the
   placement bitmap and every party applies it;
4. **Leaf** — B computes and broadcasts the leaf weights.

Counted mode (``"counted"`` / ``"mock"``) runs the same sequence with no
context on either side and one plaintext shortcut: a
:class:`CountedCipherPayload` carries, beside the exact cipher count the
real run would ship, what those absent ciphers would open to
(``opens_to``, zero wire bytes).  The mode is decided once, in
:func:`make_parties`; only the methods standing in for Enc
(:meth:`ActiveParty.send_gradients`), the build
(:meth:`PassiveParty.send_histograms`) and Dec
(:meth:`ActiveParty._open_histograms`) look at ``context is None``.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# Called through their modules: the end-to-end tracer patches these
# functions where they are defined (benchmarks/e2e/tracing.py).
import repro.core.enc_histogram as enc_histogram
import repro.gbdt.histogram as gbdt_histogram
import repro.gbdt.split as gbdt_split
from repro.core.config import VF2BoostConfig
from repro.core.trace import NodeTrace
from repro.crypto.ciphertext import PaillierContext
from repro.fed.messages import (
    CountedCipherPayload,
    EncryptedGradHessBatch,
    EncryptedHistogramMessage,
    InstancePlacement,
    LeafWeightBroadcast,
    PackedHistogramMessage,
    SplitAnswer,
    SplitDecision,
    SplitQuery,
)
from repro.gbdt.histogram import Histogram
from repro.gbdt.loss import get_loss, grid_gradients
from repro.gbdt.tree import DecisionTree

__all__ = ["ACTIVE", "ActiveParty", "PassiveParty", "ProtocolError", "make_parties"]

ACTIVE = 0  # party id of Party B by repository convention


class ProtocolError(RuntimeError):
    """A party received something the protocol step it is in cannot accept."""


def _receive(channel, sender: int, receiver: int, type_: type, **expected):
    """The direction's next message, which must be a ``type_`` with these fields."""
    message = channel.receive(sender, receiver)
    found = {name: getattr(message, name, None) for name in expected}
    if not isinstance(message, type_) or found != expected:
        raise ProtocolError(
            f"party {receiver} expected {type_.__name__} {expected} from party "
            f"{sender}, got {type(message).__name__} {found} (seq {message.seq})"
        )
    return message


def _batches(config: VF2BoostConfig, n: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of every gradient transfer: blaster batches (§4.1) or one."""
    size = config.blaster_batch_size if config.blaster_encryption else n
    return [(start, min(n, start + size)) for start in range(0, n, size)]


class _Party:
    """Either kind: an id, the config, columns, a context (``None`` in
    counted mode), the layout and the rows on every node."""

    def __init__(self, party: int, config: VF2BoostConfig, dataset, context) -> None:
        self.id = party
        self.config = config
        self.dataset = dataset
        self.context: PaillierContext | None = context
        self.layout = config.gradient_layout(dataset.n_instances)
        self.node_rows: dict[int, np.ndarray] = {}

    def _place(self, node_id: int, placement: np.ndarray) -> tuple[int, int]:
        """Split a node's rows by a placement bitmap; ``(built, derived)`` children.

        Every party knows the child sizes from the placement: the
        smaller child is built, a tie builds the left (as gbdt.boosting).
        """
        rows = self.node_rows.get(node_id)
        left, right = 2 * node_id + 1, 2 * node_id + 2
        if rows is None or left in self.node_rows or placement.shape != rows.shape:
            raise ProtocolError(
                f"party {self.id}: {placement.size} placements cannot split node {node_id}"
            )
        self.node_rows[left], self.node_rows[right] = rows[placement], rows[~placement]
        small_left = self.node_rows[left].size <= self.node_rows[right].size
        return (left, right) if small_left else (right, left)


class PassiveParty(_Party):
    """A Party A: columns, a public key, the ciphers it was sent.

    Args:
        context: a public (encrypt-only) context; ``None`` in counted mode.
        peers: ids of the other passive parties, who learn its placements.
    """

    def __init__(self, party, config, dataset, context=None, peers=()) -> None:
        if context is not None and context.can_decrypt:
            raise ValueError("a passive party must not hold the private key")
        super().__init__(party, config, dataset, context)
        self.peers = list(peers)
        self.grads = self.hesses = None  # ciphers, by global row id
        self.to_build: list[int] = []  # the next layer's built nodes
        self.splits: dict[int, tuple[int, int]] = {}  # own nodes -> (feature, bin)

    def receive_gradients(self, channel) -> None:
        """GradEnc: take every batch B sent; a new tree starts at its root."""
        n = self.dataset.n_instances
        batches = []
        for start, _ in _batches(self.config, n):
            if self.context is None:
                message = _receive(
                    channel, ACTIVE, self.id, CountedCipherPayload, kind="grad_hess"
                )
                batches.append(message.opens_to)
            else:
                message = _receive(
                    channel, ACTIVE, self.id, EncryptedGradHessBatch, instance_offset=start
                )
                batches.append((message.grads, message.hesses))
        join = np.concatenate if self.context is None else lambda parts: list(chain(*parts))
        grads, hesses = (join(parts) for parts in zip(*batches))
        if len(grads) != n or len(hesses) not in (0, n):
            raise ProtocolError(f"party {self.id}: batches cover {len(grads)} of {n} rows")
        self.grads, self.hesses = grads, hesses if len(hesses) else None
        self.node_rows = {0: np.arange(n, dtype=np.int64)}
        self.to_build, self.splits = [0], {}

    def send_histograms(self, channel) -> None:
        """Histogram: build the layer's built nodes over own columns and ship them.

        Real mode sends packs (every bin but each feature's last, which
        B closes with its own total) or raw bins; counted mode the exact
        cipher count of either, with the plaintext histograms (no
        counts: B never sees one) as ``opens_to``.
        """
        dataset, layout = self.dataset, self.layout
        d, s = dataset.n_features, dataset.n_bins
        nodes, self.to_build = self.to_build, []
        if self.context is None:
            opened = {
                node_id: gbdt_histogram.build_histogram(
                    dataset, self.node_rows[node_id], self.grads, self.hesses
                )
                for node_id in nodes
            }
            for hist in opened.values():
                hist.count.fill(0)
            per_node = layout.packs_per_node(d, s) if layout is not None else 2 * d * s
            n_ciphers = len(nodes) * per_node
            message = CountedCipherPayload(
                self.id, ACTIVE, kind="histograms", n_ciphers=n_ciphers, opens_to=opened
            )
            return channel.send(message)
        codes, reordered = dataset.codes, self.config.reordered_accumulation
        built = {
            node_id: enc_histogram.build_encrypted_histogram(
                self.context, codes, self.node_rows[node_id], self.grads, self.hesses, s, reordered
            )
            for node_id in nodes
        }
        if layout is not None:
            message = PackedHistogramMessage(self.id, ACTIVE)
            for node_id, hist in built.items():
                packed = enc_histogram.pack_histogram(self.context, hist, layout)
                message.packed[node_id] = packed.packs
        else:
            message = EncryptedHistogramMessage(self.id, ACTIVE)
            for node_id, hist in built.items():
                message.histograms[node_id] = hist.grad_bins, hist.hess_bins
        channel.send(message)

    def answer_split(self, channel) -> None:
        """Split, as the owner: open B's verdict, answer with the placement
        bitmap and synchronize it to the other passive parties (§3.2)."""
        decision = _receive(channel, ACTIVE, self.id, SplitDecision, owner=self.id)
        node_id, flat = decision.node_id, decision.bin_flat_index
        _receive(channel, ACTIVE, self.id, SplitQuery, node_id=node_id, bin_flat_index=flat)
        feature, bin_index = divmod(flat, self.dataset.n_bins)
        if node_id not in self.node_rows or not 0 <= feature < self.dataset.n_features:
            raise ProtocolError(f"party {self.id}: no split {flat} of node {node_id}")
        placement = self.dataset.codes[self.node_rows[node_id], feature] <= bin_index
        self.splits[node_id] = (feature, bin_index)
        channel.send(SplitAnswer(self.id, ACTIVE, node_id=node_id, placement=placement))
        for peer in self.peers:
            channel.send(
                InstancePlacement(self.id, peer, node_id=node_id, placement=placement)
            )
        self.to_build.append(self._place(node_id, placement)[0])

    def receive_placement(self, channel, owner: int) -> None:
        """Split, as a bystander: apply the owner's placement bitmap."""
        message = _receive(channel, owner, self.id, InstancePlacement)
        self.to_build.append(self._place(message.node_id, message.placement)[0])

    def receive_leaf_weights(self, channel) -> dict[int, float]:
        """Leaf: the tree is closed; returns the thresholds of this party's
        own splits — its sidecar of the published model."""
        message = _receive(channel, ACTIVE, self.id, LeafWeightBroadcast)
        if not set(message.weights) <= set(self.node_rows):
            raise ProtocolError(f"party {self.id}: weights for leaves it never saw")
        return {
            node_id: self.dataset.threshold_for(feature, bin_index)
            for node_id, (feature, bin_index) in self.splits.items()
        }


class ActiveParty(_Party):
    """Party B: labels, loss, the key pair, its columns, the margins.

    Args:
        context: the private context; ``None`` in counted mode.
        passive_shapes: ``{party id: (features, bins)}`` of every Party A
            — the histogram grid B is about to be sent.
    """

    def __init__(self, config, dataset, labels, context, passive_shapes) -> None:
        super().__init__(ACTIVE, config, dataset, context)
        self.labels = labels
        self.loss = get_loss(config.params.objective)
        self.passive_shapes: dict[int, tuple[int, int]] = passive_shapes
        self.base_score = self.loss.base_score(labels)
        self.margins = np.full(dataset.n_instances, self.base_score, dtype=np.float64)
        #: this layer's nodes, and large child -> (parent, small child)
        self.frontier: list[int] = []
        self.derived: dict[int, tuple[int, int]] = {}
        #: party -> node -> plaintext histogram of the layer being split
        self.hists: dict[int, dict[int, Histogram]] = {}

    def train_loss(self) -> float:
        return self.loss.loss(self.labels, self.margins)

    def send_gradients(self, channel) -> None:
        """GradEnc: start a tree, Enc every (g, h), ship to every passive party."""
        n, pair = self.dataset.n_instances, self.layout is not None
        self._start_tree()
        ciphers = self._encrypt() if self.context is not None else None
        for p in self.passive_shapes:
            for start, stop in _batches(self.config, n):
                if ciphers is not None:
                    grads, hesses = (part[start:stop] for part in ciphers)
                    channel.send(
                        EncryptedGradHessBatch(
                            ACTIVE, p, instance_offset=start, grads=grads, hesses=hesses
                        )
                    )
                    continue
                # Counted mode's one shortcut (module docstring): the
                # plaintext stands in for the ciphers the payload counts.
                plain = self.gradients[start:stop], self.hessians[start:stop]
                n_ciphers = (1 if pair else 2) * (stop - start)
                channel.send(
                    CountedCipherPayload(  # repro: allow[PB001]
                        ACTIVE, p, kind="grad_hess", n_ciphers=n_ciphers, opens_to=plain
                    )
                )

    def _start_tree(self) -> None:
        self.gradients, self.hessians = grid_gradients(self.loss, self.labels, self.margins)
        self.n_exponents = 1 if self.layout is not None else self.config.exponent_jitter
        self.tree = DecisionTree()
        self.node_rows = {0: np.arange(self.dataset.n_instances, dtype=np.int64)}
        self._next_frontier, self._next_derived = [0], {}

    def _encrypt(self) -> tuple[list, list]:
        """Enc: ``(g, h)`` pair ciphers of the integers ``raw_pairs`` (kept:
        summed over a node's rows they are the last prefix of every
        feature, which no party ships), or two jittered ciphers."""
        context, layout = self.context, self.layout
        if layout is not None:
            self.raw_pairs = layout.encode(self.gradients.tolist(), self.hessians.tolist())
            return layout.encrypt(context, self.raw_pairs), []
        grads = [context.encrypt(float(g)) for g in self.gradients]
        hesses = [context.encrypt(float(h)) for h in self.hessians]
        self.n_exponents = len({c.exponent for c in grads + hesses})
        return grads, hesses

    def receive_histograms(self, channel) -> None:
        """Histogram: open every A's built nodes, build B's own, derive the
        rest — a larger sibling is the parent's plaintext histogram, held
        from the layer above, minus the built smaller child."""
        self.frontier, self.derived = self._next_frontier, self._next_derived
        self._next_frontier, self._next_derived = [], {}
        built = [node_id for node_id in self.frontier if node_id not in self.derived]
        hists = {p: self._open_histograms(channel, p, built) for p in self.passive_shapes}
        hists[ACTIVE] = {
            node_id: gbdt_histogram.build_histogram(
                self.dataset, self.node_rows[node_id], self.gradients, self.hessians
            )
            for node_id in built
        }
        for large, (parent, small) in self.derived.items():
            for party, per_node in hists.items():
                per_node[large] = self.hists[party][parent].subtract(per_node[small])
        self.hists = hists

    def _open_histograms(self, channel, sender: int, built: list[int]) -> dict:
        """Dec: one passive party's histograms of the ``built`` nodes.  A
        packed node is rebuilt from ``message.packed[node]``, the layout
        and the node size B knows from the placement, and closed with
        B's own total; counted mode reads ``opens_to``."""
        if self.context is None:
            type_, field, wants = CountedCipherPayload, "opens_to", {"kind": "histograms"}
        elif self.layout is not None:
            type_, field, wants = PackedHistogramMessage, "packed", {}
        else:
            type_, field, wants = EncryptedHistogramMessage, "histograms", {}
        payload = getattr(_receive(channel, sender, ACTIVE, type_, **wants), field)
        if list(payload) != built:
            raise ProtocolError(
                f"party {sender} sent nodes {list(payload)}, this layer builds {built}"
            )
        if self.context is None:
            return dict(payload)
        d, s = self.passive_shapes[sender]
        # An unpacked bin sums some of a node's (g, h): B bounds it by the
        # node size times the largest value it encrypted this tree.
        largest = max(
            np.abs(self.gradients).max(initial=0.0), np.abs(self.hessians).max(initial=0.0)
        )
        opened = {}
        for node_id, content in payload.items():
            rows = self.node_rows[node_id]
            if self.layout is not None:
                # B's own sum over the node: every feature's last prefix.
                total = sum(self.raw_pairs[i] for i in rows.tolist())
                packed = enc_histogram.PackedHistogram(content, self.layout, d, s, rows.size)
                opened[node_id] = enc_histogram.unpack_histogram(self.context, packed, total)
                continue
            if [len(bins) for half in content for bins in half] != [s] * (2 * d):
                raise ProtocolError(f"party {sender}: node {node_id} is not {d} x {s}")
            encrypted = enc_histogram.EncryptedHistogram(*content, rows.size, s)
            opened[node_id] = enc_histogram.decrypt_histogram(
                self.context, encrypted, rows.size * largest
            )
        return opened

    def _global_best_split(self, node_id: int):
        """B compares its candidate with every passive party's: the winning
        owner and candidate (``-1, None`` for a leaf) plus B's own — the
        one the optimistic strategy would have split with."""
        params, n_node = self.config.params, self.node_rows[node_id].size
        own = gbdt_split.find_best_split(self.hists[ACTIVE][node_id], params)
        owner, best = ACTIVE, own
        for p in self.passive_shapes:
            candidate = gbdt_split.find_best_split(
                self.hists[p][node_id], params, check_counts=False, node_instances=n_node
            )
            if candidate.is_valid and (not best.is_valid or candidate.gain > best.gain):
                owner, best = p, candidate
        if not best.is_valid:
            return -1, None, own
        return owner, best, own

    def open_split(self, channel, node_id: int) -> NodeTrace:
        """Split: pick the node's best split; place it (own columns) or ask its owner."""
        rows = self.node_rows[node_id]
        node = NodeTrace(node_id, rows.size, derived=node_id in self.derived)
        owner, best, own = self._global_best_split(node_id)
        if best is None:
            return node
        node.owner = owner
        # Dirty under the optimistic strategy: B split ahead with its own
        # candidate but a passive party's was better.
        node.dirty = owner != ACTIVE
        if owner == ACTIVE:
            placement = self.dataset.codes[rows, best.feature] <= best.bin_index
            for p in self.passive_shapes:
                channel.send(
                    InstancePlacement(ACTIVE, p, node_id=node_id, placement=placement)
                )
            threshold = self.dataset.threshold_for(best.feature, best.bin_index)
            self._split(node, best, threshold, placement)
            return node
        flat = best.feature * self.passive_shapes[owner][1] + best.bin_index
        channel.send(
            SplitDecision(ACTIVE, owner, node_id=node_id, owner=owner, bin_flat_index=flat)
        )
        channel.send(SplitQuery(ACTIVE, owner, node_id=node_id, bin_flat_index=flat))
        self._asked = best, own
        return node

    def close_split(self, channel, node: NodeTrace) -> None:
        """Split: a passive owner's answer — the placement, and the share of
        the node's rows B's optimistic split (its own candidate) had
        misplaced, the quantity the §8 incremental redo needs.  Placements
        are direction-agnostic: the better orientation of the optimistic
        split counts as "already correct"."""
        best, own = self._asked
        answer = _receive(channel, node.owner, ACTIVE, SplitAnswer, node_id=node.node_id)
        rows = self.node_rows[node.node_id]
        # The threshold is the owner's: it joins the model from its sidecar.
        self._split(node, best, float("nan"), answer.placement)
        if own.is_valid:
            optimistic = self.dataset.codes[rows, own.feature] <= own.bin_index
            disagree = float(np.mean(optimistic != answer.placement))
            node.misplaced_fraction = min(disagree, 1.0 - disagree) * 2.0

    def _split(self, node: NodeTrace, best, threshold: float, placement) -> None:
        self.tree.split_node(
            node.node_id, node.owner, best.feature, best.bin_index, threshold, best.gain
        )
        built, derived = self._place(node.node_id, placement)
        self._next_frontier.extend(sorted((built, derived)))
        self._next_derived[derived] = (node.node_id, built)

    def send_leaf_weights(self, channel) -> DecisionTree:
        """Leaf: weights (Equation 1) from B's own sums, broadcast; the
        margins move by B's own leaf assignment, as predict_federated would."""
        params = self.config.params
        weights: dict[int, float] = {}
        update = np.zeros_like(self.margins)
        for node in self.tree.nodes.values():
            rows = self.node_rows[node.node_id]
            if node.is_leaf and rows.size:
                weight = gbdt_split.leaf_weight(
                    float(self.gradients[rows].sum()),
                    float(self.hessians[rows].sum()),
                    params.reg_lambda,
                )
                self.tree.set_leaf_weight(node.node_id, weight)
                weights[node.node_id] = update[rows] = weight
        for p in self.passive_shapes:
            # Declared disclosure: leaf weights are part of the published
            # model (every party needs them for inference, §3.3).
            # repro: allow[PB001]
            channel.send(LeafWeightBroadcast(ACTIVE, p, weights=weights))
        self.margins += params.learning_rate * update
        return self.tree


def make_parties(config: VF2BoostConfig, party_datasets, labels):
    """Party B and ``{id: Party A}`` of one run — where ``crypto_mode`` is decided.

    Real mode generates the key pair, hands B the private context and
    every A a public one; counted mode hands out no context at all.
    """
    context = None
    if config.crypto_mode == "real":
        context = PaillierContext.create(
            config.key_bits, seed=config.seed, jitter=config.exponent_jitter
        )
    ids = range(1, len(party_datasets))
    shapes = {p: (party_datasets[p].n_features, party_datasets[p].n_bins) for p in ids}
    active = ActiveParty(config, party_datasets[ACTIVE], labels, context, shapes)
    passives = {}
    for p in ids:
        public = context.public_context() if context is not None else None
        peers = [q for q in ids if q != p]
        passives[p] = PassiveParty(p, config, party_datasets[p], public, peers)
    return active, passives
