"""Federated inference: joint prediction over vertically partitioned data.

At serving time the model is as distributed as the features: Party B
can evaluate its own splits, but whenever an instance reaches a node
owned by a passive party, only that party can route it.  The protocol
below is the standard one (and what SecureBoost deploys): B drives the
traversal layer by layer and sends the owning party *batched routing
queries* — node ids plus the sets of instances currently sitting on
them — receiving left/right bitmaps back.  The owner learns only which
instances reached its nodes (the same information training's instance
placement already revealed); B never learns the owner's feature or
threshold.

The predictor is a router over the tree's one layer-wise walk
(:meth:`~repro.gbdt.tree.DecisionTree.walk`): B answers its own nodes
from its codes, then each owner's nodes of the layer in one
:class:`~repro.fed.messages.RouteQueryBatch` round trip (or one
:class:`~repro.fed.messages.RouteQuery` per node, the naive baseline).
The owner side, :func:`answer_route_items`, is shared with the online
serving runtime (:mod:`repro.serve`), which additionally coalesces
routing queries *across concurrent requests* into one batch per
(party, layer).

Every message flows through a :class:`RecordingChannel`, so serving
traffic is as accountable as training traffic.
"""

from __future__ import annotations

import numpy as np

from repro.core.trainer import ACTIVE, FederatedModel
from repro.fed.channel import RecordingChannel
from repro.fed.messages import (
    RouteAnswer,
    RouteAnswerBatch,
    RouteQuery,
    RouteQueryBatch,
)
from repro.gbdt.tree import DecisionTree, route_local, split_frontier

__all__ = ["FederatedPredictor", "answer_route_items"]


def answer_route_items(
    model: FederatedModel,
    owner_codes: np.ndarray,
    items: list[tuple[int, int, np.ndarray]],
) -> list[tuple[int, int, np.ndarray]]:
    """Owner-side evaluation of a routing batch.

    Args:
        model: the owner's copy of the model (its own feature/bin ids
            populated from its sidecar).
        owner_codes: the owner's bin-code matrix, indexed by the
            instance ids carried in ``items``.
        items: ``(tree_index, node_id, instance_ids)`` query entries.

    Returns:
        ``(tree_index, node_id, goes_left)`` entries in query order.
    """
    answers: list[tuple[int, int, np.ndarray]] = []
    for tree_index, node_id, instance_ids in items:
        node = model.trees[tree_index].nodes[node_id]
        answers.append(
            (tree_index, node_id, route_local(owner_codes, node, instance_ids))
        )
    return answers


class FederatedPredictor:
    """Drives joint prediction across parties through a channel.

    Args:
        model: the trained federated model (B's copy: passive parties'
            thresholds unknown, but owners/bin indices present).
        party_codes: per-party bin-code matrices of the instances to
            score, indexed by owner-local feature ids.
        channel: message channel for routing queries (a fresh
            :class:`RecordingChannel` is created when omitted).
        coalesce: batch all of one owner's frontier nodes of a layer
            into a single :class:`RouteQueryBatch` round trip (the
            default).  ``False`` restores the naive one-RouteQuery-per-
            node protocol — kept as the serving benchmark baseline.
    """

    def __init__(
        self,
        model: FederatedModel,
        party_codes: dict[int, np.ndarray],
        channel: RecordingChannel | None = None,
        key_bits: int = 2048,
        coalesce: bool = True,
    ) -> None:
        self.model = model
        self.party_codes = party_codes
        self.channel = channel or RecordingChannel(key_bits, active_party=ACTIVE)
        self.coalesce = coalesce
        self.routing_queries = 0
        self._batch_counter = 0

    @property
    def round_trips(self) -> int:
        """Cross-party request/answer round trips issued so far."""
        return self.routing_queries

    @property
    def bytes_on_wire(self) -> int:
        """Total routing bytes, both directions (channel accounting)."""
        return self.channel.total_bytes()

    def predict_margin(self) -> np.ndarray:
        """Raw margins for every instance, via the routing protocol."""
        n = next(iter(self.party_codes.values())).shape[0]
        margins = np.full(n, self.model.base_score, dtype=np.float64)
        for tree_index, tree in enumerate(self.model.trees):
            margins += self.model.learning_rate * tree.walk(
                n, lambda nodes: self._route(tree_index, tree, nodes)
            )
        return margins

    def _route(
        self, tree_index: int, tree: DecisionTree, nodes: dict[int, np.ndarray]
    ) -> dict[int, np.ndarray]:
        """One layer: B's nodes from its own codes, then each owner's in
        one batch (or one query per node without ``coalesce``)."""
        layer = split_frontier(tree, nodes, local_party=ACTIVE)
        goes_left = tree.route_codes(self.party_codes, layer.local)
        for owner in sorted(layer.remote):
            owned = layer.remote[owner]
            if self.coalesce:
                items = [(tree_index, node_id, rows) for node_id, rows in owned.items()]
                answers = self._query_batch(owner, items)
                goes_left.update((node_id, left) for _, node_id, left in answers)
            else:
                for node_id, rows in owned.items():
                    node = tree.nodes[node_id]
                    goes_left[node_id] = self._route_single(tree_index, node, rows)
        return goes_left

    def _query_batch(
        self, owner: int, items: list[tuple[int, int, np.ndarray]]
    ) -> list[tuple[int, int, np.ndarray]]:
        """One coalesced round trip: all of an owner's layer nodes."""
        self.routing_queries += 1
        self._batch_counter += 1
        self.channel.send(
            RouteQueryBatch(ACTIVE, owner, batch_id=self._batch_counter, items=items)
        )
        query = self.channel.receive(ACTIVE, owner)
        assert isinstance(query, RouteQueryBatch)
        answers = answer_route_items(self.model, self.party_codes[owner], query.items)
        self.channel.send(
            RouteAnswerBatch(owner, ACTIVE, batch_id=query.batch_id, items=answers)
        )
        answer = self.channel.receive(owner, ACTIVE)
        assert isinstance(answer, RouteAnswerBatch)
        return answer.items

    def _route_single(self, tree_index: int, node, rows: np.ndarray) -> np.ndarray:
        """Naive path: one round trip for a single node's instances."""
        self.routing_queries += 1
        self.channel.send(
            RouteQuery(
                ACTIVE,
                node.owner,
                tree_index=tree_index,
                node_id=node.node_id,
                instance_ids=rows,
            )
        )
        query = self.channel.receive(ACTIVE, node.owner)
        assert isinstance(query, RouteQuery)
        goes_left = route_local(self.party_codes[node.owner], node, query.instance_ids)
        self.channel.send(
            RouteAnswer(
                node.owner,
                ACTIVE,
                tree_index=tree_index,
                node_id=node.node_id,
                goes_left=goes_left,
            )
        )
        answer = self.channel.receive(node.owner, ACTIVE)
        assert isinstance(answer, RouteAnswer)
        return answer.goes_left
