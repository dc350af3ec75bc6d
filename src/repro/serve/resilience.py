"""Failure handling for online federated inference.

A vertical federated prediction has a hard dependency on every passive
party that owns a split on the instance's path — a single slow WAN hop
can stall the whole request.  This module provides the two standard
mitigations:

* retry — per-party timeout with capped exponential backoff.
  :class:`~repro.fed.retry.RetryPolicy` and
  :class:`~repro.fed.retry.PartyHealth` live in :mod:`repro.fed.retry`,
  shared with the fault-tolerant training path; import them from
  there.
* :class:`DegradedRouter` — when a party stays unresponsive past its
  retry budget (or the request's deadline), its nodes are routed by a
  precomputed *majority direction* and the prediction is flagged
  ``degraded=True`` instead of failing the request.

Privacy note: degraded routing consults only B-side state — per-node
majority directions computed once at model registration from training
placement counts (information the protocol already disclosed to B when
it synchronized instance placement).  No new query, no new disclosure;
the passive party learns nothing it would not have learned from a
normal routing query, and B learns nothing at all beyond what training
revealed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DegradedRouter", "majority_directions"]

def majority_directions(
    model, party_codes: dict[int, np.ndarray], active_party: int = 0
) -> dict[tuple[int, int], bool]:
    """Per-node majority routing direction from a calibration set.

    Traverses every tree over ``party_codes`` (a calibration sample —
    e.g. the training rows B already holds placement information for)
    and records, for each node *not* owned by ``active_party``, whether
    the majority of instances reaching it went left.  Ties go left.

    Returns:
        ``{(tree_index, node_id): goes_left_majority}``.
    """
    from repro.core.inference import route_local, split_frontier, apply_route

    defaults: dict[tuple[int, int], bool] = {}
    n = next(iter(party_codes.values())).shape[0]
    for tree_index, tree in enumerate(model.trees):
        frontier: dict[int, np.ndarray] = {0: np.arange(n, dtype=np.int64)}
        while frontier:
            layer = split_frontier(tree, frontier, local_party=active_party)
            next_frontier: dict[int, np.ndarray] = {}
            for node_id, rows in layer.local.items():
                goes_left = route_local(
                    party_codes[active_party], tree.nodes[node_id], rows
                )
                apply_route(tree, node_id, rows, goes_left, next_frontier)
            for owner in sorted(layer.remote):
                for node_id, rows in layer.remote[owner].items():
                    goes_left = route_local(
                        party_codes[owner], tree.nodes[node_id], rows
                    )
                    defaults[(tree_index, node_id)] = bool(
                        int(goes_left.sum()) * 2 >= rows.size
                    )
                    apply_route(tree, node_id, rows, goes_left, next_frontier)
            frontier = next_frontier
    return defaults


@dataclass
class DegradedRouter:
    """Fallback router for nodes of an unresponsive party.

    Attributes:
        defaults: ``(tree_index, node_id) -> goes_left`` majority
            directions (see :func:`majority_directions`).  Nodes with no
            entry fall back to left — the deterministic last resort.
    """

    defaults: dict[tuple[int, int], bool] = field(default_factory=dict)

    def route(self, tree_index: int, node_id: int, n_rows: int) -> np.ndarray:
        """Uniform fallback bitmap for every instance on the node."""
        direction = self.defaults.get((tree_index, node_id), True)
        return np.full(n_rows, direction, dtype=bool)
