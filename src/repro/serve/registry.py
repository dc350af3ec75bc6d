"""Versioned model registry with atomic hot-swap.

A serving deployment never *replaces* a model — it registers a new
version next to the old one, validates it, then atomically flips the
active pointer between requests.  In-flight requests keep the version
they were admitted under (each session captures a :class:`ModelVersion`
reference at admission), so a swap can never mix two models inside one
prediction.

Registration validates the whole artifact set up front:

* every split must carry its owner's details: a model loaded without
  an owner's sidecar raises :class:`ModelFormatError`;
* every party referenced by a split must come with bin edges, so raw
  feature rows can be quantized at admission with the exact cut points
  the model was trained on.

Each version also carries its :class:`DegradedRouter`: when a passive
party stays unresponsive past its retry budget
(:class:`~repro.fed.retry.RetryPolicy`), its nodes are routed by a
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

from repro.core.serialization import ModelFormatError
from repro.core.trainer import FederatedModel
from repro.gbdt.binning import bin_column

__all__ = [
    "DegradedRouter",
    "ModelRegistry",
    "ModelVersion",
    "majority_directions",
]


def majority_directions(
    model, party_codes: dict[int, np.ndarray], active_party: int = 0
) -> dict[tuple[int, int], bool]:
    """Per-node majority routing direction from a calibration set.

    Walks every tree over ``party_codes`` (a calibration sample —
    e.g. the training rows B already holds placement information for)
    and records, for each node *not* owned by ``active_party``, whether
    the majority of instances reaching it went left.  Ties go left.

    Returns:
        ``{(tree_index, node_id): goes_left_majority}``.
    """
    defaults: dict[tuple[int, int], bool] = {}
    n = next(iter(party_codes.values())).shape[0]
    for tree_index, tree in enumerate(model.trees):

        def route(nodes: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
            routed = tree.route_codes(party_codes, nodes)
            for node_id, goes_left in routed.items():
                if tree.nodes[node_id].owner != active_party:
                    defaults[(tree_index, node_id)] = bool(
                        int(goes_left.sum()) * 2 >= goes_left.size
                    )
            return routed

        tree.walk(n, route)
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


@dataclass(frozen=True)
class ModelVersion:
    """One immutable, fully validated model artifact set.

    Attributes:
        version: registry label (e.g. ``"v1"``).
        model: reconstructed federated model, all sidecars applied.
        bin_edges: ``party -> per-feature ascending cut points`` used to
            quantize raw feature rows at admission.
        degraded: fallback router for this model's passive nodes.
    """

    version: str
    model: FederatedModel
    bin_edges: dict[int, list[np.ndarray]] = field(default_factory=dict)
    degraded: DegradedRouter = field(default_factory=DegradedRouter)

    def split_owners(self) -> set[int]:
        """Every party owning at least one split node."""
        return set(self.model.split_counts_by_owner())

    def bin_rows(self, party: int, rows: np.ndarray) -> np.ndarray:
        """Quantize one party's raw feature rows with the stored edges."""
        edges = self.bin_edges[party]
        rows = np.asarray(rows, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] != len(edges):
            raise ValueError(
                f"party {party} rows must be 2-D with {len(edges)} features"
            )
        codes = np.empty(rows.shape, dtype=np.uint16)
        for j, cuts in enumerate(edges):
            codes[:, j] = bin_column(rows[:, j], cuts)
        return codes


class ModelRegistry:
    """Holds every registered version; exactly one may be active.

    The swap (:meth:`activate`) is a single reference assignment —
    atomic under the in-process serving model, and the pattern a
    multi-process deployment would implement with an atomic pointer in
    shared config.

    Args:
        event_log: optional shared
            :class:`~repro.obs.events.EventLog`; activations are
            recorded under subsystem ``"serve.registry"`` (kind
            ``hot_swap``).
        event_labels: constant labels merged into those events.
    """

    def __init__(self, event_log=None, event_labels: dict | None = None) -> None:
        self._versions: dict[str, ModelVersion] = {}
        self._active: ModelVersion | None = None
        self.event_log = event_log
        self.event_labels = dict(event_labels or {})

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        version: str,
        model: FederatedModel,
        bin_edges: dict[int, list[np.ndarray]],
        calibration_codes: dict[int, np.ndarray] | None = None,
    ) -> ModelVersion:
        """Validate and store one model version (does not activate it).

        Args:
            version: unique label.
            model: reconstructed model; every split node must carry its
                owner's feature/bin details.
            bin_edges: per-party cut points for admission binning.
            calibration_codes: optional per-party bin codes used to
                precompute majority-direction fallbacks for degraded
                mode; without it the fallback is uniform-left.

        Raises:
            ModelFormatError: on an incomplete artifact set.
            ValueError: on a duplicate version label.
        """
        if version in self._versions:
            raise ValueError(f"version {version!r} already registered")
        self._validate(model, bin_edges)
        defaults = (
            majority_directions(model, calibration_codes)
            if calibration_codes
            else {}
        )
        entry = ModelVersion(
            version=version,
            model=model,
            bin_edges={party: list(edges) for party, edges in bin_edges.items()},
            degraded=DegradedRouter(defaults),
        )
        self._versions[version] = entry
        return entry

    @staticmethod
    def _validate(
        model: FederatedModel, bin_edges: dict[int, list[np.ndarray]]
    ) -> None:
        for t, tree in enumerate(model.trees):
            for node in tree.nodes.values():
                if node.is_leaf:
                    continue
                if node.feature < 0 or node.bin_index < 0:
                    raise ModelFormatError(
                        f"tree {t} node {node.node_id}: owner {node.owner} "
                        "split details missing (sidecar not applied)"
                    )
                if node.owner not in bin_edges:
                    raise ModelFormatError(
                        f"no bin edges for party {node.owner}, which owns "
                        f"tree {t} node {node.node_id}"
                    )
                if node.feature >= len(bin_edges[node.owner]):
                    raise ModelFormatError(
                        f"party {node.owner} bin edges cover "
                        f"{len(bin_edges[node.owner])} features but tree {t} "
                        f"node {node.node_id} splits on feature {node.feature}"
                    )

    # ------------------------------------------------------------------
    # Activation / lookup
    # ------------------------------------------------------------------
    def activate(self, version: str, now: float = 0.0) -> ModelVersion:
        """Atomically make a registered version the serving default.

        ``now`` timestamps the hot-swap event on the simulated clock
        (0.0 for control-plane activations outside any event loop).
        """
        entry = self._versions.get(version)
        if entry is None:
            raise KeyError(f"version {version!r} is not registered")
        previous = self._active.version if self._active is not None else ""
        self._active = entry
        if self.event_log is not None:
            self.event_log.emit(
                now,
                "serve.registry",
                "hot_swap",
                labels=dict(self.event_labels),
                version=version,
                previous=previous,
            )
        return entry

    def active(self) -> ModelVersion:
        """The currently serving version.

        Raises:
            LookupError: when nothing has been activated yet.
        """
        if self._active is None:
            raise LookupError("no model version activated")
        return self._active

    def get(self, version: str) -> ModelVersion:
        """Look up a version by label."""
        return self._versions[version]
