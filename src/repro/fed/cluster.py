"""Cluster and network topology description (§6.1 environment).

The paper runs each party on a cluster of 16-core machines with
10 Gbps intra-party Ethernet, 300 Mbps public bandwidth between the
parties, and three gateway machines hosting the message queues.
:class:`ClusterSpec` captures those knobs; the protocol scheduler turns
them into simulation resources.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ClusterSpec", "PAPER_CLUSTER"]


@dataclass(frozen=True)
class ClusterSpec:
    """Hardware/topology description of a federated deployment.

    Attributes:
        n_workers: worker machines per party.
        cores_per_worker: threads per worker usable by the crypto library.
        wan_bandwidth: cross-party bytes/second (shared by all workers).
        wan_latency: one-way message latency in seconds.
        lan_bandwidth: intra-party bytes/second (histogram aggregation).
        parallel_efficiency: fraction of linear scaling actually achieved
            by intra-party data parallelism (stragglers, skew).
        round_overhead: fixed coordination seconds per tree layer —
            Spark task dispatch plus the Pulsar queue round trip. It is
            negligible against paper-scale trees but dominates on the
            small census/a9a datasets, which is why the paper's
            small-data speedups sit at 12.8-18.9x rather than higher.
    """

    n_workers: int = 8
    cores_per_worker: int = 16
    wan_bandwidth: float = 300e6 / 8
    wan_latency: float = 0.02
    lan_bandwidth: float = 10e9 / 8
    parallel_efficiency: float = 0.9
    round_overhead: float = 1.0

    def __post_init__(self) -> None:
        if self.n_workers < 1 or self.cores_per_worker < 1:
            raise ValueError("workers and cores must be positive")
        if self.wan_bandwidth <= 0 or self.lan_bandwidth <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0 < self.parallel_efficiency <= 1:
            raise ValueError("parallel_efficiency must be in (0, 1]")

    @property
    def compute_lanes(self) -> int:
        """Effective parallel lanes for divisible crypto work.

        Efficiency decays mildly with the worker count (stragglers,
        shuffle skew) — part of why Table 5's scaling is sublinear.
        """
        lanes = self.n_workers * self.cores_per_worker
        decay = max(0.5, 1.0 - 0.012 * (self.n_workers - 1))
        return max(1, int(lanes * self.parallel_efficiency * decay))

    def scaled_workers(self, n_workers: int) -> "ClusterSpec":
        """Copy with a different worker count (Table 5 sweeps)."""
        from dataclasses import replace

        return replace(self, n_workers=n_workers)

    def aggregation_seconds(
        self, histogram_bytes: float, nnz_bytes: float | None = None
    ) -> float:
        """Intra-party histogram aggregation time for one layer.

        Workers exchange local histograms so that each worker owns the
        global histogram of its feature range (§3.2); the dominant cost
        is shipping ``(W-1)/W`` of every local histogram over the LAN,
        which grows with the worker count — the effect that caps
        Table 5's scaling. A shard's local histogram cannot hold more
        occupied bins than the shard has non-zero values, so sparse
        traffic is bounded by ``nnz_bytes`` when provided.
        """
        if self.n_workers == 1:
            return 0.0
        payload = histogram_bytes
        if nnz_bytes is not None:
            payload = min(payload, nnz_bytes)
        traffic = payload * (self.n_workers - 1) * 0.25
        return traffic / self.lan_bandwidth


#: the exact environment of §6.1
PAPER_CLUSTER = ClusterSpec()
