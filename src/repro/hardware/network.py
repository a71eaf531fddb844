"""Pairwise network model between GPUs (alpha-beta / Hockney model).

The paper characterises every GPU-to-GPU link by a latency ``alpha`` (seconds) and a
bandwidth ``beta`` (bytes/s); the time to move ``n`` bytes is ``alpha + n / beta``
(Equation 1 uses this form for KV-cache transfers).  Cloud environments exhibit
strong heterogeneity in these matrices — PCIe inside a node, Ethernet of varying
speed between nodes, and very slow links across data centers — whereas the in-house
environment is uniformly fast (NVLink).  Figure 13 of the paper visualises exactly
these matrices; :meth:`NetworkModel.bandwidth_matrix_gbps` regenerates the data
behind that figure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Sequence

import numpy as np

from repro.core.exceptions import ConfigurationError
from repro.core.rng import RNGLike, ensure_rng
from repro.hardware.node import Node


class LinkClass(str, enum.Enum):
    """Coarse classification of a GPU-to-GPU link."""

    SELF = "self"
    INTRA_NODE = "intra_node"
    INTER_NODE = "inter_node"
    INTER_DATACENTER = "inter_datacenter"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Default latency per link class, in seconds.
DEFAULT_LATENCY_S = {
    LinkClass.SELF: 0.0,
    LinkClass.INTRA_NODE: 5e-6,
    LinkClass.INTER_NODE: 1e-4,
    LinkClass.INTER_DATACENTER: 2e-3,
}


@dataclass
class NetworkConfig:
    """Parameters controlling synthetic bandwidth-matrix generation.

    Bandwidths are in GB/s.  Inter-node bandwidth within a data center is sampled
    uniformly from ``[inter_node_min_gbps, inter_node_max_gbps]`` per node pair to
    model the heterogeneity of cloud Ethernet; intra-node PCIe bandwidth is sampled
    per node from ``[intra_node_min_gbps, intra_node_max_gbps]``.
    """

    intra_node_min_gbps: float = 16.0
    intra_node_max_gbps: float = 32.0
    inter_node_min_gbps: float = 1.25   # 10 Gbps Ethernet
    inter_node_max_gbps: float = 5.0    # 40 Gbps Ethernet
    inter_datacenter_gbps: float = 0.625  # 5 Gbps WAN
    intra_node_latency_s: float = DEFAULT_LATENCY_S[LinkClass.INTRA_NODE]
    inter_node_latency_s: float = DEFAULT_LATENCY_S[LinkClass.INTER_NODE]
    inter_datacenter_latency_s: float = DEFAULT_LATENCY_S[LinkClass.INTER_DATACENTER]

    def __post_init__(self) -> None:
        if not (0 < self.inter_node_min_gbps <= self.inter_node_max_gbps):
            raise ConfigurationError("inter-node bandwidth range must be positive and ordered")
        if not (0 < self.intra_node_min_gbps <= self.intra_node_max_gbps):
            raise ConfigurationError("intra-node bandwidth range must be positive and ordered")
        if self.inter_datacenter_gbps <= 0:
            raise ConfigurationError("inter_datacenter_gbps must be positive")


class NetworkModel:
    """Dense alpha/beta matrices over the GPUs of a cluster.

    Parameters
    ----------
    bandwidth_gbps:
        ``(n, n)`` symmetric matrix of link bandwidths in GB/s.  The diagonal holds
        an effectively-infinite value (on-device copies are not modelled).
    latency_s:
        ``(n, n)`` symmetric matrix of link latencies in seconds (zero diagonal).
    link_class:
        ``(n, n)`` matrix of :class:`LinkClass` values (object dtype), used by the
        scheduler heuristics (e.g. "no TP across nodes").
    """

    def __init__(
        self,
        bandwidth_gbps: np.ndarray,
        latency_s: np.ndarray,
        link_class: np.ndarray,
    ) -> None:
        bandwidth_gbps = np.asarray(bandwidth_gbps, dtype=float)
        latency_s = np.asarray(latency_s, dtype=float)
        if bandwidth_gbps.shape != latency_s.shape or bandwidth_gbps.ndim != 2:
            raise ConfigurationError("bandwidth and latency matrices must share a square shape")
        if bandwidth_gbps.shape[0] != bandwidth_gbps.shape[1]:
            raise ConfigurationError("network matrices must be square")
        if np.any(bandwidth_gbps <= 0):
            raise ConfigurationError("all bandwidths must be positive")
        if np.any(latency_s < 0):
            raise ConfigurationError("latencies must be non-negative")
        if not np.allclose(bandwidth_gbps, bandwidth_gbps.T):
            raise ConfigurationError("bandwidth matrix must be symmetric")
        if not np.allclose(latency_s, latency_s.T):
            raise ConfigurationError("latency matrix must be symmetric")
        self._bandwidth_gbps = bandwidth_gbps
        self._latency_s = latency_s
        self._link_class = np.asarray(link_class, dtype=object)
        self._state_key: tuple | None = None

    # ------------------------------------------------------------------ builders
    @classmethod
    def from_nodes(
        cls,
        nodes: Sequence[Node],
        config: NetworkConfig | None = None,
        seed: RNGLike = 0,
    ) -> "NetworkModel":
        """Synthesise a network model from a node list.

        Intra-node links use each node's PCIe/NVLink bandwidth; inter-node links in
        the same data center sample an Ethernet bandwidth per node pair from the
        configured range; links across data centers use the (much lower) WAN
        bandwidth.  Sampling is deterministic for a given ``seed``.
        """
        config = config or NetworkConfig()
        rng = ensure_rng(seed)
        num_gpus = sum(node.num_gpus for node in nodes)
        bandwidth = np.zeros((num_gpus, num_gpus), dtype=float)
        latency = np.zeros((num_gpus, num_gpus), dtype=float)
        link_class = np.empty((num_gpus, num_gpus), dtype=object)

        # Map every GPU index to its node / datacenter.
        node_of_gpu: List[int] = []
        for node in nodes:
            node_of_gpu.extend([node.node_id] * node.num_gpus)
        node_by_id = {node.node_id: node for node in nodes}

        # Pre-sample a symmetric inter-node bandwidth per node pair (same DC).
        node_ids = [node.node_id for node in nodes]
        inter_node_bw: dict[tuple[int, int], float] = {}
        for a_idx, a in enumerate(node_ids):
            for b in node_ids[a_idx + 1:]:
                bw = rng.uniform(config.inter_node_min_gbps, config.inter_node_max_gbps)
                inter_node_bw[(a, b)] = bw
                inter_node_bw[(b, a)] = bw

        huge = 1e6  # effectively infinite bandwidth for the diagonal
        for i in range(num_gpus):
            for j in range(i, num_gpus):
                ni, nj = node_of_gpu[i], node_of_gpu[j]
                node_i, node_j = node_by_id[ni], node_by_id[nj]
                if i == j:
                    bw, lat, cls_ = huge, 0.0, LinkClass.SELF
                elif ni == nj:
                    bw = node_i.intra_bandwidth_gbps
                    lat = node_i.intra_latency_s
                    cls_ = LinkClass.INTRA_NODE
                elif node_i.datacenter == node_j.datacenter:
                    bw = inter_node_bw[(ni, nj)]
                    lat = config.inter_node_latency_s
                    cls_ = LinkClass.INTER_NODE
                else:
                    bw = config.inter_datacenter_gbps
                    lat = config.inter_datacenter_latency_s
                    cls_ = LinkClass.INTER_DATACENTER
                bandwidth[i, j] = bandwidth[j, i] = bw
                latency[i, j] = latency[j, i] = lat
                link_class[i, j] = link_class[j, i] = cls_
        return cls(bandwidth, latency, link_class)

    def scaled(
        self,
        bandwidth_scale: float = 1.0,
        latency_scale: float = 1.0,
        link_classes: Iterable[LinkClass] | None = None,
    ) -> "NetworkModel":
        """Return a degraded (or repaired) copy with scaled link matrices.

        Off-diagonal bandwidths are multiplied by ``bandwidth_scale`` and
        latencies by ``latency_scale``; the diagonal (on-device) entries are
        untouched.  ``link_classes`` restricts the scaling to a subset of link
        classes (e.g. only :attr:`LinkClass.INTER_DATACENTER` links during a
        WAN brownout); ``None`` scales every off-diagonal link.  The receiver
        is never mutated, so the pristine model stays available for repair —
        re-derive the healthy state from it rather than multiplying back.
        """
        if bandwidth_scale <= 0:
            raise ConfigurationError("bandwidth_scale must be positive")
        if latency_scale < 0:
            raise ConfigurationError("latency_scale must be non-negative")
        bandwidth = self._bandwidth_gbps.copy()
        latency = self._latency_s.copy()
        mask = ~np.eye(self.num_gpus, dtype=bool)
        if link_classes is not None:
            allowed = {LinkClass(c) for c in link_classes}
            in_class = np.frompyfunc(lambda c: c in allowed, 1, 1)(self._link_class)
            mask &= in_class.astype(bool)
        bandwidth[mask] *= bandwidth_scale
        latency[mask] *= latency_scale
        return NetworkModel(bandwidth, latency, self._link_class)

    # ------------------------------------------------------------------ accessors
    def state_key(self) -> tuple:
        """Hashable key over the bandwidth, latency and link-class matrices.

        Two models with bitwise-equal matrices give equal keys.  The model is
        immutable, so the key is computed once per instance.
        """
        if self._state_key is None:
            self._state_key = (
                self._bandwidth_gbps.tobytes(),
                self._latency_s.tobytes(),
                tuple(self._link_class.ravel()),
            )
        return self._state_key

    @property
    def num_gpus(self) -> int:
        """Number of GPUs covered by the matrices."""
        return self._bandwidth_gbps.shape[0]

    def bandwidth_gbps(self, i: int, j: int) -> float:
        """Link bandwidth between GPUs ``i`` and ``j`` in GB/s."""
        return float(self._bandwidth_gbps[i, j])

    def bandwidth_bytes(self, i: int, j: int) -> float:
        """Link bandwidth between GPUs ``i`` and ``j`` in bytes/s."""
        return float(self._bandwidth_gbps[i, j] * 1e9)

    def latency_s(self, i: int, j: int) -> float:
        """Link latency between GPUs ``i`` and ``j`` in seconds."""
        return float(self._latency_s[i, j])

    def link_class(self, i: int, j: int) -> LinkClass:
        """Coarse link classification between GPUs ``i`` and ``j``."""
        return self._link_class[i, j]

    def bandwidth_matrix_gbps(self) -> np.ndarray:
        """Return a copy of the full bandwidth matrix (GB/s) — the Figure 13 data."""
        return self._bandwidth_gbps.copy()

    # ------------------------------------------------------- set-level aggregates
    def _bandwidth_block(self, rows: List[int], cols: List[int]) -> np.ndarray:
        """The bandwidth submatrix ``rows x cols`` (GB/s).

        The same fancy index as ``np.ix_(rows, cols)``, built directly: the
        scheduler reads thousands of these blocks per search, and ``np.ix_``'s
        argument checks cost more than the indexing itself.
        """
        return self._bandwidth_gbps[np.asarray(rows)[:, None], np.asarray(cols)]

    def min_bandwidth_within(self, gpu_ids: Iterable[int]) -> float:
        """Minimum pairwise bandwidth (GB/s) among a set of GPUs.

        Used by the parallel-configuration heuristics: tensor parallelism is only
        allowed over GPU sets whose slowest internal link is fast enough (in
        practice, within a single node).
        """
        ids = list(gpu_ids)
        if len(ids) <= 1:
            return float("inf")
        sub = self._bandwidth_block(ids, ids)
        off_diag = sub[~np.eye(len(ids), dtype=bool)]
        return float(off_diag.min())

    def mean_bandwidth_between(self, group_a: Iterable[int], group_b: Iterable[int]) -> float:
        """Mean pairwise bandwidth (GB/s) between two disjoint GPU sets."""
        a = list(group_a)
        b = list(group_b)
        if not a or not b:
            raise ValueError("both GPU sets must be non-empty")
        return float(self._bandwidth_block(a, b).mean())

    def best_link_between(self, group_a: Iterable[int], group_b: Iterable[int]) -> tuple[int, int, float]:
        """Return ``(i, j, bandwidth_gbps)`` of the fastest link between two GPU sets.

        KV caches are sent point-to-point, so the orchestrator routes each
        prefill→decode transfer over the single best link between the two replicas.
        """
        a = list(group_a)
        b = list(group_b)
        if not a or not b:
            raise ValueError("both GPU sets must be non-empty")
        sub = self._bandwidth_block(a, b)
        flat_idx = int(np.argmax(sub))
        ai, bj = np.unravel_index(flat_idx, sub.shape)
        return a[ai], b[bj], float(sub[ai, bj])

    def distance_matrix(self) -> np.ndarray:
        """Return a dissimilarity matrix (1 / bandwidth) for hierarchical clustering.

        GPUs connected by fast links are "close"; the scheduler's initialisation
        clusters GPUs so that model-serving groups avoid ultra-low-bandwidth links.
        """
        with np.errstate(divide="ignore"):
            dist = 1.0 / self._bandwidth_gbps
        np.fill_diagonal(dist, 0.0)
        return dist


__all__ = ["LinkClass", "NetworkConfig", "NetworkModel", "DEFAULT_LATENCY_S"]
