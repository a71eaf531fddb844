"""The :class:`Cluster` aggregate and factory functions for the paper's testbeds.

A cluster bundles a list of nodes, the flattened GPU list and the pairwise network
model.  Factory functions reconstruct the exact hardware environments of §5.1:

* :func:`make_cloud_cluster` — the 32-GPU heterogeneous cloud environment: two
  4xA6000 instances, two 4xA5000 instances, one 8xA40 instance and two 4x3090Ti
  instances (total price ≈ $13.5/hour).
* :func:`make_inhouse_cluster` — the homogeneous in-house 8xA100 server
  (≈ $14.0/hour at the Table 1 rental price), with NVLink intra-node bandwidth.
* :func:`make_homogeneous_cluster` — arbitrary homogeneous clusters, used by the
  prefill:decode-ratio experiments (Figures 6 and 14: 8/12/16 A5000 GPUs).
* :func:`make_two_datacenter_cluster` — the 4xA40 + 4x3090Ti cross-datacenter case
  study of Appendix H (Figure 16).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.core.exceptions import ConfigurationError
from repro.core.rng import RNGLike, ensure_rng
from repro.hardware.gpu import GPU, get_gpu_spec
from repro.hardware.network import NetworkConfig, NetworkModel
from repro.hardware.node import Node


@dataclass
class Cluster:
    """A collection of GPU nodes plus their interconnect model.

    GPU ids are global and stable: removing GPUs (e.g. to model a node failure)
    produces a new :class:`Cluster` that keeps the original ids and network
    matrices but exposes a smaller ``gpus`` list.  The full roster of GPUs the
    cluster has ever known is retained in ``all_gpus`` so that removed GPUs can
    later be revived by id (:meth:`with_gpus` — capacity recovery after a spot
    preemption ends or a crashed node rejoins).
    """

    nodes: List[Node]
    gpus: List[GPU]
    network: NetworkModel
    name: str = "cluster"
    #: full GPU roster, including currently-removed GPUs; defaults to ``gpus``
    all_gpus: Optional[List[GPU]] = None

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ConfigurationError("a cluster must contain at least one GPU")
        ids = [g.gpu_id for g in self.gpus]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate GPU ids in cluster")
        if max(ids) >= self.network.num_gpus:
            raise ConfigurationError("GPU id exceeds the size of the network matrices")
        self._gpu_by_id: Dict[int, GPU] = {g.gpu_id: g for g in self.gpus}
        if self.all_gpus is None:
            self.all_gpus = list(self.gpus)
        roster_ids = [g.gpu_id for g in self.all_gpus]
        if len(set(roster_ids)) != len(roster_ids):
            raise ConfigurationError("duplicate GPU ids in cluster roster")
        self._roster_by_id: Dict[int, GPU] = {g.gpu_id: g for g in self.all_gpus}
        missing = set(self._gpu_by_id) - set(self._roster_by_id)
        if missing:
            raise ConfigurationError(
                f"available GPUs {sorted(missing)} are absent from the cluster roster"
            )
        if max(roster_ids) >= self.network.num_gpus:
            raise ConfigurationError("roster GPU id exceeds the size of the network matrices")

    # ------------------------------------------------------------------ accessors
    @property
    def num_gpus(self) -> int:
        """Number of (available) GPUs in the cluster."""
        return len(self.gpus)

    @property
    def gpu_ids(self) -> List[int]:
        """Sorted list of available GPU ids."""
        return sorted(self._gpu_by_id)

    def gpu(self, gpu_id: int) -> GPU:
        """Look up a GPU by id."""
        try:
            return self._gpu_by_id[gpu_id]
        except KeyError:
            raise KeyError(f"GPU id {gpu_id} not in cluster {self.name!r}") from None

    def gpus_of_type(self, type_name: str) -> List[GPU]:
        """All available GPUs of a given type."""
        return [g for g in self.gpus if g.type_name == type_name]

    def type_counts(self) -> Dict[str, int]:
        """Number of available GPUs per type (the ``G_t`` of §3.1)."""
        counts: Dict[str, int] = {}
        for g in self.gpus:
            counts[g.type_name] = counts.get(g.type_name, 0) + 1
        return counts

    @property
    def price_per_hour(self) -> float:
        """Total rental price of the available GPUs in USD/hour."""
        return sum(g.spec.price_per_hour for g in self.gpus)

    def gpus_on_node(self, node_id: int) -> List[GPU]:
        """All available GPUs on a given node."""
        return [g for g in self.gpus if g.node_id == node_id]

    def state_key(self) -> tuple:
        """Hashable key over everything the scheduler reads from this cluster.

        That is the available GPUs in list order (each a frozen :class:`GPU`:
        id, spec, node and data center) and the network's matrices
        (:meth:`NetworkModel.state_key`).  Two separately built views of the
        same state give equal keys; removing a GPU or scaling the network
        changes the key.  The name and the removed part of the roster are not
        part of it: no plan depends on them.
        """
        return tuple(self.gpus), self.network.state_key()

    # ------------------------------------------------------------------ mutation
    def without_gpus(self, gpu_ids: Iterable[int], name: Optional[str] = None) -> "Cluster":
        """Return a new cluster with ``gpu_ids`` removed (models failures/preemption).

        Global GPU ids and network matrices are preserved so that deployment plans
        built against the original cluster remain addressable.
        """
        removed = set(gpu_ids)
        unknown = removed - set(self._gpu_by_id)
        if unknown:
            raise KeyError(f"cannot remove unknown GPU ids {sorted(unknown)}")
        remaining = [g for g in self.gpus if g.gpu_id not in removed]
        if not remaining:
            raise ConfigurationError("removing these GPUs would empty the cluster")
        return Cluster(
            nodes=self.nodes,
            gpus=remaining,
            network=self.network,
            name=name or f"{self.name}-minus-{len(removed)}gpus",
            all_gpus=self.all_gpus,
        )

    def with_gpus(self, gpu_ids: Iterable[int], name: Optional[str] = None) -> "Cluster":
        """Return a new cluster with previously removed ``gpu_ids`` revived.

        The inverse of :meth:`without_gpus`: GPUs are restored from the roster
        by their global id (capacity recovery — a spot preemption ending, a
        crashed node rejoining).  Ids must exist in the roster (``KeyError``
        otherwise) and must currently be removed (:class:`ConfigurationError`
        when asked to revive an already-alive GPU).
        """
        revived = set(gpu_ids)
        unknown = revived - set(self._roster_by_id)
        if unknown:
            raise KeyError(f"cannot revive GPU ids {sorted(unknown)}: not in the cluster roster")
        already = revived & set(self._gpu_by_id)
        if already:
            raise ConfigurationError(
                f"cannot revive GPU ids {sorted(already)}: already available"
            )
        alive = set(self._gpu_by_id) | revived
        restored = [g for g in self.all_gpus if g.gpu_id in alive]
        return Cluster(
            nodes=self.nodes,
            gpus=restored,
            network=self.network,
            name=name or f"{self.name}-plus-{len(revived)}gpus",
            all_gpus=self.all_gpus,
        )

    def with_network(self, network: NetworkModel, name: Optional[str] = None) -> "Cluster":
        """Return a copy of this cluster with its interconnect model replaced.

        Used to model network-link degradation and repair: the replacement
        matrices (typically :meth:`~repro.hardware.network.NetworkModel.scaled`
        applied to the pristine model) must cover every roster GPU id.
        """
        if network.num_gpus < self.network.num_gpus:
            raise ConfigurationError(
                "replacement network matrices are smaller than the cluster's roster"
            )
        return Cluster(
            nodes=self.nodes,
            gpus=list(self.gpus),
            network=network,
            name=name or self.name,
            all_gpus=self.all_gpus,
        )

    def restricted_to(self, gpu_ids: Iterable[int], name: Optional[str] = None) -> "Cluster":
        """Return a new cluster containing only ``gpu_ids`` (keeps global ids)."""
        keep = set(gpu_ids)
        unknown = keep - set(self._gpu_by_id)
        if unknown:
            raise KeyError(f"unknown GPU ids {sorted(unknown)}")
        selected = [g for g in self.gpus if g.gpu_id in keep]
        if not selected:
            raise ConfigurationError("restriction would produce an empty cluster")
        return Cluster(
            nodes=self.nodes,
            gpus=selected,
            network=self.network,
            name=name or f"{self.name}-subset",
            all_gpus=self.all_gpus,
        )

    def describe(self) -> str:
        """Human-readable one-line summary, e.g. ``8xA40 + 8xA6000 + ...``."""
        counts = self.type_counts()
        parts = [f"{n}x{t}" for t, n in sorted(counts.items())]
        return " + ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster({self.name!r}, {self.describe()}, ${self.price_per_hour:.3f}/hr)"


# --------------------------------------------------------------------------- helpers
def _build_cluster(
    node_specs: Sequence[tuple[str, int, float, int]],
    *,
    name: str,
    network_config: Optional[NetworkConfig] = None,
    seed: RNGLike = 0,
    jitter_intra: bool = False,
) -> Cluster:
    """Build a cluster from ``(gpu_type, num_gpus, intra_bw_gbps, datacenter)`` tuples."""
    rng = ensure_rng(seed)
    nodes: List[Node] = []
    for node_id, (gpu_type, num_gpus, intra_bw, datacenter) in enumerate(node_specs):
        bw = intra_bw
        if jitter_intra:
            bw = float(intra_bw * rng.uniform(0.85, 1.15))
        nodes.append(
            Node(
                node_id=node_id,
                gpu_type=gpu_type,
                num_gpus=num_gpus,
                intra_bandwidth_gbps=bw,
                datacenter=datacenter,
            )
        )
    gpus: List[GPU] = []
    for node in nodes:
        gpus.extend(node.build_gpus(first_gpu_id=len(gpus)))
    network = NetworkModel.from_nodes(nodes, config=network_config, seed=rng)
    return Cluster(nodes=nodes, gpus=gpus, network=network, name=name)


# --------------------------------------------------------------------------- factories
def make_cloud_cluster(seed: RNGLike = 0) -> Cluster:
    """The 32-GPU heterogeneous cloud environment of §5.1.

    Two 4xA6000 instances, two 4xA5000 instances, one 8xA40 instance and two
    4x3090Ti instances, connected by PCIe within nodes and heterogeneous Ethernet
    between nodes.  The total rental price is ≈ $13.5/hour, matching the paper's
    budget.
    """
    node_specs = [
        ("A6000", 4, 24.0, 0),
        ("A6000", 4, 24.0, 0),
        ("A5000", 4, 20.0, 0),
        ("A5000", 4, 20.0, 0),
        ("A40", 8, 28.0, 0),
        ("3090Ti", 4, 22.0, 0),
        ("3090Ti", 4, 22.0, 0),
    ]
    return _build_cluster(node_specs, name="cloud-32gpu", seed=seed, jitter_intra=True)


def make_inhouse_cluster(num_gpus: int = 8, seed: RNGLike = 0) -> Cluster:
    """The homogeneous in-house server: one node of ``num_gpus`` A100-80GB GPUs.

    Intra-node links model NVLink (~250 GB/s); there is a single node so the
    bandwidth matrix is uniformly fast, matching the right heatmap of Figure 13.
    """
    if num_gpus < 1:
        raise ConfigurationError("num_gpus must be >= 1")
    node_specs = [("A100", num_gpus, 250.0, 0)]
    config = NetworkConfig(
        intra_node_min_gbps=250.0,
        intra_node_max_gbps=250.0,
    )
    return _build_cluster(node_specs, name=f"inhouse-{num_gpus}xA100", network_config=config, seed=seed)


def make_homogeneous_cluster(
    gpu_type: str,
    num_gpus: int,
    gpus_per_node: int = 4,
    intra_bandwidth_gbps: float = 20.0,
    seed: RNGLike = 0,
    name: Optional[str] = None,
) -> Cluster:
    """A homogeneous multi-node cluster of ``num_gpus`` GPUs of one type.

    Used by the prefill:decode ratio experiments (Figures 6 and 14), which run
    LLaMA-13B on 8, 12 and 16 A5000 GPUs with two GPUs per replica.
    """
    get_gpu_spec(gpu_type)  # validate
    if num_gpus < 1 or gpus_per_node < 1:
        raise ConfigurationError("num_gpus and gpus_per_node must be >= 1")
    node_specs = []
    remaining = num_gpus
    while remaining > 0:
        n = min(gpus_per_node, remaining)
        node_specs.append((gpu_type, n, intra_bandwidth_gbps, 0))
        remaining -= n
    return _build_cluster(
        node_specs,
        name=name or f"homogeneous-{num_gpus}x{gpu_type}",
        seed=seed,
    )


def make_two_datacenter_cluster(
    inter_dc_gbps: float = 0.625,
    seed: RNGLike = 0,
) -> Cluster:
    """The Appendix H case study: one 4xA40 instance and one 4x3090Ti instance.

    With ``inter_dc_gbps ≈ 5`` GB/s (40 Gbps) the two instances are effectively in
    the same data center (Case A); with the default 0.625 GB/s (5 Gbps) they sit in
    different data centers (Case B), which makes cross-instance KV-cache transfer
    prohibitively expensive.
    """
    node_specs = [
        ("A40", 4, 28.0, 0),
        ("3090Ti", 4, 22.0, 1),
    ]
    config = NetworkConfig(inter_datacenter_gbps=inter_dc_gbps)
    return _build_cluster(
        node_specs,
        name=f"two-dc-{inter_dc_gbps:g}GBps",
        network_config=config,
        seed=seed,
    )


__all__ = [
    "Cluster",
    "make_cloud_cluster",
    "make_inhouse_cluster",
    "make_homogeneous_cluster",
    "make_two_datacenter_cluster",
]
