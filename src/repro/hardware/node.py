"""Nodes (cloud instances) grouping GPUs.

A node corresponds to one rented cloud instance (e.g. a ``4xA5000`` Vast.ai
instance) or one in-house server.  GPUs within a node communicate over the node's
intra-node interconnect (PCIe on the cloud, NVLink in-house); GPUs on different
nodes communicate over Ethernet (cloud) or InfiniBand (in-house).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.exceptions import ConfigurationError
from repro.hardware.gpu import GPU, GPUSpec, get_gpu_spec


@dataclass
class Node:
    """One multi-GPU machine.

    Attributes
    ----------
    node_id:
        Index of the node within the cluster.
    gpu_type:
        GPU type name for all GPUs on this node (cloud instances are homogeneous
        within a node).
    num_gpus:
        Number of GPUs on the node.
    intra_bandwidth_gbps:
        Intra-node GPU-to-GPU bandwidth in GB/s (PCIe ~ 16-32 GB/s, NVLink ~ 200+).
    intra_latency_s:
        Intra-node link latency in seconds.
    datacenter:
        Data-center identifier; inter-node bandwidth is much lower across data
        centers (Appendix H, Figure 16).
    """

    node_id: int
    gpu_type: str
    num_gpus: int
    intra_bandwidth_gbps: float = 24.0
    intra_latency_s: float = 5e-6
    datacenter: int = 0

    def __post_init__(self) -> None:
        if self.num_gpus < 1:
            raise ConfigurationError(f"node {self.node_id}: num_gpus must be >= 1")
        if self.intra_bandwidth_gbps <= 0:
            raise ConfigurationError(f"node {self.node_id}: intra_bandwidth_gbps must be positive")
        # Validate the GPU type eagerly so misconfigured clusters fail fast.
        self.spec: GPUSpec = get_gpu_spec(self.gpu_type)

    def build_gpus(self, first_gpu_id: int) -> List[GPU]:
        """Materialise the node's GPUs with global ids starting at ``first_gpu_id``."""
        return [
            GPU(gpu_id=first_gpu_id + i, spec=self.spec, node_id=self.node_id, datacenter=self.datacenter)
            for i in range(self.num_gpus)
        ]

    @property
    def price_per_hour(self) -> float:
        """Total rental price of the node in USD/hour."""
        return self.spec.price_per_hour * self.num_gpus

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Node(id={self.node_id}, {self.num_gpus}x{self.gpu_type}, "
            f"dc={self.datacenter}, intra={self.intra_bandwidth_gbps}GB/s)"
        )


__all__ = ["Node"]
