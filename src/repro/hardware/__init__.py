"""Heterogeneous GPU cluster substrate.

This subpackage replaces the physical clusters used by the paper (rented Vast.ai
instances and an in-house 8xA100 server) with an explicit, fully-specified model:

* :mod:`repro.hardware.gpu` — per-GPU specifications (Table 1 of the paper).
* :mod:`repro.hardware.node` — nodes / cloud instances grouping GPUs.
* :mod:`repro.hardware.network` — pairwise alpha-beta network model (latency +
  bandwidth matrices) for cloud and in-house topologies (Figure 13).
* :mod:`repro.hardware.cluster` — the :class:`Cluster` aggregate plus factory
  functions for the exact hardware environments of §5.1.
* :mod:`repro.hardware.pricing` — rental-price accounting used by the
  cost-efficiency comparisons.
"""

from repro.hardware.gpu import GPU, GPUSpec, GPU_CATALOG, get_gpu_spec
from repro.hardware.node import Node
from repro.hardware.network import NetworkModel, LinkClass
from repro.hardware.cluster import (
    Cluster,
    make_cloud_cluster,
    make_inhouse_cluster,
    make_homogeneous_cluster,
    make_two_datacenter_cluster,
)
from repro.hardware.pricing import cluster_price_per_hour

__all__ = [
    "GPU",
    "GPUSpec",
    "GPU_CATALOG",
    "get_gpu_spec",
    "Node",
    "NetworkModel",
    "LinkClass",
    "Cluster",
    "make_cloud_cluster",
    "make_inhouse_cluster",
    "make_homogeneous_cluster",
    "make_two_datacenter_cluster",
    "cluster_price_per_hour",
]
