"""GPU specifications and the catalog of GPU types used in the paper.

Table 1 of the paper lists the five cloud GPU types (A100, A6000, A5000, A40,
3090Ti) with their memory-access bandwidth, peak FP16 FLOPS, memory capacity and
hourly rental price.  Those numbers are reproduced verbatim here; the scheduler and
the roofline cost model consume nothing about a GPU beyond this specification.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.exceptions import ConfigurationError


@dataclass(frozen=True)
class GPUSpec:
    """Static specification of one GPU type.

    Attributes
    ----------
    name:
        Canonical type name (e.g. ``"A100"``).
    peak_fp16_tflops:
        Peak dense FP16 throughput in TFLOPS.
    memory_bandwidth_gbps:
        Device memory access bandwidth in GB/s.
    memory_gb:
        Device memory capacity in GB.
    price_per_hour:
        Rental price in USD per GPU-hour (Table 1).
    """

    name: str
    peak_fp16_tflops: float
    memory_bandwidth_gbps: float
    memory_gb: float
    price_per_hour: float

    def __post_init__(self) -> None:
        if self.peak_fp16_tflops <= 0:
            raise ConfigurationError(f"{self.name}: peak_fp16_tflops must be positive")
        if self.memory_bandwidth_gbps <= 0:
            raise ConfigurationError(f"{self.name}: memory_bandwidth_gbps must be positive")
        if self.memory_gb <= 0:
            raise ConfigurationError(f"{self.name}: memory_gb must be positive")
        if self.price_per_hour < 0:
            raise ConfigurationError(f"{self.name}: price_per_hour must be >= 0")

    @property
    def peak_fp16_flops(self) -> float:
        """Peak FP16 throughput in FLOP/s."""
        return self.peak_fp16_tflops * 1e12

    @property
    def memory_bandwidth_bytes(self) -> float:
        """Memory bandwidth in bytes/s."""
        return self.memory_bandwidth_gbps * 1e9

    @property
    def memory_bytes(self) -> float:
        """Memory capacity in bytes."""
        return self.memory_gb * 1e9

    @property
    def flops_per_dollar(self) -> float:
        """Peak FP16 FLOP/s per rental dollar per hour (compute cost-efficiency)."""
        return self.peak_fp16_flops / self.price_per_hour

    @property
    def bandwidth_per_dollar(self) -> float:
        """Memory bandwidth (bytes/s) per rental dollar per hour."""
        return self.memory_bandwidth_bytes / self.price_per_hour

    @property
    def ridge_point(self) -> float:
        """Roofline ridge point in FLOPs per byte.

        Workloads with arithmetic intensity below the ridge point are memory-bound
        on this GPU; above it they are compute-bound.  The decode phase sits far
        below typical ridge points, which is why high-bandwidth GPUs (3090Ti) win
        decode while high-FLOPS GPUs (A40) win prefill.
        """
        return self.peak_fp16_flops / self.memory_bandwidth_bytes


#: GPU catalog reproducing Table 1 of the paper, plus the A100 used by the in-house
#: baseline environment.
GPU_CATALOG: Dict[str, GPUSpec] = {
    "A100": GPUSpec(
        name="A100",
        peak_fp16_tflops=312.0,
        memory_bandwidth_gbps=2000.0,
        memory_gb=80.0,
        price_per_hour=1.753,
    ),
    "A6000": GPUSpec(
        name="A6000",
        peak_fp16_tflops=38.7,
        memory_bandwidth_gbps=768.0,
        memory_gb=48.0,
        price_per_hour=0.483,
    ),
    "A5000": GPUSpec(
        name="A5000",
        peak_fp16_tflops=27.8,
        memory_bandwidth_gbps=626.8,
        memory_gb=24.0,
        price_per_hour=0.223,
    ),
    "A40": GPUSpec(
        name="A40",
        peak_fp16_tflops=149.7,
        memory_bandwidth_gbps=696.0,
        memory_gb=48.0,
        price_per_hour=0.403,
    ),
    "3090Ti": GPUSpec(
        name="3090Ti",
        peak_fp16_tflops=71.0,
        memory_bandwidth_gbps=1008.0,
        memory_gb=24.0,
        price_per_hour=0.307,
    ),
}


def get_gpu_spec(name: str) -> GPUSpec:
    """Look up a GPU specification by (case-insensitive) type name."""
    key = name.strip()
    if key in GPU_CATALOG:
        return GPU_CATALOG[key]
    for cat_name, spec in GPU_CATALOG.items():
        if cat_name.lower() == key.lower():
            return spec
    raise KeyError(f"Unknown GPU type {name!r}; known types: {sorted(GPU_CATALOG)}")


@dataclass(frozen=True)
class GPU:
    """A physical GPU instance inside a cluster.

    Attributes
    ----------
    gpu_id:
        Global index within the cluster (row/column index into the bandwidth
        matrices).
    spec:
        Static :class:`GPUSpec`.
    node_id:
        Index of the node (cloud instance) hosting this GPU.
    datacenter:
        Identifier of the data center hosting the node (relevant for the cross-DC
        case study in Appendix H).
    """

    gpu_id: int
    spec: GPUSpec
    node_id: int
    datacenter: int = 0

    @property
    def type_name(self) -> str:
        """GPU type name (e.g. ``"A40"``)."""
        return self.spec.name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GPU(id={self.gpu_id}, type={self.spec.name}, node={self.node_id})"


__all__ = ["GPUSpec", "GPU", "GPU_CATALOG", "get_gpu_spec"]
