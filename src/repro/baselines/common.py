"""Shared interface and helpers for baseline serving systems."""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence

from repro.core.exceptions import InsufficientMemoryError, SchedulingError
from repro.core.types import Phase
from repro.costmodel.latency import CostModelParams, DEFAULT_PARAMS
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.parallelism.config import ReplicaPlan
from repro.parallelism.enumeration import deduce_parallel_plan
from repro.simulation.metrics import SimulationResult
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace


class BaselineSystem(abc.ABC):
    """A serving system that can be built for a cluster and replay a trace."""

    #: short display name used in experiment tables
    name: str = "baseline"

    def __init__(
        self,
        cluster: Cluster,
        model: ModelConfig,
        workload: WorkloadSpec,
        request_rate: float,
        params: CostModelParams = DEFAULT_PARAMS,
        seed: int = 0,
    ) -> None:
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        self.cluster = cluster
        self.model = model
        self.workload = workload
        self.request_rate = request_rate
        self.params = params
        self.seed = seed
        self._built = False

    @abc.abstractmethod
    def build(self) -> None:
        """Derive the system's deployment (replica plans, routing, ...)."""

    @abc.abstractmethod
    def serve(self, trace: Trace) -> SimulationResult:
        """Replay a request trace and return per-request metrics."""

    def ensure_built(self) -> None:
        """Build the system lazily on first use."""
        if not self._built:
            self.build()
            self._built = True

    # ------------------------------------------------------------------ helpers
    def _even_gpu_groups(self, group_size: int) -> List[List[int]]:
        """Partition the cluster's GPUs into equal node-aligned groups of ``group_size``.

        GPUs are grouped node by node so the resulting replicas never straddle a
        node unnecessarily (homogeneous in-house clusters always satisfy this).
        """
        if group_size < 1:
            raise SchedulingError("group_size must be >= 1")
        ordered: List[int] = []
        for node in self.cluster.nodes:
            ordered.extend(g.gpu_id for g in self.cluster.gpus_on_node(node.node_id))
        groups = [ordered[i : i + group_size] for i in range(0, len(ordered), group_size)]
        return [g for g in groups if len(g) == group_size]

    def _plan_for_group(self, gpu_ids: Sequence[int], phase: Phase) -> ReplicaPlan:
        """Phase-optimal parallel plan for a GPU group (shared Algorithm 2 machinery)."""
        return deduce_parallel_plan(
            self.cluster, list(gpu_ids), phase, self.model, self.workload, self.params
        )

    def smallest_feasible_group_size(self) -> int:
        """Smallest node-aligned group size able to hold the model."""
        from repro.parallelism.partition import group_can_hold_model

        max_node = max(len(self.cluster.gpus_on_node(n.node_id)) for n in self.cluster.nodes)
        for size in range(1, max_node + 1):
            groups = self._even_gpu_groups(size)
            if groups and all(
                group_can_hold_model(self.cluster, g, self.model) for g in groups
            ):
                if all(
                    self._try_plan(g) is not None for g in groups
                ):
                    return size
        raise InsufficientMemoryError("no node-aligned group size can hold the model")

    def _try_plan(self, gpu_ids: Sequence[int]) -> Optional[ReplicaPlan]:
        try:
            return self._plan_for_group(gpu_ids, Phase.DECODE)
        except InsufficientMemoryError:
            return None


__all__ = ["BaselineSystem"]
