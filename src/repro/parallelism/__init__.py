"""Model-parallel configuration: TP/PP degrees, pipeline partitioning and routing.

* :mod:`repro.parallelism.config` — :class:`ParallelConfig` (TP × PP degrees),
  :class:`PipelineStage` and :class:`ReplicaPlan` (the concrete mapping of pipeline
  stages to GPU sets and layer ranges).
* :mod:`repro.parallelism.partition` — non-uniform pipeline layer partitioning that
  respects per-GPU memory limits and balances stage work across heterogeneous GPUs.
* :mod:`repro.parallelism.routing` — the bitmask dynamic program of Appendix B that
  orders pipeline stages to maximise the bottleneck inter-stage bandwidth.
* :mod:`repro.parallelism.enumeration` — Algorithm 2: enumerate (TP, PP) candidates
  for a serving group and pick the latency-optimal (prefill) or throughput-optimal
  (decode) plan.
"""

from repro.parallelism.config import ParallelConfig, PipelineStage, ReplicaPlan
from repro.parallelism.partition import partition_layers, stage_weight
from repro.parallelism.routing import optimal_stage_order
from repro.parallelism.enumeration import (
    enumerate_parallel_plans,
    deduce_parallel_plan,
    candidate_stage_groups,
)

__all__ = [
    "ParallelConfig",
    "PipelineStage",
    "ReplicaPlan",
    "partition_layers",
    "stage_weight",
    "optimal_stage_order",
    "enumerate_parallel_plans",
    "deduce_parallel_plan",
    "candidate_stage_groups",
]
