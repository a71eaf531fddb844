"""Shared plumbing for experiment modules."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.costmodel.reference import ReferenceLatency, a100_reference_latency
from repro.hardware.cluster import Cluster, make_cloud_cluster, make_inhouse_cluster
from repro.model.architecture import ModelConfig, get_model_config
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.utils.tables import format_table
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD, WorkloadSpec


@dataclass
class ExperimentResult:
    """Structured output of one experiment (ready to print as a text table)."""

    name: str
    headers: List[str]
    rows: List[List[Any]]
    notes: str = ""
    #: free-form extra artefacts (matrices, plans, curves) for downstream use
    extras: Dict[str, Any] = field(default_factory=dict)

    def to_table(self, precision: int = 3) -> str:
        """Render the rows as an aligned text table."""
        table = format_table(self.headers, self.rows, precision=precision, title=self.name)
        if self.notes:
            table += f"\n({self.notes})"
        return table

    def column(self, header: str) -> List[Any]:
        """Extract one column by header name."""
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.to_table()


# --------------------------------------------------------------------------- defaults
#: SLO scales the experiments sweep when none are specified.
DEFAULT_SLO_SCALES = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0]


def default_model(name: str = "llama-30b") -> ModelConfig:
    """The evaluation model (LLaMA-30B unless an experiment says otherwise)."""
    return get_model_config(name)


def default_workloads() -> Dict[str, WorkloadSpec]:
    """The paper's two workloads keyed by name."""
    return {"coding": CODING_WORKLOAD, "conversation": CONVERSATION_WORKLOAD}


def reference_for(model: ModelConfig, workload: WorkloadSpec) -> ReferenceLatency:
    """A100 reference latencies anchoring SLO scales for a workload."""
    return a100_reference_latency(model, workload)


def quick_scheduler(seed: int = 0, steps: int = 12, neighbors: int = 5, kv_bits: int = 4) -> Scheduler:
    """A scheduler with a reduced tabu budget for experiment-sized runs.

    The full Algorithm-1 budget (100 steps x 10 neighbours) is what the Figure 10
    convergence experiment measures; the end-to-end experiments use a smaller
    budget because the search has typically converged long before it is exhausted.
    """
    config = SchedulerConfig(
        tabu=TabuSearchConfig(num_steps=steps, num_neighbors=neighbors, memory_size=5, patience=8),
        kv_transport_bits=kv_bits,
        seed=seed,
    )
    return Scheduler(config)


def cloud_cluster(seed: int = 0) -> Cluster:
    """The 32-GPU heterogeneous cloud environment of §5.1."""
    return make_cloud_cluster(seed=seed)


def inhouse_cluster() -> Cluster:
    """The 8xA100 in-house environment of §5.1."""
    return make_inhouse_cluster()


def fixed_ratio_plan(
    cluster: Cluster,
    model: ModelConfig,
    workload: WorkloadSpec,
    request_rate: float,
    num_prefill: int,
    num_decode: int,
    gpus_per_replica: int,
    slo_scale: float = 5.0,
    kv_transport_bits: int = 4,
):
    """Build a deployment plan with a *fixed* prefill:decode replica ratio.

    Used by the Figure 6 / Figure 14 experiments, which sweep the ratio by hand
    (group construction is fixed to consecutive ``gpus_per_replica``-sized groups)
    and let the lower-level solver deduce parallel plans and the orchestration.
    Returns ``(plan, lower_level_result)``.
    """
    from repro.core.types import Phase
    from repro.scheduling.lower_level import LowerLevelSolver
    from repro.scheduling.solution import UpperLevelSolution

    total = (num_prefill + num_decode) * gpus_per_replica
    gpu_ids = cluster.gpu_ids
    if total > len(gpu_ids):
        raise ValueError(
            f"ratio {num_prefill}:{num_decode} with {gpus_per_replica} GPUs/replica needs "
            f"{total} GPUs but the cluster has {len(gpu_ids)}"
        )
    groups = [
        gpu_ids[i * gpus_per_replica : (i + 1) * gpus_per_replica]
        for i in range(num_prefill + num_decode)
    ]
    phases = [Phase.PREFILL] * num_prefill + [Phase.DECODE] * num_decode
    solution = UpperLevelSolution.from_lists(list(zip(groups, phases)))
    slo = reference_for(model, workload).slo_spec(slo_scale)
    solver = LowerLevelSolver(
        cluster=cluster,
        model=model,
        workload=workload,
        slo=slo,
        request_rate=request_rate,
        kv_transport_bits=kv_transport_bits,
    )
    result = solver.solve(solution)
    if not result.feasible or result.plan is None:
        raise ValueError(f"ratio {num_prefill}:{num_decode} is infeasible on {cluster.name}")
    return result.plan, result


__all__ = [
    "ExperimentResult",
    "DEFAULT_SLO_SCALES",
    "default_model",
    "default_workloads",
    "reference_for",
    "quick_scheduler",
    "cloud_cluster",
    "inhouse_cluster",
    "fixed_ratio_plan",
]
