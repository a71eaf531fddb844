"""repro — a Python reproduction of ThunderServe (MLSys 2025).

ThunderServe is a high-performance and cost-efficient LLM serving system for
heterogeneous cloud environments.  This package reproduces the full system on a
simulated substrate:

* :mod:`repro.hardware` — heterogeneous GPU cluster substrate (GPU specs, nodes,
  instances, network bandwidth matrices, pricing).
* :mod:`repro.model` — transformer architecture configurations and memory / FLOPs
  accounting.
* :mod:`repro.workload` — coding / conversation workload generators (Poisson
  arrivals, synthetic Azure-like length distributions) and the online workload
  profiler.
* :mod:`repro.costmodel` — roofline latency model, alpha-beta network model, KV
  transfer costs and $-per-request accounting.
* :mod:`repro.parallelism` — tensor / pipeline parallel configuration, non-uniform
  pipeline partitioning and DP-based pipeline communication routing.
* :mod:`repro.kvcache` — paged KV cache manager and int4/int8 transport
  quantization codec.
* :mod:`repro.scheduling` — the paper's primary contribution: the two-level
  scheduling algorithm (tabu search over group construction and phase designation,
  parallel configuration deduction, two-stage-transportation orchestration) and the
  lightweight rescheduler.
* :mod:`repro.simulation` — discrete-event serving simulator used both inside the
  scheduler and as the evaluation testbed.
* :mod:`repro.serving` — the ThunderServe runtime facade (monitor, rescheduling,
  the live serving loop); the engine routes each request by sampling the plan's
  ``X`` / ``Y`` orchestration.
* :mod:`repro.scenarios` — named workload scenarios (diurnal, bursty, RAG,
  agentic mix, multi-tenant SLO tiers, spot preemption) and the
  cross-scenario sweep runner.
* :mod:`repro.baselines` — HexGen-like, DistServe-like and vLLM-like baselines.
* :mod:`repro.quality` — tiny NumPy transformer used to evaluate KV transport
  quantization quality.
* :mod:`repro.experiments` — one module per paper table / figure.
"""

from repro.core.types import Phase, Request, RequestMetrics, SLOSpec, SLOType
from repro.hardware.gpu import GPUSpec, GPU_CATALOG
from repro.hardware.cluster import (
    Cluster,
    make_cloud_cluster,
    make_homogeneous_cluster,
    make_inhouse_cluster,
    make_two_datacenter_cluster,
)
from repro.model.architecture import ModelConfig, MODEL_CATALOG, get_model_config
from repro.workload.spec import WorkloadSpec, CODING_WORKLOAD, CONVERSATION_WORKLOAD
from repro.parallelism.config import ParallelConfig, ReplicaPlan

__version__ = "0.1.0"

__all__ = [
    "Phase",
    "Request",
    "RequestMetrics",
    "SLOSpec",
    "SLOType",
    "GPUSpec",
    "GPU_CATALOG",
    "Cluster",
    "make_cloud_cluster",
    "make_homogeneous_cluster",
    "make_inhouse_cluster",
    "make_two_datacenter_cluster",
    "ModelConfig",
    "MODEL_CATALOG",
    "get_model_config",
    "WorkloadSpec",
    "CODING_WORKLOAD",
    "CONVERSATION_WORKLOAD",
    "ParallelConfig",
    "ReplicaPlan",
    "__version__",
]

# The higher-level subsystems (scheduling, simulation, serving, baselines,
# experiments) are imported lazily on attribute access so that importing the
# package root stays cheap; ``from repro.scheduling import ...`` style imports are
# the canonical way to reach them.


def __getattr__(name: str):  # pragma: no cover - thin convenience shim
    if name in {"Scheduler", "SchedulerConfig"}:
        from repro.scheduling.scheduler import Scheduler, SchedulerConfig

        return {"Scheduler": Scheduler, "SchedulerConfig": SchedulerConfig}[name]
    if name in {"DeploymentPlan", "ServingGroup"}:
        from repro.scheduling.deployment import DeploymentPlan, ServingGroup

        return {"DeploymentPlan": DeploymentPlan, "ServingGroup": ServingGroup}[name]
    if name == "ThunderServe":
        from repro.serving.system import ThunderServe

        return ThunderServe
    if name in {"ScenarioSweep", "Scenario"}:
        from repro.scenarios import Scenario, ScenarioSweep

        return {"ScenarioSweep": ScenarioSweep, "Scenario": Scenario}[name]
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
