"""Shared helpers for the end-to-end system comparisons (Figures 7, 8, 9, 11, 12).

Each helper builds one serving system (ThunderServe or a baseline), replays a
trace, and returns the :class:`SimulationResult`; the figure modules turn those
results into attainment curves or throughput bars.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.baselines.distserve import DistServeBaseline
from repro.baselines.hexgen import HexGenBaseline
from repro.baselines.vllm import VLLMBaseline
from repro.core.types import SLOType
from repro.costmodel.reference import ReferenceLatency
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.scheduler import Scheduler
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import SimulationResult
from repro.workload.generator import generate_requests
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace


def make_trace(workload: WorkloadSpec, rate: float, duration: float, seed: int) -> Trace:
    """Poisson trace for one (workload, rate) evaluation point."""
    return generate_requests(workload, rate, duration=duration, seed=seed)


def run_thunderserve(
    cluster: Cluster,
    model: ModelConfig,
    workload: WorkloadSpec,
    rate: float,
    trace: Trace,
    scheduler: Scheduler,
    seed: int = 0,
    slo_scale_for_planning: float = 5.0,
) -> Tuple[SimulationResult, DeploymentPlan]:
    """Schedule ThunderServe on the cluster and replay the trace."""
    slo = scheduler.default_slo(model, workload, scale=slo_scale_for_planning)
    schedule = scheduler.schedule(cluster, model, workload, rate, slo, seed=seed)
    simulator = ServingSimulator(cluster, schedule.plan, model, config=SimulatorConfig(seed=seed))
    return simulator.run(trace, label="thunderserve"), schedule.plan


def run_hexgen(
    cluster: Cluster,
    model: ModelConfig,
    workload: WorkloadSpec,
    rate: float,
    trace: Trace,
    seed: int = 0,
) -> SimulationResult:
    """HexGen-like baseline on the heterogeneous cloud cluster."""
    baseline = HexGenBaseline(cluster, model, workload, rate, seed=seed)
    return baseline.serve(trace)


def run_distserve(
    cluster: Cluster,
    model: ModelConfig,
    workload: WorkloadSpec,
    rate: float,
    trace: Trace,
    seed: int = 0,
) -> SimulationResult:
    """DistServe-like baseline on the homogeneous in-house cluster."""
    baseline = DistServeBaseline(cluster, model, workload, rate, seed=seed)
    return baseline.serve(trace)


def run_vllm(
    cluster: Cluster,
    model: ModelConfig,
    workload: WorkloadSpec,
    rate: float,
    trace: Trace,
    seed: int = 0,
) -> SimulationResult:
    """vLLM-like baseline on the homogeneous in-house cluster."""
    baseline = VLLMBaseline(cluster, model, workload, rate, seed=seed)
    return baseline.serve(trace)


def attainment_rows(
    result: SimulationResult,
    reference: ReferenceLatency,
    slo_scales: Sequence[float],
    system: str,
    workload_name: str,
    rate: float,
    slo_types: Iterable[SLOType] = (SLOType.E2E, SLOType.TTFT, SLOType.TPOT),
) -> List[List]:
    """Rows ``[workload, rate, system, slo_type, scale, attainment]`` for one run."""
    rows: List[List] = []
    for slo_type in slo_types:
        for scale in slo_scales:
            attainment = result.slo_attainment(reference.slo_spec(scale), slo_type)
            rows.append([workload_name, rate, system, slo_type.value, scale, attainment])
    return rows


def min_deadline_summary(
    results: Dict[str, SimulationResult],
    reference: ReferenceLatency,
    target: float = 0.9,
    slo_type: SLOType = SLOType.E2E,
) -> Dict[str, float]:
    """Minimum SLO scale reaching ``target`` attainment for each system."""
    return {
        name: result.min_scale_for_attainment(target, reference, slo_type)
        for name, result in results.items()
    }


__all__ = [
    "make_trace",
    "run_thunderserve",
    "run_hexgen",
    "run_distserve",
    "run_vllm",
    "attainment_rows",
    "min_deadline_summary",
]
