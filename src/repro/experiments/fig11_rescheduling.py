"""Figure 11 / Appendix G: serving quality after GPUs go offline.

Four out of the 32 cloud GPUs (one 4xA6000 instance, which the scheduler typically
uses for decode replicas) become unavailable.  The experiment compares the SLO
attainment of the original deployment against three reactions: full rescheduling
(re-run the whole scheduler on the surviving GPUs), ThunderServe's lightweight
rescheduling (flip-only phase re-designation + re-orchestration, no reloads), and
no rescheduling at all (just drop the lost replicas).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.types import SLOType
from repro.experiments.common import (
    ExperimentResult,
    cloud_cluster,
    default_model,
    default_workloads,
    quick_scheduler,
    reference_for,
)
from repro.experiments.endtoend import make_trace
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.rescheduling import LightweightRescheduler
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import SimulationResult


def _simulate(cluster, plan, model, trace, seed) -> SimulationResult:
    """Serve ``trace`` on ``plan``; a plan missing a phase serves nothing.

    Dropping the failed node can take a workload's only decode (or prefill)
    groups with it.  That strategy then serves no request, which is scored
    as every request dropped, not as an error that ends the experiment.
    """
    if not plan.prefill_groups or not plan.decode_groups:
        return SimulationResult.dropped(trace, makespan=trace.duration)
    simulator = ServingSimulator(cluster, plan, model, config=SimulatorConfig(seed=seed))
    return simulator.run(trace)


def run(
    model_name: str = "llama-30b",
    rates: Optional[Dict[str, float]] = None,
    trace_duration: float = 25.0,
    slo_scales: Sequence[float] = (2.0, 3.0, 4.0, 6.0, 8.0, 12.0),
    seed: int = 0,
    scheduler_steps: int = 12,
    workload_names: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    """Attainment before the failure and after it under each rescheduling strategy."""
    model = default_model(model_name)
    cluster = cloud_cluster(seed=seed)
    workloads = default_workloads()
    if workload_names is not None:
        workloads = {k: v for k, v in workloads.items() if k in set(workload_names)}
    rates = rates or {"coding": 9.0, "conversation": 6.0}

    # The failed instance: one whole 4xA6000 node.
    failed_node = next(n for n in cluster.nodes if n.gpu_type == "A6000")
    failed_gpu_ids = [g.gpu_id for g in cluster.gpus_on_node(failed_node.node_id)]
    degraded = cluster.without_gpus(failed_gpu_ids)

    rows: List[List] = []
    for workload_name, workload in workloads.items():
        rate = rates[workload_name]
        reference = reference_for(model, workload)
        trace = make_trace(workload, rate, trace_duration, seed + 409)

        scheduler = quick_scheduler(seed=seed, steps=scheduler_steps)
        slo = scheduler.default_slo(model, workload)
        original = scheduler.schedule(cluster, model, workload, rate, slo, seed=seed).plan

        # Strategy 1: full rescheduling from scratch on the surviving GPUs.
        full_plan = quick_scheduler(seed=seed + 1, steps=scheduler_steps).schedule(
            degraded, model, workload, rate, slo, seed=seed + 1
        ).plan
        # Strategy 2: lightweight rescheduling (keep plans, flip phases, re-orchestrate).
        light_plan = LightweightRescheduler(seed=seed).reschedule(
            original, degraded, model, workload, rate, slo
        ).plan
        # Strategy 3: no rescheduling — drop the groups that lost GPUs.
        surviving = [g for g in original.groups if not (set(g.gpu_ids) & set(failed_gpu_ids))]
        none_plan = DeploymentPlan(
            groups=tuple(surviving),
            routing=None,
            model_name=original.model_name,
            kv_transport_bits=original.kv_transport_bits,
        )

        runs = {
            "before_failure": _simulate(cluster, original, model, trace, seed),
            "full_rescheduling": _simulate(degraded, full_plan, model, trace, seed),
            "lightweight_rescheduling": _simulate(degraded, light_plan, model, trace, seed),
            "no_rescheduling": _simulate(degraded, none_plan, model, trace, seed),
        }
        for strategy, result in runs.items():
            for scale in slo_scales:
                attainment = result.slo_attainment(reference.slo_spec(scale), SLOType.E2E)
                rows.append([workload_name, strategy, scale, attainment])

    return ExperimentResult(
        name="Figure 11: SLO attainment after 4 of 32 GPUs go offline",
        headers=["workload", "strategy", "slo_scale", "e2e_attainment"],
        rows=rows,
        notes=(
            "paper: lightweight rescheduling ~ full rescheduling > no rescheduling, "
            "with near-zero interruption"
        ),
        extras={"failed_gpu_ids": failed_gpu_ids},
    )


__all__ = ["run"]
