"""Figure 10: convergence of the scheduling algorithm for different cluster sizes.

The tabu search is run from scratch on 16-, 24- and 32-GPU subsets of the cloud
environment; the experiment records the best estimated SLO attainment as a
function of wall-clock search time.  The paper's observation: the search converges
within tens of seconds even at 32 GPUs, which is negligible against hourly-scale
serving.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.experiments.common import ExperimentResult, cloud_cluster, default_model
from repro.scheduling.scheduler import SchedulerConfig, Scheduler
from repro.scheduling.tabu import TabuSearchConfig
from repro.workload.spec import CONVERSATION_WORKLOAD


def _subcluster(cluster, num_gpus: int):
    """Take the first ``num_gpus`` GPUs (whole nodes first) of the cloud cluster."""
    ids = cluster.gpu_ids[:num_gpus]
    return cluster.restricted_to(ids, name=f"cloud-{num_gpus}gpu")


def run(
    model_name: str = "llama-30b",
    cluster_sizes: Sequence[int] = (16, 24, 32),
    request_rate: float = 9.0,
    num_steps: int = 25,
    num_neighbors: int = 6,
    seed: int = 0,
) -> ExperimentResult:
    """Tabu-search convergence traces (time vs best objective) per cluster size."""
    model = default_model(model_name)
    cloud = cloud_cluster(seed=seed)
    workload = CONVERSATION_WORKLOAD

    rows: List[List] = []  # objective includes the small served-capacity bonus
    converge_times = {}
    for size in cluster_sizes:
        cluster = _subcluster(cloud, size)
        config = SchedulerConfig(
            tabu=TabuSearchConfig(
                num_steps=num_steps, num_neighbors=num_neighbors, memory_size=5, patience=0
            ),
            seed=seed,
        )
        scheduler = Scheduler(config)
        result = scheduler.schedule(cluster, model, workload, request_rate)
        history = result.trace.best_curve()
        final_best = history[-1][1] if history else float("nan")
        converge_time = None
        for elapsed, best in history:
            rows.append([size, elapsed, best * 100.0])
            if converge_time is None and final_best > 0 and best >= 0.99 * final_best:
                converge_time = elapsed
        converge_times[size] = converge_time if converge_time is not None else float("nan")

    notes = "; ".join(
        f"{size} GPUs converge in {t:.1f}s" for size, t in converge_times.items()
    )
    return ExperimentResult(
        name="Figure 10: scheduler convergence (estimated SLO % vs search time)",
        headers=["num_gpus", "search_time_s", "estimated_slo_percent"],
        rows=rows,
        notes=notes + " (paper: 21s / 36s / 54s for 16 / 24 / 32 GPUs)",
        extras={"convergence_time_s": converge_times},
    )


__all__ = ["run"]
