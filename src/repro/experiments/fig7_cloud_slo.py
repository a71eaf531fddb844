"""Figure 7: SLO attainment of ThunderServe vs HexGen on the heterogeneous cloud.

For the coding and conversation workloads at several request rates, both systems
serve the same Poisson trace on the same 32-GPU cloud cluster; the experiment
reports TTFT / TPOT / E2E SLO attainment swept over SLO scales.  The paper's
headline: ThunderServe needs up to 1.8x (coding) / 1.4x (conversation) lower E2E
latency deadlines than HexGen to reach the same attainment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import (
    DEFAULT_SLO_SCALES,
    ExperimentResult,
    cloud_cluster,
    default_model,
    default_workloads,
    quick_scheduler,
    reference_for,
)
from repro.experiments.endtoend import (
    attainment_rows,
    make_trace,
    min_deadline_summary,
    run_hexgen,
    run_thunderserve,
)


#: request rates evaluated per workload (paper: coding 18/12/6, conversation 12/9/6)
DEFAULT_RATES: Dict[str, Sequence[float]] = {
    "coding": (12.0, 6.0),
    "conversation": (9.0, 6.0),
}


def run(
    model_name: str = "llama-30b",
    rates: Optional[Dict[str, Sequence[float]]] = None,
    trace_duration: float = 30.0,
    slo_scales: Sequence[float] = tuple(DEFAULT_SLO_SCALES),
    seed: int = 0,
    scheduler_steps: int = 12,
) -> ExperimentResult:
    """Attainment curves of ThunderServe and HexGen on the cloud cluster."""
    model = default_model(model_name)
    cluster = cloud_cluster(seed=seed)
    workloads = default_workloads()
    rates = rates or DEFAULT_RATES

    rows: List[List] = []
    deadlines: Dict[str, Dict[str, float]] = {}
    for workload_name, workload in workloads.items():
        reference = reference_for(model, workload)
        for rate in rates.get(workload_name, ()):
            trace = make_trace(workload, rate, trace_duration, seed + 101)
            scheduler = quick_scheduler(seed=seed, steps=scheduler_steps)
            ts_result, _plan = run_thunderserve(cluster, model, workload, rate, trace, scheduler, seed=seed)
            hex_result = run_hexgen(cluster, model, workload, rate, trace, seed=seed)
            rows += attainment_rows(ts_result, reference, slo_scales, "thunderserve", workload_name, rate)
            rows += attainment_rows(hex_result, reference, slo_scales, "hexgen", workload_name, rate)
            deadlines[f"{workload_name}@{rate:g}"] = min_deadline_summary(
                {"thunderserve": ts_result, "hexgen": hex_result}, reference, target=0.9
            )

    return ExperimentResult(
        name="Figure 7: SLO attainment vs SLO scale on the cloud (ThunderServe vs HexGen)",
        headers=["workload", "rate", "system", "slo_type", "slo_scale", "attainment"],
        rows=rows,
        notes="extras['min_deadline_90'] holds the minimum SLO scale reaching 90% E2E attainment",
        extras={"min_deadline_90": deadlines},
    )


__all__ = ["run", "DEFAULT_RATES"]
