"""Metric definitions: what each metric is, its unit, and how a pass yields it.

End-to-end metrics come from an untraced pass; per-layer metrics from a
traced pass and its span table.  ``LIVE_ONLY`` lists the per-layer metrics of
layers the stream workloads bypass: there they read 0 and are reported as
not applicable.
"""

from __future__ import annotations

import resource
import statistics
from typing import Dict, List, Tuple

import numpy as np

from repro.core.types import OUTCOME_NAMES
from repro.scheduling.rescheduling import ReschedulingOverheadModel

from pipeline import Pass, served_metrics
from tracing import SpanTable, Tracer

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "schedule_s": ("s", "lower"),
    "sim_req_per_s": ("1/s", "higher"),
    "live_s_per_sim_hour": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "slo_attainment": ("share", "higher"),
    "ttft_p50_s": ("s", "lower"),
    "ttft_p99_s": ("s", "lower"),
    "tpot_p50_s": ("s", "lower"),
    "tpot_p99_s": ("s", "lower"),
    "max_rate_req_s": ("req/s", "higher"),
    "min_slo_scale": ("x", "lower"),
    "succeeded_share": ("share", "higher"),
}
END_TO_END_UNITS = {name: unit for name, (unit, _) in END_TO_END.items()}

#: name -> unit, grouped by the ``src/repro`` layer the name starts with
PER_LAYER = {
    "workload.gen_s": "s",
    "workload.requests": "count",
    "scheduling.tabu_s": "s",
    "scheduling.neighbors_s": "s",
    "scheduling.neighbors_calls": "count",
    "scheduling.lower_evals": "count",
    "scheduling.lower_eval_s": "s",
    "scheduling.orchestration_calls": "count",
    "scheduling.orchestration_s": "s",
    "scheduling.estimator_builds": "count",
    "scheduling.estimator_build_s": "s",
    "scheduling.attainment_matrix_calls": "count",
    "scheduling.attainment_matrix_s": "s",
    "scheduling.replans": "count",
    "scheduling.replan_p50_s": "s",
    "scheduling.replan_max_s": "s",
    "scheduling.replan_lightweight_p50_s": "s",
    "scheduling.replan_full_p50_s": "s",
    "scheduling.replan_full_over_lightweight": "x",
    "scheduling.replan_sim_mean_s": "s",
    "scheduling.est_attainment": "share",
    "scheduling.estimator_gap": "share",
    "hardware.bandwidth_calls": "count",
    "hardware.bandwidth_s": "s",
    "costmodel.prefill_grid_calls": "count",
    "costmodel.prefill_grid_calls_per_req": "count/req",
    "costmodel.prefill_grid_s": "s",
    "costmodel.decode_grid_calls": "count",
    "costmodel.decode_memo_calls": "count",
    "costmodel.decode_s": "s",
    "costmodel.decode_scalar_calls": "count",
    "simulation.runs": "count",
    "simulation.run_s": "s",
    "simulation.inits": "count",
    "simulation.init_s": "s",
    "simulation.engine_self_s": "s",
    "simulation.queue_wait_mean_s": "s",
    "simulation.queue_wait_p99_s": "s",
    "simulation.prefill_mean_s": "s",
    "simulation.kv_transfer_mean_s": "s",
    "simulation.decode_mean_s": "s",
    "simulation.prefill_batch_mean": "req/batch",
    "simulation.makespan_over_span": "x",
    **{f"simulation.{name}": "count" for name in OUTCOME_NAMES},
    "serving.windows": "count",
    "serving.plan_health_s": "s",
    "serving.serve_s": "s",
    "serving.shadow_runs": "count",
    "serving.shadow_s": "s",
    "serving.slo_eval_s": "s",
    "serving.loop_self_s": "s",
    "serving.plan_changes": "count",
    "serving.breaches": "count",
    "serving.window_attainment_mean": "share",
    "serving.worst_window_attainment": "share",
    "faults.events": "count",
    "faults.compile_s": "s",
    "trace.overhead": "share",
}

#: per-layer metrics of the live loop, its replans and its fault storm
LIVE_ONLY = tuple(
    name
    for name in PER_LAYER
    if name.startswith(("serving.", "faults.", "scheduling.replan"))
)

#: the paper's Table 4: full rescheduling 157 s (search + parameter reload)
#: against lightweight 13 s (search only)
TABLE4_FULL_S, TABLE4_LIGHTWEIGHT_S = 157.0, 13.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(p: Pass, setup_samples: List[Tuple[float, float]]) -> Dict[str, float]:
    """The end-to-end metrics of an untraced full pass (set-up: raw, corrected pairs)."""
    wall = p.best_wall_s
    return {
        "setup_s": statistics.median(corrected for _, corrected in setup_samples),
        "schedule_s": p.schedule_s,
        "sim_req_per_s": p.main_requests / wall,
        "live_s_per_sim_hour": wall * 3600.0 / p.main_sim_s,
        "peak_rss_mb": peak_rss_mb(),
        **served_metrics(p),
        "max_rate_req_s": p.max_rate,
    }


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else 0.0


def per_layer(p: Pass, tracer: Tracer, overhead: float) -> Dict[str, float]:
    """The per-layer metrics of a traced pass."""
    t = SpanTable(tracer)
    sim_runs = t.mask("simulation.run", "simulation.shadow_run")
    in_sim = t.within(sim_runs)
    engine_children = t.topmost("costmodel.", "workload.gen") & in_sim
    live_runs = t.mask("serving.live")
    in_live = t.within(live_runs)
    replans = t.durations("scheduling.replan.")
    light = t.durations("scheduling.replan.lightweight")
    full = t.durations("scheduling.replan.full")

    served = p.served
    a = served.arrays
    fin = a.finished
    queue = (a.prefill_start - a.arrival_time)[fin]
    batches = len(set(zip(a.prefill_replica[fin].tolist(), a.prefill_start[fin].tolist())))
    summary = served.summary()
    outcomes = p.ledger("live").outcomes if p.live is not None else served.outcome_counts()
    live = p.live

    m = {
        "workload.gen_s": t.time("workload.gen"),
        "workload.requests": tracer.generated_rows,
        "scheduling.tabu_s": t.time("scheduling.tabu"),
        "scheduling.neighbors_s": t.time("scheduling.neighbors"),
        "scheduling.neighbors_calls": t.count("scheduling.neighbors"),
        "scheduling.lower_evals": t.count("scheduling.lower_solve"),
        "scheduling.lower_eval_s": t.time("scheduling.lower_"),
        "scheduling.orchestration_calls": t.count("scheduling.orchestration"),
        "scheduling.orchestration_s": t.time("scheduling.orchestration"),
        "scheduling.estimator_builds": t.count("scheduling.estimator_build"),
        "scheduling.estimator_build_s": t.time("scheduling.estimator_build"),
        "scheduling.attainment_matrix_calls": t.count("scheduling.attainment_matrix"),
        "scheduling.attainment_matrix_s": t.time("scheduling.attainment_matrix"),
        "scheduling.replans": int(replans.size),
        "scheduling.replan_p50_s": _median(replans),
        "scheduling.replan_max_s": float(replans.max()) if replans.size else 0.0,
        "scheduling.replan_lightweight_p50_s": _median(light),
        "scheduling.replan_full_p50_s": _median(full),
        "scheduling.replan_full_over_lightweight": (
            _median(full) / _median(light) if light.size and full.size else 0.0
        ),
        "scheduling.replan_sim_mean_s": (
            live.fault_stats()["mean_time_to_replan_s"] if live is not None else 0.0
        ),
        "scheduling.est_attainment": p.est_attainment,
        "scheduling.estimator_gap": p.est_attainment - served.slo_attainment(p.system.slo),
        "hardware.bandwidth_calls": t.count("hardware.bandwidth"),
        "hardware.bandwidth_s": t.time("hardware.bandwidth"),
        "costmodel.prefill_grid_calls": t.count("costmodel.prefill_"),
        "costmodel.prefill_grid_calls_per_req": (
            int(np.count_nonzero(t.mask("costmodel.prefill_") & in_sim))
            / max(tracer.simulated_requests, 1)
        ),
        "costmodel.prefill_grid_s": t.time("costmodel.prefill_"),
        "costmodel.decode_grid_calls": t.count("costmodel.decode_grid"),
        "costmodel.decode_memo_calls": t.count("costmodel.decode_memo"),
        "costmodel.decode_s": t.time("costmodel.decode_grid", "costmodel.decode_memo"),
        "costmodel.decode_scalar_calls": t.count("costmodel.decode_scalar"),
        "simulation.runs": int(np.count_nonzero(sim_runs)),
        "simulation.run_s": float(t.duration[sim_runs].sum()),
        "simulation.inits": t.count("simulation.init"),
        "simulation.init_s": t.time("simulation.init"),
        "simulation.engine_self_s": t.self_time(sim_runs, engine_children),
        "simulation.queue_wait_mean_s": summary["mean_queue"],
        "simulation.queue_wait_p99_s": float(np.percentile(queue, 99)),
        "simulation.prefill_mean_s": summary["mean_prefill"],
        "simulation.kv_transfer_mean_s": summary["mean_kv_transfer"],
        "simulation.decode_mean_s": summary["mean_decode"],
        "simulation.prefill_batch_mean": int(np.count_nonzero(fin)) / max(batches, 1),
        "simulation.makespan_over_span": served.makespan / served.trace_duration,
        **{f"simulation.{name}": int(outcomes.get(name, 0)) for name in OUTCOME_NAMES},
        "serving.windows": len(live.windows) if live is not None else 0,
        "serving.plan_health_s": t.time("serving.plan_health"),
        "serving.serve_s": float(t.duration[t.mask("serving.serve") & in_live].sum()),
        "serving.shadow_runs": t.count("simulation.shadow_run"),
        "serving.shadow_s": t.time("simulation.shadow_run"),
        "serving.slo_eval_s": t.time("serving.slo_eval"),
        "serving.loop_self_s": t.self_time(live_runs) if live is not None else 0.0,
        "serving.plan_changes": live.num_plan_changes if live is not None else 0,
        "serving.breaches": len(live.breaches) if live is not None else 0,
        "serving.window_attainment_mean": (
            float(np.mean([w.attainment_e2e for w in live.windows])) if live is not None else 0.0
        ),
        "serving.worst_window_attainment": (
            live.worst_window_attainment() if live is not None else 0.0
        ),
        "faults.events": p.storm_events,
        "faults.compile_s": t.time("faults.compile"),
        "trace.overhead": overhead,
    }
    assert set(m) == set(PER_LAYER), set(m) ^ set(PER_LAYER)
    return m


def table4_note(m: Dict[str, float]) -> str:
    """Measured replan wall times beside the paper's Table 4 and the in-tree figure."""
    model = ReschedulingOverheadModel()
    return (
        f"replan wall time: lightweight p50 {m['scheduling.replan_lightweight_p50_s']:.3f} s, "
        f"full p50 {m['scheduling.replan_full_p50_s']:.3f} s, "
        f"full/lightweight x{m['scheduling.replan_full_over_lightweight']:.2f} (search only); "
        f"paper Table 4: full {TABLE4_FULL_S:.0f} s vs lightweight {TABLE4_LIGHTWEIGHT_S:.0f} s "
        f"(x{TABLE4_FULL_S / TABLE4_LIGHTWEIGHT_S:.1f} with reload; search only "
        f"{model.full_search_seconds_32gpu:.0f} s vs {model.lightweight_search_seconds:.0f} s, "
        f"x{model.full_search_seconds_32gpu / model.lightweight_search_seconds:.1f}); "
        f"in-tree fault_stats mean_time_to_replan_s = "
        f"{m['scheduling.replan_sim_mean_s']:.3f} (simulated seconds, not wall)"
    )
