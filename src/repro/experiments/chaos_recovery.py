"""Fault-aware adaptive serving vs. a static plan under a seeded fault storm.

The robustness claim of §3.4 is not just that lightweight rescheduling is
cheap (Table 4) — it is that the serving loop *survives* the full failure
lifecycle: capacity loss degrades the plan, the rescheduler flips the
surviving GPUs into a servable configuration, and when the preempted
instances rejoin, a full replan re-expands onto the recovered capacity.
This harness measures what that lifecycle buys against a static plan that
merely sheds dead groups.

A seeded :class:`~repro.faults.injector.FaultInjector` compiles a fault
storm — a node crash with paired rejoin, spot GPU preemptions and a WAN
link degradation — into one deterministic
:class:`~repro.faults.taxonomy.FaultSchedule`.  Two serving modes then
replay the *same* trace under the *same* schedule on identical window
grids:

* ``static``   — all rescheduling disabled.  Dead groups are dropped
  (mode ``"none"``), surviving groups keep the stale routing, and rejoined
  GPUs sit idle: the plan never re-expands.
* ``adaptive`` — capacity loss triggers the §3.4 flip-only rescheduler
  (falling back to drop-dead-groups when even that fails), rejoin triggers
  a shadow-validated full replan, and SLO breaches/shifts trigger the
  normal online loop.

Because both modes consume the identical compiled schedule, the comparison
isolates the recovery policy; determinism of the injector makes the whole
experiment bitwise replayable (the chaos CI gate rests on that).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import ExperimentResult, default_model
from repro.faults import FaultInjector, FaultProcess, FaultKind, FaultSchedule
from repro.hardware.cluster import make_cloud_cluster, make_two_datacenter_cluster
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServeReport, LiveServer
from repro.serving.system import ThunderServe
from repro.workload.generator import generate_requests
from repro.workload.spec import CODING_WORKLOAD, WorkloadSpec


_CLUSTERS = {
    "cloud": lambda seed: make_cloud_cluster(seed=seed),
    "two-dc": lambda seed: make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=seed),
}


def default_fault_storm() -> Tuple[FaultProcess, ...]:
    """The default chaos processes: node crash + spot preemption + WAN brownout.

    MTBF/MTTR are sized for the two-datacenter cluster and the default
    240-second trace: the node crash is expected to strike within the first
    half of the trace and rejoin before the end, so a single run exercises
    degrade -> flip-reschedule -> rejoin -> re-expand end to end.
    """
    return (
        FaultProcess(
            kind=FaultKind.NODE_CRASH,
            mtbf_s=120.0,
            mttr_s=90.0,
            name="dc-node",
        ),
        FaultProcess(
            kind=FaultKind.GPU_PREEMPTION,
            mtbf_s=200.0,
            mttr_s=60.0,
            num_gpus=1,
            name="spot",
        ),
        FaultProcess(
            kind=FaultKind.LINK_DEGRADATION,
            mtbf_s=150.0,
            mttr_s=60.0,
            bandwidth_scale=0.5,
            name="wan",
        ),
    )


def _live_config(window_s: float, adaptive: bool, faults: FaultSchedule) -> LiveServeConfig:
    """Live-loop config for one serving mode, with the shared fault schedule."""
    return LiveServeConfig(
        window_s=window_s,
        faults=faults,
        adapt_to_workload=adaptive,
        adapt_to_capacity=adaptive,
    )


def run(
    model_name: str = "llama-30b",
    cluster_name: str = "two-dc",
    workload: Optional[WorkloadSpec] = None,
    request_rate: float = 1.0,
    duration: float = 240.0,
    window_s: float = 30.0,
    processes: Optional[Sequence[FaultProcess]] = None,
    fault_seed: int = 25,
    num_steps: int = 12,
    num_neighbors: int = 5,
    seed: int = 0,
) -> ExperimentResult:
    """Replay one fault storm under static and fault-aware adaptive serving.

    Parameters
    ----------
    model_name, cluster_name:
        Evaluation model and cluster (``"cloud"`` or ``"two-dc"``).  The
        two-datacenter cluster is the default because a node crash there
        removes half the capacity — heavy enough that re-expansion on rejoin
        genuinely beats standing still under shadow validation.
    workload, request_rate:
        Served workload (default coding) and mean Poisson arrival rate.
    duration, window_s:
        Trace length and live-loop window length (seconds of trace time).
    processes:
        Stochastic fault processes compiled into the storm; defaults to
        :func:`default_fault_storm`.
    fault_seed:
        Seed of the :class:`~repro.faults.injector.FaultInjector` — the same
        seed always compiles the bitwise-identical schedule.  The default is
        chosen so the node crash strikes the *survivable* node of the
        two-datacenter cluster (LLaMA-30B does not fit on the 3090Ti node
        alone, so a crash of the A40 node is unrecoverable by any strategy)
        and rejoins mid-trace, exercising the full lifecycle.
    num_steps, num_neighbors:
        Tabu budget of the initial scheduling run.
    seed:
        Seed for the cluster, the scheduler and the request trace.

    Returns
    -------
    ExperimentResult
        One row per serving mode with worst-window/merged attainment and the
        fault-lifecycle stats of :meth:`~repro.serving.live.LiveServeReport.fault_stats`.
        ``extras`` carries the live reports, the compiled schedule (as dicts)
        and its signature.
    """
    if cluster_name not in _CLUSTERS:
        raise ValueError(f"cluster_name must be one of {sorted(_CLUSTERS)}, got {cluster_name!r}")
    model = default_model(model_name)
    cluster = _CLUSTERS[cluster_name](seed)
    spec = workload or CODING_WORKLOAD
    scheduler_config = SchedulerConfig(
        tabu=TabuSearchConfig(
            num_steps=num_steps, num_neighbors=num_neighbors, memory_size=5, patience=8
        ),
        seed=seed,
    )

    injector = FaultInjector(tuple(processes) if processes is not None else default_fault_storm(),
                             seed=fault_seed)
    schedule = injector.compile(duration, cluster)
    trace = generate_requests(spec, request_rate, duration=duration, seed=seed)

    def build_system() -> ThunderServe:
        return ThunderServe(
            cluster,
            model,
            spec,
            request_rate,
            scheduler_config=scheduler_config,
        )

    base = build_system()
    slo = base.slo
    initial_plan = base.deploy(seed=seed)

    headers = [
        "mode", "worst_window", "merged_attainment", "under_failure",
        "post_recovery", "failure_replans", "recovery_replans", "outage_windows",
    ]
    rows: List[List] = []
    reports: Dict[str, LiveServeReport] = {}
    stats: Dict[str, Dict[str, float]] = {}

    for mode in ("static", "adaptive"):
        system = build_system()
        system.adopt_plan(initial_plan, reason=f"chaos_recovery[{mode}]")
        server = LiveServer(system, config=_live_config(window_s, mode == "adaptive", schedule))
        report = server.run(trace, label=f"chaos-{mode}")
        reports[mode] = report
        fs = report.fault_stats()
        stats[mode] = fs
        rows.append(
            [
                mode,
                report.worst_window_attainment(),
                report.merged.slo_attainment(slo),
                fs["attainment_under_failure"],
                fs["post_recovery_attainment"],
                int(fs["num_failure_replans"]),
                int(fs["num_recovery_replans"]),
                int(fs["outage_windows"]),
            ]
        )

    return ExperimentResult(
        name=(
            f"Chaos recovery: fault-aware adaptive vs static ({cluster_name} cluster, "
            f"{len(schedule)} fault events, seed {fault_seed}, {window_s:g}s windows)"
        ),
        headers=headers,
        rows=rows,
        notes=(
            "static = same windowed loop and fault schedule with all rescheduling "
            "disabled (dead groups dropped, rejoined GPUs stay idle); "
            "adaptive = flip-reschedule on loss, shadow-validated full replan on rejoin"
        ),
        extras={
            "reports": reports,
            "fault_stats": stats,
            "fault_schedule": schedule.to_dicts(),
            "fault_signature": schedule.signature(),
            "slo": slo,
        },
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print(result.to_table())


if __name__ == "__main__":  # pragma: no cover
    main()


__all__ = ["run", "default_fault_storm"]
