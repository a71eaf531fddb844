"""Adaptive live serving vs. a static plan on shifting workloads.

The live loop (:class:`~repro.serving.live.LiveServer`) replays a trace in
bounded windows, evaluates declarative SLO objectives per window and triggers
the §3.4 lightweight rescheduler on a breach or a detected workload shift.
This harness measures what that adaptivity buys on the two workload-shift
scenarios of the library — ``diurnal`` (a day/night rate cycle) and
``agentic-mix`` (a coding/conversation blend) — against a deliberately
mismatched static plan (scheduled for a steady conversation workload, the
situation §3.4 exists for).

Three serving modes run on identical traces and identical window grids:

* ``static``  — the live loop with all rescheduling disabled: every window is
  served by the initial plan.  Same window grid as adaptive, so worst-window
  attainment compares apples to apples (windowed serving resets queues at
  window boundaries; comparing adaptive-windowed against one batch run would
  confound adaptivity with that reset).
* ``adaptive`` — the full loop: SLO breaches and workload shifts trigger
  lightweight rescheduling between windows.
* a one-shot batch replay of the static plan, reported in ``extras`` as the
  queue-carryover reference.

Because the flip-only rescheduler warm-starts from the current phase
designation, an online rescheduling never looks worse than standing still *to
the estimator*; the table shows what that guarantee translates to in served
worst-window attainment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.experiments.common import ExperimentResult, default_model
from repro.hardware.cluster import make_cloud_cluster, make_two_datacenter_cluster
from repro.scenarios.registry import get_scenario
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServeReport, LiveServer
from repro.serving.system import ThunderServe
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD, WorkloadSpec


_CLUSTERS = {
    "cloud": lambda seed: make_cloud_cluster(seed=seed),
    "two-dc": lambda seed: make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=seed),
}

#: Default per-scenario construction overrides.  The diurnal cycle runs over
#: the *coding* workload so the conversation-planned static plan is mismatched
#: in mix as well as in rate — the §3.4 situation flip-only rescheduling can
#: actually fix (a pure rate swing with a matched mix leaves nothing for a
#: phase flip to improve, and the validated loop correctly stands still there).
#: Rates sit below the scenarios' stress defaults so the comparison runs where
#: plans differ, not where every plan drowns.
DEFAULT_SCENARIO_OVERRIDES = {
    "diurnal": {"request_rate": 4.0, "workload": CODING_WORKLOAD},
    "agentic-mix": {"request_rate": 3.0},
}


def _live_config(window_s: float, adaptive: bool) -> LiveServeConfig:
    """Live-loop config for one serving mode (rescheduling on or off)."""
    return LiveServeConfig(
        window_s=window_s,
        reschedule_on_breach=adaptive,
        reschedule_on_shift=adaptive,
    )


def run(
    model_name: str = "llama-30b",
    cluster_name: str = "cloud",
    scenario_names: Sequence[str] = ("diurnal", "agentic-mix"),
    scenario_overrides: Optional[Dict[str, Dict]] = None,
    static_workload: Optional[WorkloadSpec] = None,
    static_request_rate: float = 3.0,
    duration: float = 120.0,
    window_s: float = 30.0,
    num_steps: int = 12,
    num_neighbors: int = 5,
    seed: int = 0,
) -> ExperimentResult:
    """Compare adaptive live serving against the frozen static plan per scenario.

    Parameters
    ----------
    model_name, cluster_name:
        Evaluation model and cluster (``"cloud"`` or ``"two-dc"``).
    scenario_names:
        Registered scenarios to replay; defaults to the two workload-shift
        scenarios (``diurnal``, ``agentic-mix``).
    scenario_overrides:
        Per-scenario constructor overrides keyed by scenario name; defaults to
        :data:`DEFAULT_SCENARIO_OVERRIDES`.
    static_workload, static_request_rate:
        The (mismatched) workload the static plan is scheduled for; defaults
        to the steady conversation workload.
    duration, window_s:
        Trace length and live-loop window length (seconds of trace time).
    num_steps, num_neighbors:
        Tabu budget of the initial scheduling run.
    seed:
        Seed for the cluster, the scheduler and the scenario traces.

    Returns
    -------
    ExperimentResult
        One row per scenario: worst-window and merged E2E attainment of the
        static and adaptive runs, the number of adaptive plan changes and the
        number of SLO breach events.  ``extras`` carries the live reports and
        the batch-replay attainment of the static plan.
    """
    if cluster_name not in _CLUSTERS:
        raise ValueError(f"cluster_name must be one of {sorted(_CLUSTERS)}, got {cluster_name!r}")
    model = default_model(model_name)
    cluster = _CLUSTERS[cluster_name](seed)
    workload = static_workload or CONVERSATION_WORKLOAD
    scheduler_config = SchedulerConfig(
        tabu=TabuSearchConfig(
            num_steps=num_steps, num_neighbors=num_neighbors, memory_size=5, patience=8
        ),
        seed=seed,
    )

    headers = [
        "scenario", "static_worst", "adaptive_worst", "static_merged",
        "adaptive_merged", "plan_changes", "breaches",
    ]
    rows: List[List] = []
    reports: Dict[str, Dict[str, LiveServeReport]] = {}
    batch_static: Dict[str, float] = {}
    static_plans: Dict[str, object] = {}

    overrides = (
        scenario_overrides if scenario_overrides is not None else DEFAULT_SCENARIO_OVERRIDES
    )
    for name in scenario_names:
        scenario = get_scenario(name, duration=duration, **overrides.get(name, {}))
        trace = scenario.build_trace(seed=seed)
        slo = scenario.slo(model)

        def build_system() -> ThunderServe:
            # The scenario's SLO tier governs serving and any online
            # rescheduling; the plan itself is the static schedule below.
            return ThunderServe(
                cluster,
                model,
                workload,
                static_request_rate,
                slo=slo,
                scheduler_config=scheduler_config,
            )

        # The static schedule: the scenario's SLO tier, but the planned
        # (mismatched) workload and rate.  Shared by every mode of this
        # scenario so the comparison isolates the serving policy.
        static_plan = build_system().deploy(seed=seed)
        static_plans[name] = static_plan

        runs: Dict[str, LiveServeReport] = {}
        for mode in ("static", "adaptive"):
            system = build_system()
            system.adopt_plan(static_plan, reason=f"adaptive_vs_static[{name}]")
            server = LiveServer(system, config=_live_config(window_s, mode == "adaptive"))
            runs[mode] = server.run(trace, label=f"{name}-{mode}")
        reports[name] = runs

        batch_system = build_system()
        batch_system.adopt_plan(static_plan, reason=f"adaptive_vs_static[{name}]-batch")
        batch_static[name] = batch_system.serve(trace, label=f"{name}-batch").slo_attainment(slo)

        rows.append(
            [
                name,
                runs["static"].worst_window_attainment(),
                runs["adaptive"].worst_window_attainment(),
                runs["static"].merged.slo_attainment(slo),
                runs["adaptive"].merged.slo_attainment(slo),
                runs["adaptive"].num_plan_changes,
                len(runs["adaptive"].breaches),
            ]
        )

    return ExperimentResult(
        name=(
            f"Adaptive live serving vs static plan ({cluster_name} cluster, "
            f"{window_s:g}s windows, static plan for "
            f"'{workload.name}' @ {static_request_rate:g} req/s)"
        ),
        headers=headers,
        rows=rows,
        notes=(
            "static = same windowed loop with rescheduling disabled; "
            "batch replay of the static plan (queue carryover across windows) "
            "in extras['batch_static']"
        ),
        extras={
            "reports": reports,
            "batch_static": batch_static,
            "static_plans": static_plans,
        },
    )


def main() -> None:  # pragma: no cover - CLI convenience
    result = run()
    print(result.to_table())


if __name__ == "__main__":  # pragma: no cover
    main()


__all__ = ["run"]
