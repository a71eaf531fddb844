"""Gated benchmark: chaos-recovery properties of the fault-aware live loop.

This gate protects the §3.4 failure-lifecycle story rather than a wall-clock
number.  It replays the chaos-recovery experiment
(:mod:`repro.experiments.chaos_recovery`) — a seeded fault storm (node crash
with rejoin, spot preemption, WAN brownout) served by the static and the
fault-aware adaptive live loops on identical traces — and checks the
properties the robustness claims rest on:

* **Deterministic chaos replay** — two runs with the same injector seed
  produce the bitwise-identical fault schedule, per-window telemetry stream
  and fault log for both serving modes.
* **Adaptivity pays** — adaptive worst-window attainment is at least the
  static run's, with >= 1 failure-triggered and >= 1 recovery-triggered plan
  change actually installed (the shadow-validation guard must not veto the
  re-expansion).
* **Recovery recovers** — mean attainment after the rejoin replan is at
  least the attainment under failure.
* **Total loss degrades gracefully** — a scenario-sweep run whose pinned
  failure event reclaims *every* GPU completes without aborting, reports
  its post-loss windows as zero-attainment outages, and serves nothing
  after the loss.

The properties are scale-independent, so the reduced (CI) and full
configurations are identical; ``REPRO_BENCH_REDUCED=1`` only tags the report
mode for baseline matching.  Results are written to
``BENCH_chaos_recovery.json`` (override with ``REPRO_BENCH_JSON``); the
properties above are this file's asserts, and ``benchmarks/check_regression.py``
compares ``adaptive_worst`` with the committed baseline.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_chaos_recovery.py -s
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import ClassVar, Tuple

from repro.core.exceptions import SchedulingError
from repro.experiments import chaos_recovery
from repro.faults.taxonomy import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.cluster import Cluster, make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scenarios.base import Scenario
from repro.scenarios.sweep import ScenarioSweep
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeReport
from repro.serving.system import ThunderServe
from repro.workload.generator import PoissonArrivalGenerator
from repro.workload.spec import CODING_WORKLOAD, WorkloadSpec
from repro.workload.trace import Trace

REDUCED = bool(int(os.environ.get("REPRO_BENCH_REDUCED", "0")))
#: injector seed for the storm; the CI seed-matrix smoke overrides this to
#: probe the failure lifecycle away from the committed baseline's seed
#: (non-gating — see the chaos-seed-smoke job), so only the default seed's
#: report may be compared against the committed baseline
FAULT_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "25"))
#: small attainment epsilon so a float tie never fails the ordering gates
EPSILON = 1e-9


@dataclass(frozen=True)
class _TotalLossScenario(Scenario):
    """Steady traffic with one pinned failure event reclaiming every GPU."""

    name: ClassVar[str] = "total-loss"
    description: ClassVar[str] = "every GPU reclaimed mid-run"

    request_rate: float = 1.0
    duration: float = 60.0
    loss_fraction: float = 0.5
    gpu_ids: Tuple[int, ...] = ()
    workload: WorkloadSpec = CODING_WORKLOAD

    def build_trace(self, seed=None) -> Trace:
        gen = PoissonArrivalGenerator(self.workload, self.request_rate, seed=seed)
        trace = gen.generate(duration=self.duration)
        return Trace(requests=trace.requests, name=self.name)

    def planning_workload(self) -> WorkloadSpec:
        return self.workload

    def fault_schedule(self, cluster: Cluster, seed=None) -> FaultSchedule:
        return FaultSchedule.from_events(
            [
                FaultEvent(
                    time=self.loss_fraction * self.duration,
                    kind=FaultKind.GPU_PREEMPTION,
                    gpu_ids=self.gpu_ids,
                    description="provider reclaims every GPU",
                )
            ]
        )

    def rescheduling_mode(self) -> str:
        return "none"


def _snapshot(report: LiveServeReport) -> str:
    """Canonical JSON of everything the determinism gate compares bitwise."""
    return json.dumps(
        {
            "windows": [w.to_dict() for w in report.windows],
            "fault_log": report.fault_log,
        },
        sort_keys=True,
    )


def _run_total_loss() -> Tuple[int, str, bool]:
    """Sweep the total-loss scenario; return (outage windows, error, post-loss zero)."""
    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
    model = get_model_config("llama-30b")
    scenario = _TotalLossScenario(gpu_ids=tuple(cluster.gpu_ids))
    scheduler_config = SchedulerConfig(
        tabu=TabuSearchConfig(num_steps=12, num_neighbors=5, memory_size=5, patience=8),
        seed=0,
    )
    system = ThunderServe(
        cluster,
        model,
        scenario.planning_workload(),
        scenario.request_rate,
        slo=scenario.slo(model),
        scheduler_config=scheduler_config,
    )
    plan = system.deploy(seed=0)
    sweep = ScenarioSweep([scenario], seed=0, scheduler_config=scheduler_config)
    try:
        outcome = sweep.evaluate(cluster, model, plan)[scenario.name]
    except SchedulingError as exc:
        return 0, f"{type(exc).__name__}: {exc}", False

    loss_time = scenario.loss_fraction * scenario.duration
    post_loss = [
        m for m in outcome.result.metrics if m.request.arrival_time >= loss_time
    ]
    post_loss_zero = bool(post_loss) and all(not m.finished for m in post_loss)
    return outcome.num_outage_windows, "", post_loss_zero


def test_chaos_recovery_gate():
    t0 = time.perf_counter()
    first = chaos_recovery.run(fault_seed=FAULT_SEED)
    second = chaos_recovery.run(fault_seed=FAULT_SEED)

    deterministic = first.extras["fault_schedule"] == second.extras["fault_schedule"] and all(
        _snapshot(first.extras["reports"][m]) == _snapshot(second.extras["reports"][m])
        for m in ("static", "adaptive")
    )

    rows = {row[0]: row for row in first.rows}
    cols = {h: i for i, h in enumerate(first.headers)}

    def cell(mode: str, header: str):
        return rows[mode][cols[header]]

    adaptive_stats = first.extras["fault_stats"]["adaptive"]
    outage_windows, total_loss_error, post_loss_zero = _run_total_loss()
    elapsed = time.perf_counter() - t0

    mode = "reduced" if REDUCED else "full"
    print(
        f"\nchaos recovery gate ({mode}): {len(first.extras['fault_schedule'])} "
        f"fault events, deterministic replay {deterministic}\n"
        f"  worst window: static {cell('static', 'worst_window'):.3f} "
        f"adaptive {cell('adaptive', 'worst_window'):.3f}\n"
        f"  adaptive replans: {cell('adaptive', 'failure_replans')} failure / "
        f"{cell('adaptive', 'recovery_replans')} recovery\n"
        f"  adaptive attainment: {cell('adaptive', 'under_failure'):.3f} under "
        f"failure -> {cell('adaptive', 'post_recovery'):.3f} post recovery\n"
        f"  total loss: {outage_windows} outage windows, "
        f"post-loss zero {post_loss_zero}, error {total_loss_error!r}\n"
        f"  elapsed {elapsed:.1f}s"
    )

    payload = {
        "benchmark": "bench_chaos_recovery",
        "mode": mode,
        "fault_seed": FAULT_SEED,
        "fault_signature": first.extras["fault_signature"],
        "num_fault_events": len(first.extras["fault_schedule"]),
        "deterministic_replay": deterministic,
        "static_worst": round(float(cell("static", "worst_window")), 4),
        "adaptive_worst": round(float(cell("adaptive", "worst_window")), 4),
        "static_merged": round(float(cell("static", "merged_attainment")), 4),
        "adaptive_merged": round(float(cell("adaptive", "merged_attainment")), 4),
        "failure_replans": int(cell("adaptive", "failure_replans")),
        "recovery_replans": int(cell("adaptive", "recovery_replans")),
        "attainment_under_failure": round(float(cell("adaptive", "under_failure")), 4),
        "post_recovery_attainment": round(float(cell("adaptive", "post_recovery")), 4),
        "static_outage_windows": int(cell("static", "outage_windows")),
        "adaptive_outage_windows": int(cell("adaptive", "outage_windows")),
        "mean_time_to_replan_s": round(adaptive_stats["mean_time_to_replan_s"], 4),
        "mean_mttr_s": round(adaptive_stats["mean_mttr_s"], 4),
        "total_loss_outage_windows": int(outage_windows),
        "total_loss_error": total_loss_error,
        "total_loss_post_attainment_zero": post_loss_zero,
        "elapsed_s": round(elapsed, 2),
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_chaos_recovery.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"  wrote {out_path}")

    assert deterministic, (
        "same-seed chaos replay diverged: fault schedule or telemetry stream "
        "is not bitwise-identical across two runs"
    )
    assert payload["adaptive_worst"] >= payload["static_worst"] - EPSILON, (
        f"adaptive worst-window attainment {payload['adaptive_worst']} fell "
        f"below static {payload['static_worst']}"
    )
    assert payload["failure_replans"] >= 1, "no failure-triggered plan change installed"
    assert payload["recovery_replans"] >= 1, "no recovery-triggered plan change installed"
    assert (
        payload["post_recovery_attainment"]
        >= payload["attainment_under_failure"] - EPSILON
    ), (
        f"attainment did not recover after rejoin: "
        f"{payload['post_recovery_attainment']} post-recovery vs "
        f"{payload['attainment_under_failure']} under failure"
    )
    assert payload["total_loss_outage_windows"] >= 1, (
        "total-loss scenario produced no outage windows"
    )
    assert payload["total_loss_error"] == "", (
        f"total-loss scenario aborted the sweep: {payload['total_loss_error']}"
    )
    assert payload["total_loss_post_attainment_zero"], (
        "requests arriving after total capacity loss were not all reported unserved"
    )
