"""ScenarioSweep: evaluate one deployment plan across the whole scenario library.

The sweep schedules once (or adopts a caller-provided plan) and then serves every
scenario in turn on its own :class:`~repro.serving.system.ThunderServe`
instance.  Scenarios are independent simulations over immutable shared inputs
(cluster, model, plan), and each one's seeds derive only from the sweep seed and
its name, so an outcome does not depend on which other scenarios the sweep runs.
Failure-injection scenarios are served segment-by-segment: each pinned
``GPU_PREEMPTION`` event of the scenario's
:class:`~repro.faults.FaultSchedule` is compiled into a replica-level fault
timeline the engine applies *inside* the segment's run (preempting in-flight
work at the exact fault instant, retried under the engine's default
:class:`~repro.faults.RetryPolicy`), lightweight rescheduling runs between
segments, and the per-segment results are merged into one scenario outcome.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import ConfigurationError, SchedulingError
from repro.core.types import SLOType
from repro.costmodel.reference import a100_reference_latency
from repro.faults.taxonomy import CAPACITY_LOSS_KINDS, FaultEvent, FaultSchedule
from repro.faults.timeline import compile_fault_timeline
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.scenarios.base import Scenario
from repro.scenarios.library import MultiTenantSLOTiersScenario
from repro.scenarios.registry import default_scenarios
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.rescheduling import ReschedulingOverheadModel
from repro.scheduling.scheduler import SchedulerConfig
from repro.serving.system import ThunderServe
from repro.simulation.metrics import SimulationResult, merge_results
from repro.utils.tables import format_table
from repro.workload.trace import Trace


@dataclass
class ScenarioOutcome:
    """Aggregate result of serving one scenario with one deployment plan."""

    scenario: str
    description: str
    num_requests: int
    num_finished: int
    slo_scale: float
    attainment_e2e: float
    attainment_ttft: float
    attainment_tpot: float
    output_token_throughput: float
    mean_e2e: float
    num_plan_changes: int
    elapsed_s: float
    #: per-tenant E2E attainment at each tenant's own SLO tier (multi-tenant only)
    per_tenant_attainment: Dict[str, float] = field(default_factory=dict)
    #: the merged simulation result, for downstream analysis
    result: Optional[SimulationResult] = None
    #: total service interruption priced onto the scenario's replans by the
    #: Table 4 :class:`~repro.scheduling.rescheduling.ReschedulingOverheadModel`
    reschedule_overhead_s: float = 0.0
    #: failure-path windows that arrived while no capacity could serve (their
    #: requests are recorded as zero-attainment misses, not dropped silently)
    num_outage_windows: int = 0
    #: request count per :class:`~repro.core.types.RequestOutcome` name over
    #: the merged result
    outcome_counts: Dict[str, int] = field(default_factory=dict)


class ScenarioSweep:
    """Run a library of scenarios against one deployment plan, one after another.

    Parameters
    ----------
    scenarios:
        The scenarios to run; defaults to one instance of every registered
        scenario (:func:`~repro.scenarios.registry.default_scenarios`).
    seed:
        Base seed; each scenario derives its own deterministic stream from it.
    scheduler_config:
        Forwarded to the per-scenario serving systems (it drives any mid-run
        rescheduling).
    """

    def __init__(
        self,
        scenarios: Optional[Sequence[Scenario]] = None,
        seed: int = 0,
        scheduler_config: Optional[SchedulerConfig] = None,
    ) -> None:
        self.scenarios: Tuple[Scenario, ...] = (
            tuple(scenarios) if scenarios is not None else default_scenarios()
        )
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        names = [s.name for s in self.scenarios]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario names must be unique, got {names}")
        self.seed = seed
        self.scheduler_config = scheduler_config

    # ------------------------------------------------------------------ seeds
    def _derive_seed(self, text: str, salt: str) -> int:
        """Deterministic seed from the sweep seed and a label, per purpose."""
        digest = zlib.crc32(f"{salt}:{text}".encode())
        return (self.seed * 1000003 + digest) % (2**31 - 1)

    def _scenario_seed(self, scenario: Scenario) -> int:
        """Per-scenario trace seed, independent of sweep composition."""
        return self._derive_seed(scenario.name, "trace")

    # ------------------------------------------------------------------ evaluate
    def evaluate(
        self,
        cluster: Cluster,
        model: ModelConfig,
        plan: DeploymentPlan,
    ) -> Dict[str, ScenarioOutcome]:
        """Serve every scenario with ``plan`` and return outcomes keyed by name."""
        return {s.name: self._run_one(s, cluster, model, plan) for s in self.scenarios}

    def _build_system(
        self, scenario: Scenario, cluster: Cluster, model: ModelConfig
    ) -> ThunderServe:
        workload = scenario.planning_workload()
        # The scenario's own SLO tier must govern any mid-run rescheduling, not
        # ThunderServe's default 5x reference scale.
        slo = scenario.slo(model)
        return ThunderServe(
            cluster,
            model,
            workload,
            scenario.request_rate,
            slo=slo,
            scheduler_config=self.scheduler_config,
        )

    def _run_one(
        self,
        scenario: Scenario,
        cluster: Cluster,
        model: ModelConfig,
        plan: DeploymentPlan,
    ) -> ScenarioOutcome:
        start = time.perf_counter()
        trace = scenario.build_trace(seed=self._scenario_seed(scenario))
        system = self._build_system(scenario, cluster, model)
        system.adopt_plan(plan, reason=f"scenario sweep: {scenario.name}")
        # Plan changes are installs *after* the adoption just recorded — counted
        # against this snapshot rather than by subtracting a hard-coded 1, so a
        # system serving without a prior install can never go negative.
        installs_at_adoption = sum(1 for e in system.events if e.kind == "plan_installed")

        schedule = scenario.fault_schedule(
            cluster, seed=self._derive_seed(scenario.name, "failures")
        ).validate(scenario.duration, cluster)
        reschedule_overhead_s = 0.0
        num_outage_windows = 0
        if len(schedule):
            result, reschedule_overhead_s, num_outage_windows = self._serve_with_failures(
                system, trace, schedule, scenario.name, mode=scenario.rescheduling_mode()
            )
        else:
            result = system.serve(trace, label=scenario.name)

        slo = system.reference.slo_spec(scenario.slo_scale())
        per_tenant: Dict[str, float] = {}
        if isinstance(scenario, MultiTenantSLOTiersScenario):
            per_tenant = self._tenant_attainment(scenario, result, model)
        installs = sum(1 for e in system.events if e.kind == "plan_installed")
        plan_changes = max(0, installs - installs_at_adoption)
        return ScenarioOutcome(
            scenario=scenario.name,
            description=scenario.description,
            num_requests=result.num_requests,
            num_finished=result.num_finished,
            slo_scale=scenario.slo_scale(),
            attainment_e2e=result.slo_attainment(slo, SLOType.E2E),
            attainment_ttft=result.slo_attainment(slo, SLOType.TTFT),
            attainment_tpot=result.slo_attainment(slo, SLOType.TPOT),
            output_token_throughput=result.output_token_throughput,
            mean_e2e=result.mean(SLOType.E2E),
            num_plan_changes=plan_changes,
            elapsed_s=time.perf_counter() - start,
            per_tenant_attainment=per_tenant,
            result=result,
            reschedule_overhead_s=reschedule_overhead_s,
            num_outage_windows=num_outage_windows,
            outcome_counts={k: int(v) for k, v in result.outcome_counts().items()},
        )

    def _serve_with_failures(
        self,
        system: ThunderServe,
        trace: Trace,
        schedule: FaultSchedule,
        label: str,
        mode: str = "lightweight",
    ) -> Tuple[SimulationResult, float, int]:
        """Serve a trace segment-by-segment with in-engine fault application.

        Each capacity-loss event's pinned victims that are still alive are
        compiled into a replica-level fault timeline against the plan
        currently serving, and handed to the engine together with the segment
        of arrivals preceding it — so work still in flight at the fault
        instant is preempted *inside* the run and disposed under the engine's
        default :class:`~repro.faults.RetryPolicy` instead of finishing on hardware
        that no longer exists.  Between segments ``mode`` selects the replan
        strategy (see :meth:`~repro.serving.system.ThunderServe.replan_capacity`);
        each successful replan is priced with the Table 4
        :class:`~repro.scheduling.rescheduling.ReschedulingOverheadModel`.  A
        strategy that cannot produce a servable plan falls back to dropping
        dead groups, and a total capacity loss — events reclaiming every
        surviving GPU — degrades gracefully: the remaining segments are
        recorded as zero-attainment outages (every arrival a
        ``dropped_outage`` miss) instead of aborting the sweep.

        Returns
        -------
        Tuple[SimulationResult, float, int]
            The merged result, the total priced rescheduling overhead in
            seconds, and the number of outage windows.

        Raises
        ------
        ConfigurationError
            If the schedule holds an event that is not a capacity loss.
        """
        for event in schedule:
            if event.kind not in CAPACITY_LOSS_KINDS:
                raise ConfigurationError(
                    f"scenario {label!r}: the sweep serves capacity-loss events "
                    f"only, got {event.describe()}"
                )
        overhead_model = ReschedulingOverheadModel()
        results: List[SimulationResult] = []
        overhead_s = 0.0
        outage_windows = 0
        dead = False
        window_start = float("-inf")
        for k, event in enumerate(schedule):
            window = trace.window(window_start, event.time)
            window_start = event.time
            if dead:
                if not window.is_empty:
                    results.append(
                        SimulationResult.dropped(
                            window,
                            makespan=float(window.arrays.arrival_time[-1]),
                            label=f"{label}[{k}]",
                        )
                    )
                    outage_windows += 1
                continue
            alive = sorted(system.cluster.gpu_ids)
            victims = [g for g in event.gpu_ids if g in alive]
            if not window.is_empty:
                faults = None
                if victims:
                    loss = FaultEvent(time=event.time, kind=event.kind, gpu_ids=tuple(victims))
                    faults = (
                        compile_fault_timeline(
                            FaultSchedule.from_events([loss]), system.require_plan()
                        )
                        or None
                    )
                results.append(system.serve(window, label=f"{label}[{k}]", faults=faults))
            if not victims:
                continue
            if len(victims) >= len(alive):
                # Total capacity loss: nothing left to replan onto.
                dead = True
                continue
            try:
                plan = system.handle_gpu_failure(victims, mode=mode)
                actual_mode = mode
            except SchedulingError:
                # The cluster already shrank; keep whatever groups survived.
                try:
                    plan = system.replan_capacity(
                        mode="none", reason=f"fallback after {mode} replan failed"
                    )
                    actual_mode = "none"
                except SchedulingError:
                    dead = True
                    continue
            if actual_mode == "lightweight":
                overhead_s += overhead_model.lightweight_overhead_seconds()
            elif actual_mode == "full":
                overhead_s += overhead_model.full_overhead_seconds(
                    system.model, system.cluster.num_gpus, len(plan.groups)
                )
        tail = trace.window(window_start, float("inf"))
        if not tail.is_empty:
            if dead:
                results.append(
                    SimulationResult.dropped(
                        tail,
                        makespan=float(tail.arrays.arrival_time[-1]),
                        label=f"{label}[tail]",
                    )
                )
                outage_windows += 1
            else:
                results.append(system.serve(tail, label=f"{label}[tail]"))
        return merge_results(results, label=label), overhead_s, outage_windows

    def _tenant_attainment(
        self,
        scenario: MultiTenantSLOTiersScenario,
        result: SimulationResult,
        model: ModelConfig,
    ) -> Dict[str, float]:
        """E2E attainment of each tenant's requests at its own SLO tier."""
        per_tenant: Dict[str, float] = {}
        for tier in scenario.tiers:
            tag = f"tenant:{tier.tenant}"
            metrics = [m for m in result.metrics if m.request.workload == tag]
            if not metrics:
                per_tenant[tier.tenant] = 0.0
                continue
            reference = a100_reference_latency(model, tier.workload)
            slo = reference.slo_spec(tier.slo_scale)
            hits = sum(1 for m in metrics if slo.is_met(m, SLOType.E2E))
            per_tenant[tier.tenant] = hits / len(metrics)
        return per_tenant

    # ------------------------------------------------------------------ reporting
    @staticmethod
    def summarize(outcomes: Dict[str, ScenarioOutcome]) -> Dict[str, object]:
        """Cross-scenario aggregate of a sweep.

        Returns
        -------
        dict
            ``worst_scenario`` (name of the lowest-E2E-attainment scenario),
            ``worst_attainment`` / ``mean_attainment`` (its and the mean E2E
            attainment), ``plan_changes`` (per-scenario mapping of the
            mid-serve plan-change counter — installs after plan adoption,
            i.e. every lightweight rescheduling the scenario triggered) and
            ``total_plan_changes`` (their sum across the sweep).
        """
        if not outcomes:
            raise ValueError("cannot summarize an empty sweep")
        worst = min(outcomes, key=lambda name: outcomes[name].attainment_e2e)
        values = [o.attainment_e2e for o in outcomes.values()]
        plan_changes = {name: o.num_plan_changes for name, o in sorted(outcomes.items())}
        return {
            "worst_scenario": worst,
            "worst_attainment": outcomes[worst].attainment_e2e,
            "mean_attainment": sum(values) / len(values),
            "plan_changes": plan_changes,
            "total_plan_changes": sum(plan_changes.values()),
        }

    @staticmethod
    def to_table(outcomes: Dict[str, ScenarioOutcome], precision: int = 3) -> str:
        """Render sweep outcomes as an aligned text table."""
        headers = [
            "scenario", "requests", "finished", "slo_scale",
            "att_e2e", "att_ttft", "att_tpot", "tok/s", "plan_changes",
        ]
        rows = [
            [
                o.scenario, o.num_requests, o.num_finished, o.slo_scale,
                o.attainment_e2e, o.attainment_ttft, o.attainment_tpot,
                o.output_token_throughput, o.num_plan_changes,
            ]
            for _, o in sorted(outcomes.items())
        ]
        return format_table(headers, rows, precision=precision, title="Scenario sweep")


__all__ = ["ScenarioSweep", "ScenarioOutcome"]
