"""The ThunderServe system facade.

:class:`ThunderServe` wires the components of §4 together into the paper's overall
routine:

1. ``deploy()`` runs the scheduling algorithm and instantiates the model replicas
   (in this reproduction, the replica cost models and the discrete-event simulator
   take the place of real GPU processes);
2. ``serve()`` replays a request trace against the current deployment plan;
3. the workload profiler continuously monitors the observed request mix;
4. on a detected workload shift or a GPU failure, the lightweight rescheduler
   adjusts phase designations and the orchestration without reloading parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.exceptions import InvalidPlanError, SchedulingError
from repro.core.types import SLOSpec, SLOType
from repro.costmodel.latency import CostModelParams, DEFAULT_PARAMS
from repro.costmodel.reference import ReferenceLatency, a100_reference_latency
from repro.faults.retry import RetryPolicy
from repro.faults.timeline import FaultTimeline
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.rescheduling import LightweightRescheduler
from repro.scheduling.robust import RobustObjective, RobustScheduleResult
from repro.scheduling.scheduler import ScheduleResult, Scheduler, SchedulerConfig
from repro.serving.monitor import GPUFailure, GPURecovery, HeartbeatMonitor
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import SimulationResult
from repro.workload.profiler import WorkloadProfiler
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.scenarios.base import Scenario


@dataclass(frozen=True)
class ServeEvent:
    """A notable runtime event (rescheduling, failure handling) during serving."""

    time: float
    kind: str
    detail: str


class ThunderServe:
    """End-to-end ThunderServe system over a (simulated) heterogeneous cluster.

    Parameters
    ----------
    cluster:
        The GPU cluster to deploy on.
    model:
        Model to serve.
    workload:
        Expected workload (used for the initial deployment plan).
    request_rate:
        Planned average request rate (requests/s).
    slo:
        Absolute SLO deadlines; defaults to 5x the A100 reference latency.
    scheduler_config:
        Scheduling hyper-parameters (tabu search budget, KV transport bits, ...).
    """

    def __init__(
        self,
        cluster: Cluster,
        model: ModelConfig,
        workload: WorkloadSpec,
        request_rate: float,
        slo: Optional[SLOSpec] = None,
        scheduler_config: Optional[SchedulerConfig] = None,
        simulator_config: Optional[SimulatorConfig] = None,
        params: CostModelParams = DEFAULT_PARAMS,
    ) -> None:
        if request_rate <= 0:
            raise ValueError("request_rate must be positive")
        self.cluster = cluster
        self.model = model
        self.workload = workload
        self.request_rate = request_rate
        self.params = params
        self.scheduler = Scheduler(scheduler_config or SchedulerConfig())
        self.simulator_config = simulator_config or SimulatorConfig()
        self.reference: ReferenceLatency = a100_reference_latency(model, workload, params=params)
        self.slo = slo or self.reference.slo_spec(5.0)
        self.rescheduler = LightweightRescheduler(
            kv_transport_bits=self.scheduler.config.kv_transport_bits, params=params
        )
        self.profiler = WorkloadProfiler()
        self.monitor = HeartbeatMonitor(cluster.gpu_ids)
        self.plan: Optional[DeploymentPlan] = None
        self.schedule_result: Optional[ScheduleResult] = None
        self.robust_result: Optional[RobustScheduleResult] = None
        self.events: List[ServeEvent] = []
        #: simulator reused across serve() calls; rebuilt when the plan changes
        self._simulator: Optional[ServingSimulator] = None
        #: full-replan plans keyed by ``Cluster.state_key()``; see replan_capacity
        self._full_plans: Dict[tuple, DeploymentPlan] = {}

    # ------------------------------------------------------------------ deployment
    def deploy(self, seed: Optional[int] = None) -> DeploymentPlan:
        """Run the scheduling algorithm and install the resulting deployment plan."""
        result = self.scheduler.schedule(
            self.cluster, self.model, self.workload, self.request_rate, self.slo, seed=seed
        )
        self.schedule_result = result
        self.robust_result = None  # a single-workload deployment supersedes it
        self._install_plan(result.plan, reason="initial deployment")
        self.profiler.set_reference_from_spec(self.workload, self.request_rate)
        return result.plan

    def deploy_robust(
        self,
        scenarios: Sequence["Scenario"],
        robust: Optional[RobustObjective] = None,
        seed: Optional[int] = None,
    ) -> DeploymentPlan:
        """Schedule against a scenario set and install the winning robust plan.

        Runs :meth:`Scheduler.schedule_robust` (worst-case aggregate unless
        ``robust`` says otherwise) and adopts the plan tuned for the binding
        scenario; the full per-scenario breakdown stays available as
        ``self.robust_result``.
        """
        result = self.scheduler.schedule_robust(
            self.cluster, self.model, scenarios, robust=robust, seed=seed
        )
        self.robust_result = result
        self.schedule_result = None  # a robust deployment supersedes it
        self._install_plan(
            result.plan,
            reason=(
                f"robust deployment over {len(result.per_scenario)} scenarios "
                f"(binding scenario: {result.worst_scenario})"
            ),
        )
        self.profiler.set_reference_from_spec(self.workload, self.request_rate)
        return result.plan

    def adopt_plan(self, plan: DeploymentPlan, reason: str = "adopted external plan") -> DeploymentPlan:
        """Install an externally built deployment plan without running the scheduler.

        The scenario sweep schedules once and replays the same plan across many
        scenarios, each on its own :class:`ThunderServe` instance; this is the
        public entry point for installing that shared plan.  Raises
        :class:`~repro.core.exceptions.InvalidPlanError` when the plan lacks a
        prefill or a decode replica.
        """
        self._install_plan(plan, reason=reason)
        self.profiler.set_reference_from_spec(self.workload, self.request_rate)
        return plan

    def _install_plan(self, plan: DeploymentPlan, reason: str) -> None:
        # The engine routes every request to a (prefill, decode) pair, so a
        # plan missing either phase is rejected here, before it can be served.
        if not plan.prefill_groups or not plan.decode_groups:
            raise InvalidPlanError("the plan must expose prefill and decode replicas")
        self.plan = plan
        self._simulator = None
        self.events.append(ServeEvent(time=time.time(), kind="plan_installed", detail=reason))

    def require_plan(self) -> DeploymentPlan:
        """Return the installed plan, raising if ``deploy`` has not run yet."""
        if self.plan is None:
            raise SchedulingError("no deployment plan installed; call deploy() first")
        return self.plan

    # ------------------------------------------------------------------ serving
    def serve(
        self,
        trace: Trace,
        label: str = "thunderserve",
        faults: Optional[FaultTimeline] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> SimulationResult:
        """Serve a request trace with the current deployment plan.

        The :class:`ServingSimulator` is cached between calls (``run`` resets all
        simulator state, including the routing RNG, so reuse is exact): windowed
        serving — adaptive rescheduling, failure scenarios — skips rebuilding the
        replica cost models and keeps their per-batch decode-step latency rows
        and prefill latency memo warm.

        ``faults`` / ``retry`` are forwarded to
        :meth:`~repro.simulation.engine.ServingSimulator.run`: a compiled
        :class:`~repro.faults.timeline.FaultTimeline` is applied *inside* the
        run (replica deaths dispose in-flight requests under the
        :class:`~repro.faults.retry.RetryPolicy`) instead of the trace being
        sliced into windows around each fault.
        """
        plan = self.require_plan()
        if self._simulator is None:
            self._simulator = ServingSimulator(
                self.cluster, plan, self.model, params=self.params, config=self.simulator_config
            )
        self.profiler.observe_many(trace)
        return self._simulator.run(trace, label=label, faults=faults, retry=retry)

    def reschedule_online(
        self,
        stats=None,
        reason: str = "online rescheduling",
        validate_on: Optional[Trace] = None,
    ) -> bool:
        """Run the §3.4 lightweight rescheduler against *observed* statistics.

        This is the online entry point the live serving loop calls on an SLO
        breach or a detected workload shift.  The profiler's current window
        statistics are used unless ``stats`` is given explicitly; the resulting
        plan is installed and the profiler's reference is re-pinned to the
        statistics the new plan was built for.

        The replanning rate is floored at the provisioned ``request_rate``:
        observing a quiet window (a diurnal trough, a lull between bursts) must
        not shrink the plan's capacity below what the deployment was sized for,
        or the next peak lands on a plan tuned for the lull.  Observed rates
        *above* the provisioned rate are taken at face value — that is the
        upward shift the rescheduler exists for.

        Parameters
        ----------
        stats:
            :class:`~repro.workload.spec.WorkloadStats` to replan for; defaults
            to ``self.profiler.current_stats()``.
        reason:
            Human-readable reason recorded on the ``plan_installed`` event.
        validate_on:
            Optional trace (typically the window just served) used as a shadow
            canary: the candidate plan is only adopted when its simulated SLO
            attainment on this trace strictly beats the incumbent plan's.  The
            estimator that guides the flip-only search can mis-rank plans near
            saturation; the shadow replay keeps a mis-ranked candidate from
            ever being installed.  A candidate equal to the incumbent would
            replay identically, so it is rejected without replaying.  ``None``
            (default) trusts the estimator.

        Returns
        -------
        bool
            ``True`` when a new plan was installed, ``False`` when the profiler
            window was empty or the candidate failed shadow validation.
        """
        if stats is None:
            stats = self.profiler.current_stats()
        if stats.num_requests == 0 and stats.request_rate == 0:
            return False
        if 0 < stats.request_rate < self.request_rate:
            stats = replace(stats, request_rate=self.request_rate)
        result = self.rescheduler.reschedule_from_stats(
            self.require_plan(),
            self.cluster,
            self.model,
            stats,
            fallback_rate=self.request_rate,
            slo=self.slo,
            template=self.workload,
        )
        if validate_on is not None and not validate_on.is_empty:
            plan = self.require_plan()
            # An equal candidate replays identically, so it cannot strictly win.
            if result.plan == plan:
                return False
            incumbent = self._shadow_attainment(plan, validate_on)
            candidate = self._shadow_attainment(result.plan, validate_on)
            if candidate <= incumbent:
                return False
        self._install_plan(result.plan, reason=reason)
        self.profiler.set_reference(stats)
        return True

    def _shadow_attainment(self, plan: DeploymentPlan, trace: Trace) -> float:
        """Simulated E2E attainment of ``plan`` on ``trace`` (no state touched)."""
        simulator = ServingSimulator(
            self.cluster, plan, self.model, params=self.params, config=self.simulator_config
        )
        return simulator.run(trace, label="shadow").slo_attainment(self.slo)

    def serve_live(self, trace: Trace, config=None, label: str = "live"):
        """Serve a trace through the adaptive live loop with SLO observability.

        Convenience facade over :class:`~repro.serving.live.LiveServer`: the
        trace is replayed in bounded windows on a time-warped serving clock,
        each window streams a telemetry record (attainment, queue wait,
        estimated rho, plan id), SLO objectives are evaluated per window, and
        breaches / workload shifts trigger :meth:`reschedule_online`.

        Parameters
        ----------
        trace:
            The request trace to replay.
        config:
            Optional :class:`~repro.serving.live.LiveServeConfig`.
        label:
            Run label stamped onto window results and breach events.

        Returns
        -------
        repro.serving.live.LiveServeReport
            Windowed telemetry, per-window results and breach events.
        """
        from repro.serving.live import LiveServer  # local import: live.py imports this module

        return LiveServer(self, config=config).run(trace, label=label)

    @property
    def num_plan_changes(self) -> int:
        """Number of plan installations *after* the initial one (re-schedulings)."""
        installs = sum(1 for e in self.events if e.kind == "plan_installed")
        return max(0, installs - 1)

    # ------------------------------------------------------------- capacity changes
    RESCHEDULE_MODES = ("lightweight", "full", "none")

    def set_cluster(self, cluster: Cluster, reason: str = "cluster changed") -> None:
        """Swap the serving cluster (capacity change, network degradation).

        Invalidates the cached simulator so the next ``serve()`` — and every
        shadow validation — prices KV transfers and replica latencies against
        the new cluster's matrices, and rebuilds the heartbeat monitor over
        the new GPU set.  The installed plan is left untouched: callers that
        changed capacity must follow up with :meth:`replan_capacity` (or one
        of the ``handle_gpu_*`` wrappers, which do both).
        """
        self.cluster = cluster
        self.monitor = HeartbeatMonitor(cluster.gpu_ids)
        self._simulator = None
        self.events.append(ServeEvent(time=time.time(), kind="cluster_changed", detail=reason))

    def apply_gpu_slowdowns(
        self, slowdowns: Mapping[int, float], reason: str = "straggler update"
    ) -> bool:
        """Install per-GPU straggler slowdowns on the serving engine.

        ``slowdowns`` maps GPU id to a latency multiplier; entries of exactly
        ``1.0`` are dropped.  Serving groups containing a slowed GPU price
        every latency through the largest multiplier among their GPUs (see
        :meth:`~repro.simulation.engine.SimulatorConfig.group_slowdown`).
        Returns ``True`` when the effective configuration changed.
        """
        items = tuple(sorted(
            (int(g), float(s)) for g, s in slowdowns.items() if float(s) != 1.0
        ))
        if items == self.simulator_config.gpu_slowdowns:
            return False
        self.simulator_config = replace(self.simulator_config, gpu_slowdowns=items)
        self._simulator = None
        self.events.append(
            ServeEvent(time=time.time(), kind="slowdowns_changed", detail=f"{reason}: {items}")
        )
        return True

    def replan_capacity(
        self,
        mode: str = "lightweight",
        reason: str = "capacity change",
        validate_on: Optional[Trace] = None,
    ) -> Optional[DeploymentPlan]:
        """Re-plan the deployment for the *current* cluster after a capacity change.

        ``mode`` selects the Figure 11 strategies: ``"lightweight"`` (§3.4
        flip-only rescheduling, no parameter reload), ``"full"`` (re-run the
        whole scheduler) or ``"none"`` (drop serving groups that reference
        unavailable GPUs and keep the rest).  Raises
        :class:`~repro.core.exceptions.SchedulingError` when the selected
        strategy cannot produce a servable plan.

        ``validate_on`` shadow-validates the candidate with the same replay
        guard as :meth:`reschedule_online`, replaying the trace under both
        plans.  The comparison only runs when the incumbent is still servable
        on the current cluster (capacity *recovery*; after a loss there is
        nothing meaningful to replay the incumbent against) and, unlike the
        breach path, is non-strict: re-expanding onto recovered capacity must
        not be vetoed by a tie on a quiet window.  A candidate that replays
        strictly worse is rejected — ``None`` is returned and the incumbent
        plan stays installed.  A candidate equal to the incumbent ties by
        construction, so it is installed without replaying.

        ``"full"`` replans are memoized per system, keyed on
        :meth:`~repro.hardware.cluster.Cluster.state_key`: a cluster state
        seen before reuses the plan its first search returned.  This is exact
        because everything else the search reads is fixed for the system's
        lifetime — the model, workload, ``request_rate``, ``slo`` and the
        scheduler config with its integer seed have no setter — and the search
        is deterministic for a given seed (a nonzero tabu ``time_limit_s``
        makes it wall-clock dependent; a hit then reuses the first search's
        plan).  A search that raises stores nothing.  Shadow validation, the
        install and its event run the same on a hit as on a miss.
        """
        if mode not in self.RESCHEDULE_MODES:
            raise ValueError(f"mode must be one of {self.RESCHEDULE_MODES}, got {mode!r}")
        plan = self.require_plan()
        if mode == "full":
            key = self.cluster.state_key()
            new_plan = self._full_plans.get(key)
            if new_plan is None:
                new_plan = self.scheduler.schedule(
                    self.cluster, self.model, self.workload, self.request_rate, self.slo
                ).plan
                self._full_plans[key] = new_plan
        elif mode == "lightweight":
            result = self.rescheduler.reschedule(
                plan, self.cluster, self.model, self.workload, self.request_rate, self.slo
            )
            new_plan = result.plan
        else:
            available = set(self.cluster.gpu_ids)
            surviving = [g for g in plan.groups if set(g.gpu_ids) <= available]
            if not surviving:
                raise SchedulingError(
                    "every serving group lost a GPU; cannot continue without rescheduling"
                )
            if len({g.phase for g in surviving}) < 2:
                raise SchedulingError(
                    "surviving groups cover only one phase; cannot continue without rescheduling"
                )
            new_plan = DeploymentPlan(
                groups=tuple(surviving),
                routing=None,
                model_name=plan.model_name,
                kv_transport_bits=plan.kv_transport_bits,
            )
        if validate_on is not None and not validate_on.is_empty and new_plan != plan:
            available = set(self.cluster.gpu_ids)
            if all(set(g.gpu_ids) <= available for g in plan.groups):
                incumbent = self._shadow_attainment(plan, validate_on)
                candidate = self._shadow_attainment(new_plan, validate_on)
                if candidate < incumbent:
                    return None
        self._install_plan(new_plan, reason=f"{reason}, mode={mode}")
        return new_plan

    def handle_gpu_failure(
        self, failed_gpu_ids: Sequence[int], mode: str = "lightweight"
    ) -> DeploymentPlan:
        """React to GPU failures: remove the GPUs, then re-plan.

        ``mode`` selects the Figure 11 strategies: ``"lightweight"`` (flip-only
        rescheduling, no reload), ``"full"`` (re-run the whole scheduler on the
        surviving GPUs) or ``"none"`` (just drop the affected groups).
        """
        if mode not in self.RESCHEDULE_MODES:
            raise ValueError(f"mode must be one of {self.RESCHEDULE_MODES}, got {mode!r}")
        failed = sorted(set(failed_gpu_ids))
        self.set_cluster(
            self.cluster.without_gpus(failed), reason=f"gpu failure ({failed})"
        )
        return self.replan_capacity(mode=mode, reason=f"gpu failure ({failed})")

    def handle_gpu_recovery(
        self, recovered_gpu_ids: Sequence[int], mode: str = "full"
    ) -> DeploymentPlan:
        """React to capacity recovery: revive removed GPUs, then re-plan.

        The inverse of :meth:`handle_gpu_failure` — previously removed GPUs
        rejoin by global id (:meth:`~repro.hardware.cluster.Cluster.with_gpus`)
        and the deployment re-expands onto them.  The default mode is
        ``"full"``: the §3.4 flip-only rescheduler can re-designate phases of
        *existing* groups but cannot place new groups on revived GPUs, so
        recovering capacity without a full scheduler run would leave the
        rejoined GPUs idle.
        """
        if mode not in self.RESCHEDULE_MODES:
            raise ValueError(f"mode must be one of {self.RESCHEDULE_MODES}, got {mode!r}")
        recovered = sorted(set(recovered_gpu_ids))
        self.set_cluster(
            self.cluster.with_gpus(recovered), reason=f"gpu recovery ({recovered})"
        )
        return self.replan_capacity(mode=mode, reason=f"gpu recovery ({recovered})")

    def process_heartbeats(
        self,
        now: float,
        failure_mode: str = "lightweight",
        recovery_mode: str = "full",
    ) -> Tuple[Optional[GPUFailure], Optional[GPURecovery]]:
        """Poll the heartbeat monitor and fold detected transitions into the system.

        Drains both detection paths of the monitor — recoveries
        (:meth:`~repro.serving.monitor.HeartbeatMonitor.check_recovered`,
        fed by heartbeats resuming on a failed GPU) before new failures
        (:meth:`~repro.serving.monitor.HeartbeatMonitor.check`) — and reacts
        through :meth:`handle_gpu_recovery` / :meth:`handle_gpu_failure`.
        After a failure is handled, the removed GPUs stay on the rebuilt
        monitor's watch list as failed
        (:meth:`~repro.serving.monitor.HeartbeatMonitor.mark_failed`), so a
        comeback heartbeat surfaces as an explicit recovery on a later call —
        fail → recover → fail cycles round-trip without external bookkeeping.
        Replan failures (:class:`~repro.core.exceptions.SchedulingError`)
        propagate to the caller.

        Returns
        -------
        Tuple[Optional[GPUFailure], Optional[GPURecovery]]
            The failure and recovery events detected at ``now`` (either may
            be ``None``).
        """
        recovery = self.monitor.check_recovered(now)
        failure = self.monitor.check(now)
        if recovery is not None:
            revived = sorted(set(recovery.gpu_ids) - set(self.cluster.gpu_ids))
            if revived:
                self.handle_gpu_recovery(revived, mode=recovery_mode)
                self.monitor.heartbeat_all(now)
        if failure is not None:
            dead = sorted(failure.gpu_ids)
            self.handle_gpu_failure(dead, mode=failure_mode)
            self.monitor.heartbeat_all(now)
            self.monitor.mark_failed(dead, now)
        return failure, recovery

    # ------------------------------------------------------------------ reporting
    def attainment_curve(
        self,
        result: SimulationResult,
        slo_scales: Sequence[float],
        slo_type: SLOType = SLOType.E2E,
    ) -> List[float]:
        """SLO attainment of a serve() result swept over SLO scales."""
        return result.attainment_curve(slo_scales, self.reference, slo_type)


__all__ = ["ThunderServe", "ServeEvent"]
