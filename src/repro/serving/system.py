"""The ThunderServe system facade.

:class:`ThunderServe` wires the components of §4 together into the paper's overall
routine:

1. ``deploy()`` runs the scheduling algorithm and instantiates the model replicas
   (in this reproduction, the replica cost models and the discrete-event simulator
   take the place of real GPU processes);
2. ``serve()`` replays a request trace against the current deployment plan;
3. the workload profiler continuously monitors the observed request mix;
4. on a detected workload shift, or a GPU failure delivered as a typed
   :class:`~repro.faults.FaultEvent`, the lightweight rescheduler adjusts phase
   designations and the orchestration without reloading parameters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.exceptions import InvalidPlanError, SchedulingError
from repro.core.types import SLOSpec, SLOType
from repro.costmodel.latency import CostModelParams, CostModelPool, DEFAULT_PARAMS
from repro.costmodel.reference import ReferenceLatency, a100_reference_latency
from repro.faults.retry import RetryPolicy
from repro.faults.timeline import FaultTimeline
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.rescheduling import LightweightRescheduler
from repro.scheduling.scheduler import ScheduleResult, Scheduler, SchedulerConfig
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import SimulationResult
from repro.workload.profiler import WorkloadProfiler
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import Trace


def _replay_inputs(cluster: Cluster, plan: DeploymentPlan, config: SimulatorConfig) -> tuple:
    """Everything a simulator run of ``plan`` reads from ``cluster`` and ``config``.

    A run prices each replica from the network's entries among the plan's
    GPUs and those GPUs' specs, and each KV handoff from the links between
    them; it reads the slowdowns of those GPUs and the rest of ``config``.
    Nothing else of the cluster (other GPUs, their links, their
    availability) reaches it.
    """
    ids = sorted({g for group in plan.groups for g in group.gpu_ids})
    slowdowns = dict(config.gpu_slowdowns)
    return (
        cluster.network.state_key_among(ids),
        tuple(cluster.gpu(g).spec for g in ids),
        tuple(slowdowns.get(g, 1.0) for g in ids),
        replace(config, gpu_slowdowns=()),
    )


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

    The system prices each replica once: one
    :class:`~repro.costmodel.latency.CostModelPool`, ``cost_models``, serves
    every cost model it builds — its serving simulator, shadow replays,
    deploy and replan searches and the live loop's plan-health estimator —
    and lives and dies with the system.
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
        self.cost_models = CostModelPool()
        self.scheduler = Scheduler(scheduler_config or SchedulerConfig(), self.cost_models)
        self.simulator_config = simulator_config or SimulatorConfig()
        self.reference: ReferenceLatency = a100_reference_latency(model, workload, params=params)
        self.slo = slo or self.reference.slo_spec(5.0)
        self.rescheduler = LightweightRescheduler(
            kv_transport_bits=self.scheduler.config.kv_transport_bits,
            params=params,
            cost_models=self.cost_models,
        )
        self.profiler = WorkloadProfiler()
        self.plan: Optional[DeploymentPlan] = None
        self.schedule_result: Optional[ScheduleResult] = None
        self.events: List[ServeEvent] = []
        #: simulator reused across serve() calls; rebuilt when the plan changes
        self._simulator: Optional[ServingSimulator] = None
        #: the simulator, trace and result of the last serve() that ran
        #: without in-engine faults; see _served_attainment
        self._last_served: Optional[tuple] = None
        #: full and lightweight replan plans keyed by mode and
        #: ``Cluster.state_key()`` (plus the incumbent plan for lightweight
        #: replans); see replan_capacity
        self._replans: Dict[tuple, DeploymentPlan] = {}

    # ------------------------------------------------------------------ deployment
    def deploy(self, seed: Optional[int] = None) -> DeploymentPlan:
        """Run the scheduling algorithm and install the resulting deployment plan.

        With the scheduler's own seed (``seed`` ``None`` or equal to
        ``SchedulerConfig.seed``) the search is exactly the one a ``"full"``
        :meth:`replan_capacity` runs on this cluster state, so its plan also
        seeds that replan's memo entry: a later recovery to this state reuses
        it instead of searching again.
        """
        result = self.scheduler.schedule(
            self.cluster, self.model, self.workload, self.request_rate, self.slo, seed=seed
        )
        self.schedule_result = result
        if seed is None or seed == self.scheduler.config.seed:
            self._replans[("full", self.cluster.state_key(), None)] = result.plan
        self._install_plan(result.plan, reason="initial deployment")
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
        simulator state, including the routing RNG, so reuse is exact) until
        the plan, cluster or slowdowns change; its cost models come from the
        system's pool, so even a rebuilt simulator finds the replicas it has
        priced before with their decode-step rows and prefill memo warm.  A
        run without in-engine faults is remembered, so a shadow replay of the
        same window on the same plan reuses it (:meth:`reschedule_online`,
        :meth:`replan_capacity`).

        ``faults`` / ``retry`` are forwarded to
        :meth:`~repro.simulation.engine.ServingSimulator.run`: a compiled
        :class:`~repro.faults.timeline.FaultTimeline` is applied *inside* the
        run (replica deaths dispose in-flight requests under the
        :class:`~repro.faults.retry.RetryPolicy`) instead of the trace being
        sliced into windows around each fault.
        """
        plan = self.require_plan()
        if self._simulator is None:
            self._simulator = self._new_simulator(plan)
        self.profiler.observe_many(trace)
        result = self._simulator.run(trace, label=label, faults=faults, retry=retry)
        self._last_served = (self._simulator, trace, result) if not faults else None
        return result

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
            replay identically, so it is rejected without replaying.  When
            ``validate_on`` is the window the last :meth:`serve` ran without
            in-engine faults on the incumbent, and nothing that replay reads
            has changed since, the incumbent's replay would repeat that serve,
            so its attainment is reused instead
            (:meth:`_served_attainment`).  ``None`` (default) trusts the
            estimator.

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
            incumbent = self._served_attainment(validate_on, plan)
            if incumbent is None:
                incumbent = self._shadow_attainment(plan, validate_on)
            candidate = self._shadow_attainment(result.plan, validate_on)
            if candidate <= incumbent:
                return False
        self._install_plan(result.plan, reason=reason)
        self.profiler.set_reference(stats)
        return True

    def _new_simulator(self, plan: DeploymentPlan) -> ServingSimulator:
        """A simulator of ``plan`` on the current cluster, priced from the pool."""
        return ServingSimulator(
            self.cluster, plan, self.model, params=self.params,
            config=self.simulator_config, cost_models=self.cost_models,
        )

    def _shadow_attainment(self, plan: DeploymentPlan, trace: Trace) -> float:
        """Simulated E2E attainment of ``plan`` on ``trace``.

        Runs a fresh simulator, so no serving state is touched; its cost
        models come from the system's pool, whose memos only cache prices.
        """
        return self._new_simulator(plan).run(trace, label="shadow").slo_attainment(self.slo)

    def _served_attainment(self, trace: Trace, plan: DeploymentPlan) -> Optional[float]:
        """E2E attainment of the last serve() when it ran ``plan`` on ``trace`` as a shadow would.

        That holds when the last serve() ran ``plan`` on ``trace`` without
        in-engine faults, and everything a run of ``plan`` reads is still
        bitwise what that serve read (:func:`_replay_inputs`).  A recovery
        that revives GPUs outside the plan, or a brownout on links between
        other GPUs, swaps the cluster but keeps those inputs.  The shadow
        replay would then run the same simulation from the same reset state:
        only its label differs.  ``None`` when that does not hold.
        """
        served = self._last_served
        if served is None:
            return None
        simulator, served_trace, result = served
        if served_trace is not trace or simulator.plan != plan:
            return None
        if _replay_inputs(simulator.cluster, plan, simulator.config) != _replay_inputs(
            self.cluster, plan, self.simulator_config
        ):
            return None
        return result.slo_attainment(self.slo)

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
        the new cluster's matrices.  The installed plan is left untouched:
        callers that changed capacity must follow up with
        :meth:`replan_capacity` (or :meth:`handle_gpu_failure`, which does
        both).
        """
        self.cluster = cluster
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
        construction, so it is installed without replaying.  When the
        validation trace is the window the last :meth:`serve` ran without
        in-engine faults on the incumbent, and nothing that replay reads has
        changed since, the served attainment stands in for the incumbent's
        replay (:meth:`_served_attainment`).

        ``"full"`` and ``"lightweight"`` replans are memoized per system.  A
        full replan is keyed on
        :meth:`~repro.hardware.cluster.Cluster.state_key`, a lightweight one on
        that key and the incumbent plan (it keeps the incumbent's groups and
        parallel plans): a state seen before reuses the plan its first search
        returned.  This is exact because everything else the searches read is
        fixed for the system's lifetime — the model, workload,
        ``request_rate``, ``slo`` and the scheduler and rescheduler configs
        with their integer seeds have no setter — and both searches are
        deterministic for a given seed.  A search that raises stores nothing.
        Shadow validation, the install and its event run the same on a hit as
        on a miss.
        """
        if mode not in self.RESCHEDULE_MODES:
            raise ValueError(f"mode must be one of {self.RESCHEDULE_MODES}, got {mode!r}")
        plan = self.require_plan()
        if mode != "none":
            key = (mode, self.cluster.state_key(), plan if mode == "lightweight" else None)
            new_plan = self._replans.get(key)
            if new_plan is None:
                if mode == "full":
                    new_plan = self.scheduler.schedule(
                        self.cluster, self.model, self.workload, self.request_rate, self.slo
                    ).plan
                else:
                    new_plan = self.rescheduler.reschedule(
                        plan, self.cluster, self.model, self.workload, self.request_rate,
                        self.slo,
                    ).plan
                self._replans[key] = new_plan
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
                incumbent = self._served_attainment(validate_on, plan)
                if incumbent is None:
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
