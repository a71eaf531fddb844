"""Live adaptive serving: a time-warped windowed loop with SLO observability.

This module promotes :class:`~repro.serving.system.ThunderServe` from batch
simulation to a long-running service.  :class:`LiveServer` replays a request
trace against the fast engine in bounded windows on a *time-warped* serving
clock (the loop advances the clock window by window instead of sleeping, so a
two-hour trace replays in seconds while keeping wall-clock semantics), and per
window it

1. estimates the health of the installed plan for the window's observed
   request mix with the M/G/1 :class:`~repro.scheduling.estimator.SLOEstimator`
   (per-replica utilisation ``rho`` and routed attainment);
2. serves the window through the engine and measures a telemetry snapshot
   (:class:`WindowTelemetry` — attainment, queue wait, per-tenant breakdown,
   plan id);
3. judges the snapshot under the fixed SLO policy
   (:func:`~repro.serving.slo_objectives.slo_policy`: a realtime or degraded
   profile and its objectives), evaluates the objectives, and emits
   edge-triggered breach events; and
4. on a breach — or a profiler-detected workload shift — triggers the §3.4
   lightweight rescheduler online, so the next window is served by a plan
   re-designated for the observed workload, once shadow validation shows it
   serves the window just served strictly better; and
5. optionally replays a :class:`~repro.faults.FaultSchedule` against the loop:
   capacity events inside the window are compiled into a replica-level
   :class:`~repro.faults.FaultTimeline` and handed to the engine, which
   preempts in-flight work at the exact fault instant and retries it under the
   configured :class:`~repro.faults.RetryPolicy`; at the next window boundary
   the same events fold into the cluster state, where capacity loss triggers a
   failure replan chain with bounded retry/backoff, capacity recovery triggers
   a (shadow-validated) re-expansion replan, network degradation and straggler
   slowdowns reprice the engine transparently, and a total-capacity outage
   degrades gracefully to zero-attainment windows instead of crashing the run.

Plan changes only happen *between* windows, which keeps the loop auditable:
replaying each window's sub-trace against its recorded plan — and, for windows
with mid-window faults, the same compiled fault timeline — in independent
batch simulations reproduces the live run's metrics exactly (the
piecewise-static equivalence contract, enforced by the test suite).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.exceptions import InvalidPlanError, SchedulingError
from repro.core.types import OUTCOME_NAMES, RequestOutcome, SLOType
from repro.faults.retry import RetryPolicy
from repro.faults.state import ClusterFaultState
from repro.faults.taxonomy import CAPACITY_LOSS_KINDS, FaultKind, FaultSchedule
from repro.faults.timeline import FaultTimeline, compile_fault_timeline
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy
from repro.scheduling.estimator import SLOEstimator
from repro.serving.monitor import SLOBreachTracker
from repro.serving.slo_objectives import BreachEvent, evaluate_slo_objectives, slo_policy
from repro.serving.system import ThunderServe
from repro.simulation.metrics import SimulationResult, merge_results
from repro.workload.trace import Trace

#: Replan strategy after a capacity recovery: the §3.4 flip-only rescheduler
#: cannot place new groups on revived GPUs, so re-expansion needs the whole
#: scheduler.
RECOVERY_MODE = "full"
#: Replan strategies tried in order after a capacity loss; the first one that
#: yields a servable plan wins.  Strategies are the Figure 11 modes accepted by
#: :meth:`~repro.serving.system.ThunderServe.replan_capacity`.
FAILURE_MODE_ORDER = ("lightweight", "none")
#: Consecutive failed replan attempts tolerated before the loop backs off.
#: While backed off (and whenever every strategy fails), affected windows are
#: served by the surviving plan — or recorded as zero-attainment outage
#: windows when no servable plan exists.
REPLAN_MAX_RETRIES = 2
#: Window boundaries to skip replan attempts for after
#: :data:`REPLAN_MAX_RETRIES` consecutive failures.
REPLAN_BACKOFF_WINDOWS = 1


def plan_signature(plan: DeploymentPlan) -> str:
    """Stable short identifier of a deployment plan's structure.

    Hashes the group construction (GPU sets, phases, stage layouts) and the
    routing weights (rounded to 1e-6), so two plans that serve identically get
    the same id and any rescheduling that changed phases *or* routing gets a
    new one.  Used as the ``plan_id`` surfaced in windowed telemetry.
    """
    parts: List[object] = []
    for group in sorted(plan.groups, key=lambda g: g.group_id):
        stages: Tuple = ()
        if group.plan is not None:
            stages = tuple(
                (tuple(st.gpu_ids), st.num_layers, st.tp) for st in group.plan.stages
            )
        parts.append((group.group_id, tuple(group.gpu_ids), group.phase.value, stages))
    if plan.routing is not None:
        parts.append(tuple(round(float(v), 6) for v in plan.routing.prefill_weights))
        parts.append(
            tuple(tuple(round(float(v), 6) for v in row) for row in plan.routing.dispatch)
        )
    return f"{zlib.crc32(repr(parts).encode()) & 0xFFFFFFFF:08x}"


@dataclass(frozen=True)
class PlanHealth:
    """Estimator view of how the installed plan handles an observed window."""

    #: highest per-prefill-replica utilisation implied by the routing
    rho: float
    #: routed estimated E2E attainment (``sum_ij z_ij * D_ij``)
    attainment: float


@dataclass
class WindowTelemetry:
    """Telemetry snapshot of one served window of the live loop."""

    #: index of the window within the run (served windows only)
    index: int
    #: window start / end on the serving clock (seconds)
    start: float
    end: float
    #: structural id of the plan the window was served with
    plan_id: str
    #: SLO profile the window was judged under (``realtime`` / ``degraded`` / ...)
    profile: str
    #: requests served in the window
    num_requests: int
    #: always 0: the loop serves every request of the window.  Kept because
    #: readers of the telemetry (perfbench's ledger, the snapshot's
    #: ``shed_fraction``) read it.
    num_shed: int
    #: requests finished in the window
    num_finished: int
    #: observed arrival rate over the window (requests/s)
    request_rate: float
    #: served SLO attainment at the system deadline, per SLO type
    attainment_e2e: float
    attainment_ttft: float
    attainment_tpot: float
    #: mean simulated queue wait of finished requests (0 when none finished)
    mean_queue_wait: float
    #: fraction of the window's requests that finished within its horizon
    completion_rate: float
    #: estimator utilisation / attainment of the plan for the observed mix
    estimated_rho: float
    estimated_attainment: float
    #: whether a new plan was installed at the end of this window
    plan_changed: bool = False
    #: breach events emitted by this window's SLO evaluation
    breaches: Tuple[BreachEvent, ...] = ()
    #: per-tenant E2E attainment for ``"tenant:*"``-tagged requests
    per_tenant_attainment: Dict[str, float] = field(default_factory=dict)
    #: whether the window was a total-capacity outage (nothing served)
    outage: bool = False
    #: whether any injected fault was active while the window was served
    degraded: bool = False
    #: human-readable fault events folded at the boundaries since the previous
    #: served window, then the capacity events the engine applies mid-window
    faults: Tuple[str, ...] = ()
    #: GPUs alive when the window was served (``-1`` when fault injection is off)
    num_gpus_alive: int = -1
    #: capacity replans (``failure`` / ``recovery``) installed at the window
    #: boundaries since the previous served window, in order
    replan_triggers: Tuple[str, ...] = ()
    #: request count per :class:`~repro.core.types.RequestOutcome` name
    #: (sums to ``num_requests``)
    outcome_counts: Dict[str, int] = field(default_factory=dict)

    def snapshot(self) -> Dict[str, float]:
        """Return the metric mapping SLO objectives are evaluated against."""
        total = self.num_requests + self.num_shed
        failed = sum(
            self.outcome_counts.get(outcome.name.lower(), 0)
            for outcome in (RequestOutcome.TIMED_OUT, RequestOutcome.DROPPED_OUTAGE)
        )
        return {
            "attainment_e2e": self.attainment_e2e,
            "attainment_ttft": self.attainment_ttft,
            "attainment_tpot": self.attainment_tpot,
            "mean_queue_wait": self.mean_queue_wait,
            "completion_rate": self.completion_rate,
            "estimated_rho": self.estimated_rho,
            "estimated_attainment": self.estimated_attainment,
            "request_rate": self.request_rate,
            "num_requests": float(self.num_requests),
            "shed_fraction": self.num_shed / total if total else 0.0,
            "failed_fraction": failed / total if total else 0.0,
        }

    def to_dict(self) -> Dict[str, object]:
        """Return the JSON-serialisable dict form of the record (fields in order)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "breaches":
                value = [b.to_dict() for b in value]
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out


@dataclass
class LiveServeConfig:
    """Configuration of the live serving loop.

    Parameters
    ----------
    window_s:
        Serving window length on the time-warped clock (seconds of trace time).
    adapt_to_workload:
        React to workload change (§3.4's first trigger): after a window that
        emits breach events — or, without breaches, one where the workload
        profiler detects a shift — run the lightweight rescheduler.  Every
        candidate is shadow-validated by replaying the window just served
        under it and adopted only when it strictly beats the incumbent's
        simulated attainment there (see
        :meth:`~repro.serving.system.ThunderServe.reschedule_online`): the
        estimator can mis-rank flip candidates near saturation, and an online
        loop must never adopt a plan that demonstrably serves the observed
        workload worse.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` to replay against the
        loop.  Every event folds into the cluster state at the first window
        boundary after its timestamp (the end of the window that contains
        it), where it reprices the engine and drives replanning.  Capacity
        events (preemption, crash, recovery) also act inside their own
        window: they are compiled into a replica-level timeline and applied
        *by the engine* at the exact fault instant — in-flight work on a dead
        replica is preempted and retried under ``retry_policy``.
        Non-capacity events (links, stragglers) act only from that boundary
        on, keeping the piecewise-static contract: within a window the *plan*
        never changes.
    retry_policy:
        :class:`~repro.faults.RetryPolicy` governing the disposition of work
        preempted by mid-window capacity loss (attempt budget, backoff,
        deadline).  ``None`` (default) inherits the engine default — a
        bounded-retry :class:`~repro.faults.RetryPolicy` with exponential
        backoff; pass :meth:`~repro.faults.RetryPolicy.drop_only` to cancel
        preempted work instead.
    adapt_to_capacity:
        React to capacity change (§3.4's second trigger): replan through
        :data:`FAILURE_MODE_ORDER` after a capacity loss, and re-expand onto
        revived GPUs with a :data:`RECOVERY_MODE` replan after a recovery —
        shadow-validated like workload adaptation, but non-strictly (ties keep
        the candidate, see
        :meth:`~repro.serving.system.ThunderServe.replan_capacity`).  When
        off, dead serving groups are still dropped (mode ``"none"``) so the
        surviving replicas keep serving, but nothing re-optimises and revived
        capacity stays idle — the static arm of a chaos comparison.

    Raises
    ------
    ValueError
        If ``window_s`` is not positive.
    """

    window_s: float = 30.0
    adapt_to_workload: bool = True
    faults: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    adapt_to_capacity: bool = True

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")


@dataclass
class LiveServeReport:
    """Everything a live run produced: telemetry, results and breach events."""

    #: per-window telemetry records, in serving order
    windows: List[WindowTelemetry]
    #: per-window simulation results (parallel to ``windows``)
    results: List[SimulationResult]
    #: the plan each window was served with (parallel to ``windows``)
    served_plans: List[DeploymentPlan]
    #: all breach events emitted across the run, in firing order
    breaches: List[BreachEvent]
    #: label of the run
    label: str = "live"
    #: fault-lifecycle log: one entry per applied fault event, in order
    fault_log: List[Dict[str, object]] = field(default_factory=list)

    @property
    def num_plan_changes(self) -> int:
        """Number of plan installations during the run.

        Counts end-of-window adaptations (``plan_changed``) plus every
        failure/recovery replan installed at a window boundary by fault
        handling (``replan_triggers``).
        """
        return sum(int(w.plan_changed) + len(w.replan_triggers) for w in self.windows)

    @property
    def merged(self) -> SimulationResult:
        """All window results merged into one trace-level result."""
        return merge_results(self.results, label=self.label)

    def worst_window_attainment(self) -> float:
        """Lowest windowed E2E attainment of the run (1.0 for an empty run)."""
        if not self.windows:
            return 1.0
        return min(w.attainment_e2e for w in self.windows)

    def fault_stats(self) -> Dict[str, float]:
        """Summarise the run's fault lifecycle (all-zero without faults).

        Returns
        -------
        Dict[str, float]
            ``outage_windows`` / ``degraded_windows`` — window counts;
            ``attainment_under_failure`` — mean windowed E2E attainment of
            degraded windows (outages included; 1.0 when never degraded);
            ``attainment_healthy`` — same over fault-free windows;
            ``post_recovery_attainment`` — mean attainment from the last
            recovery-triggered replan onwards (1.0 when none happened);
            ``num_failure_replans`` / ``num_recovery_replans`` — fault-triggered
            replans installed at window boundaries; ``mean_time_to_replan_s``
            — mean *simulated* seconds from a capacity loss taking effect to
            the window boundary of the next successful replan (0 when
            replanned at the same boundary).  It is not the replan's wall
            time: perfbench reports that as ``scheduling.replan_*_s``;
            ``mean_mttr_s`` — mean time between a capacity-loss event and the
            recovery event that revived its GPUs; ``requests_<outcome>`` — the
            run-level request count per
            :class:`~repro.core.types.RequestOutcome` name, summed over the
            windowed ``outcome_counts``.
        """
        windows = self.windows
        degraded = [w.attainment_e2e for w in windows if w.degraded]
        healthy = [w.attainment_e2e for w in windows if not w.degraded]
        recovery_indices = [w.index for w in windows if "recovery" in w.replan_triggers]
        post = [
            w.attainment_e2e
            for w in windows
            if recovery_indices and w.index >= recovery_indices[-1]
        ]
        time_to_replan = [
            float(e["replanned_at"]) - float(e["applied_at"])  # type: ignore[arg-type]
            for e in self.fault_log
            if e.get("replan_ok") and "replanned_at" in e
        ]
        loss_kinds = {kind.value for kind in CAPACITY_LOSS_KINDS}
        mttr: List[float] = []
        for i, entry in enumerate(self.fault_log):
            if entry["kind"] != FaultKind.RECOVERY.value:
                continue
            revived = set(entry["gpu_ids"])  # type: ignore[arg-type]
            for prior in reversed(self.fault_log[:i]):
                if prior["kind"] in loss_kinds and revived & set(prior["gpu_ids"]):  # type: ignore[arg-type]
                    mttr.append(float(entry["time"]) - float(prior["time"]))  # type: ignore[arg-type]
                    break

        def _mean(values: List[float], default: float) -> float:
            return float(np.mean(values)) if values else default

        outcome_totals = {name: 0 for name in OUTCOME_NAMES}
        for w in windows:
            for name, count in w.outcome_counts.items():
                outcome_totals[name] = outcome_totals.get(name, 0) + int(count)
        return {
            **{f"requests_{name}": float(n) for name, n in outcome_totals.items()},
            "outage_windows": float(sum(1 for w in windows if w.outage)),
            "degraded_windows": float(len(degraded)),
            "attainment_under_failure": _mean(degraded, 1.0),
            "attainment_healthy": _mean(healthy, 1.0),
            "post_recovery_attainment": _mean(post, 1.0),
            "num_failure_replans": float(
                sum(w.replan_triggers.count("failure") for w in windows)
            ),
            "num_recovery_replans": float(
                sum(w.replan_triggers.count("recovery") for w in windows)
            ),
            "mean_time_to_replan_s": _mean(time_to_replan, 0.0),
            "mean_mttr_s": _mean(mttr, 0.0),
        }

    def to_dicts(self) -> List[Dict[str, object]]:
        """Return the windowed telemetry stream as JSON-serialisable dicts."""
        return [w.to_dict() for w in self.windows]


class LiveServer:
    """Windowed adaptive serving loop over a :class:`ThunderServe` system.

    Parameters
    ----------
    system:
        A deployed serving system (``deploy()`` / ``adopt_plan()`` must have
        installed a plan before :meth:`run`).
    config:
        Loop configuration; defaults to :class:`LiveServeConfig`.
    on_window:
        Optional callback invoked with each :class:`WindowTelemetry` as it is
        measured, breach events included (the streaming telemetry hook).
    """

    def __init__(
        self,
        system: ThunderServe,
        config: Optional[LiveServeConfig] = None,
        on_window: Optional[Callable[[WindowTelemetry], None]] = None,
    ) -> None:
        self.system = system
        self.config = config or LiveServeConfig()
        self.on_window = on_window
        self._reset_run_state()

    def _reset_run_state(self) -> None:
        """Forget everything a previous :meth:`run` left behind."""
        self.tracker = SLOBreachTracker()
        self._fault_state: Optional[ClusterFaultState] = None
        self._pending_faults: List = []
        self._fault_log: List[Dict[str, object]] = []
        self._awaiting_replan: List[Dict[str, object]] = []
        #: events folded and replans installed at boundaries since the last
        #: served window; that window's telemetry takes both
        self._fault_notes: List[str] = []
        self._replan_triggers: List[str] = []
        self._last_window: Optional[Trace] = None
        self._replan_failures = 0
        self._replan_cooldown = 0
        self._unservable = False
        self._system_stale = False

    # ------------------------------------------------------------------ estimation
    def _routing(self, plan: DeploymentPlan) -> RoutingPolicy:
        """Return the plan's routing policy (uniform when the plan has none)."""
        if plan.routing is not None:
            return plan.routing
        return RoutingPolicy.uniform(
            [g.group_id for g in plan.prefill_groups],
            [g.group_id for g in plan.decode_groups],
        )

    def plan_health(self, window: Trace) -> PlanHealth:
        """Estimate the installed plan's health for one window's observed mix.

        Builds an M/G/1 :class:`~repro.scheduling.estimator.SLOEstimator` for
        the window's empirical workload (means and arrival rate) and prices the
        plan's routing through it: per-prefill-replica utilisation follows the
        routed share of the observed rate, decode operating batches follow the
        routed token demand, and the routed attainment aggregates the pair
        matrix exactly like the lower-level solver does.  The estimator takes
        its cost models from the system's pool, so each window reprices only
        the window's mix, not the replicas.

        Returns
        -------
        PlanHealth
            ``rho`` (hottest prefill replica) and routed E2E ``attainment``.
        """
        system = self.system
        plan = system.require_plan()
        rate = window.request_rate or system.request_rate
        from repro.workload.spec import WorkloadStats

        stats = WorkloadStats(
            mean_input_length=window.mean_input_length,
            mean_output_length=window.mean_output_length,
            request_rate=rate,
            num_requests=len(window),
        )
        estimator = SLOEstimator(
            system.cluster,
            system.model,
            stats.as_spec(name="live-window"),
            system.slo,
            rate,
            kv_transport_bits=plan.kv_transport_bits,
            params=system.params,
            prefill_batch_requests=system.simulator_config.max_prefill_batch_requests,
            cost_models=system.cost_models,
        )
        routing = self._routing(plan)
        prefills = [
            estimator.replica_performance(plan.group(gid))
            for gid in routing.prefill_group_ids
        ]
        decodes = [
            estimator.replica_performance(plan.group(gid))
            for gid in routing.decode_group_ids
        ]
        z = routing.joint
        utilizations, batches = estimator.operating_points(
            prefills,
            decodes,
            routing.x.tolist(),
            [float(z[:, j].sum()) for j in range(z.shape[1])],
        )
        d = estimator.attainment_matrix(
            prefills, decodes, prefill_utilizations=utilizations, decode_batches=batches
        )
        return PlanHealth(
            rho=max(utilizations) if utilizations else 0.0,
            attainment=float((z * d).sum()),
        )

    # ------------------------------------------------------------------ telemetry
    def _measure(
        self,
        index: int,
        start: float,
        end: float,
        result: SimulationResult,
        health: PlanHealth,
        served_plan_id: str,
    ) -> WindowTelemetry:
        """Build the telemetry record of one served window."""
        slo = self.system.slo
        a = result.arrays
        queue_waits = a.queue_time()[a.finished]
        met = a.meets(slo, SLOType.E2E).tolist()
        tenant_hits: Dict[str, List[bool]] = {}
        for tag, hit in zip(result.workload_tags().tolist(), met):
            if tag and tag.startswith("tenant:"):
                tenant_hits.setdefault(tag.split(":", 1)[1], []).append(hit)
        per_tenant = {
            tenant: sum(hits) / len(hits) for tenant, hits in sorted(tenant_hits.items())
        }
        outcome_counts = {k: int(v) for k, v in result.outcome_counts().items()}
        return WindowTelemetry(
            index=index,
            start=start,
            end=end,
            plan_id=served_plan_id,
            profile="",  # set by the caller from the SLO policy
            num_requests=result.num_requests,
            num_shed=0,
            num_finished=result.num_finished,
            request_rate=result.num_requests / (end - start) if end > start else 0.0,
            attainment_e2e=result.slo_attainment(slo, SLOType.E2E),
            attainment_ttft=result.slo_attainment(slo, SLOType.TTFT),
            attainment_tpot=result.slo_attainment(slo, SLOType.TPOT),
            mean_queue_wait=float(np.mean(queue_waits)) if queue_waits.size else 0.0,
            completion_rate=result.completion_rate,
            estimated_rho=health.rho,
            estimated_attainment=health.attainment,
            per_tenant_attainment=per_tenant,
            outcome_counts=outcome_counts,
        )

    # ------------------------------------------------------------------ loop
    def run(self, trace: Trace, label: str = "live") -> LiveServeReport:
        """Serve a whole trace adaptively and return the run report.

        Parameters
        ----------
        trace:
            The request trace to replay on the time-warped serving clock.
        label:
            Run label stamped onto window results and breach events.

        Returns
        -------
        LiveServeReport
            Windowed telemetry, per-window simulation results, the plan each
            window was served with, and every breach event fired.
        """
        system = self.system
        config = self.config
        system.require_plan()
        self._reset_run_state()
        if config.faults is not None and len(config.faults) > 0:
            # Times are checked per window; validate ids/counts up front.
            config.faults.validate(float("inf"), system.cluster)
            self._fault_state = ClusterFaultState(system.cluster)
            self._pending_faults = list(config.faults)
        windows: List[WindowTelemetry] = []
        results: List[SimulationResult] = []
        plans: List[DeploymentPlan] = []
        if trace.is_empty:
            return LiveServeReport(windows, results, plans, breaches=[], label=label)
        arrival = trace.arrays.arrival_time
        start = float(arrival[0])
        end = float(arrival[-1])
        window_start = start
        index = 0
        while window_start <= end:
            w_start = window_start
            window_end = w_start + config.window_s
            window = trace.window(w_start, window_end)
            window_start = window_end
            self._apply_due_faults(w_start)
            if window.is_empty:
                continue
            state = self._fault_state
            degraded = state is not None and state.degraded
            served_plan = system.require_plan()
            outage = self._unservable
            if outage:
                # No servable capacity: every arrival is an outage drop (an SLO
                # miss), so the window reports attainment 0 and the run goes on.
                faults, fault_notes = None, ()
                served_plan_id = ""
                health = PlanHealth(rho=0.0, attainment=0.0)
                result = SimulationResult.dropped(
                    window, makespan=window_end, label=f"{label}[{index}]"
                )
            else:
                served_plan_id = plan_signature(served_plan)
                faults, fault_notes = self._intra_window_faults(w_start, window_end)
                degraded = degraded or faults is not None
                health = self.plan_health(window)
                result = system.serve(
                    window,
                    label=f"{label}[{index}]",
                    faults=faults,
                    retry=config.retry_policy,
                )
            telemetry = self._measure(index, w_start, window_end, result, health, served_plan_id)
            telemetry.outage = outage
            if state is not None:
                telemetry.faults = tuple(self._fault_notes) + fault_notes
                telemetry.degraded = degraded
                telemetry.num_gpus_alive = len(state.alive_gpu_ids)
                telemetry.replan_triggers = tuple(self._replan_triggers)
                self._fault_notes = []
                self._replan_triggers = []
            snapshot = telemetry.snapshot()
            profile, objectives = slo_policy(snapshot)
            telemetry.profile = profile
            report = evaluate_slo_objectives(snapshot, objectives, profile=profile)
            events = self.tracker.update(
                report, time=window_end, window_index=index, context=label
            )
            telemetry.breaches = tuple(events)
            if not outage:
                telemetry.plan_changed = self._adapt(events, window, label)
                self._last_window = window
            if self.on_window is not None:
                self.on_window(telemetry)
            windows.append(telemetry)
            results.append(result)
            plans.append(served_plan)
            index += 1
        # Fold the final window's events so the fault log covers the whole run
        # (the loop exits before their boundary would otherwise come due).
        self._apply_due_faults(window_start)
        return LiveServeReport(
            windows=windows,
            results=results,
            served_plans=plans,
            breaches=[event for w in windows for event in w.breaches],
            label=label,
            fault_log=list(self._fault_log),
        )


    # ------------------------------------------------------------------ faults
    def _apply_due_faults(self, boundary: float) -> None:
        """Fold fault events due before the ``boundary`` into the serving system.

        ``boundary`` is the start of the window about to be served: events
        from already-served windows (whose capacity effect the engine already
        applied in-run) are folded through the :class:`ClusterFaultState`
        (idempotent against overlapping fail/recover sequences), the system's
        cluster, network and straggler view is re-synced, and capacity changes
        trigger the failure/recovery replan chain.  The folded events'
        descriptions and the installed replan's trigger are queued for the
        next served window's telemetry.  Events inside the upcoming window
        stay pending — :meth:`_intra_window_faults` compiles them for the
        engine.  A no-op when fault injection is off.
        """
        state = self._fault_state
        if state is None:
            return
        system = self.system
        config = self.config
        descriptions: List[str] = []
        lost: set = set()
        gained: set = set()
        network_changed = False
        slowdown_changed = False
        while self._pending_faults and self._pending_faults[0].time < boundary:
            event = self._pending_faults.pop(0)
            delta = state.apply(event)
            descriptions.append(event.describe())
            lost.update(delta.removed)
            gained.update(delta.revived)
            network_changed = network_changed or delta.network_changed
            slowdown_changed = slowdown_changed or delta.slowdown_changed
            entry: Dict[str, object] = {
                "time": event.time,
                "kind": event.kind.value,
                "gpu_ids": list(event.gpu_ids),
                "applied_at": boundary,
                "replan_trigger": "",
                "replan_ok": False,
            }
            self._fault_log.append(entry)
            if event.kind in CAPACITY_LOSS_KINDS and delta.removed:
                self._awaiting_replan.append(entry)
        self._fault_notes.extend(descriptions)
        if state.outage:
            # Total loss: nothing to sync the system against; windows are
            # recorded as zero-attainment outages until capacity recovers.
            self._unservable = True
            self._system_stale = True
            return
        was_unservable = self._unservable
        if lost or gained or network_changed or self._system_stale:
            cluster = state.current_cluster()
            if cluster is not None:
                system.set_cluster(
                    cluster,
                    reason="fault injection: "
                    + ("; ".join(descriptions) or "re-sync after outage"),
                )
        if slowdown_changed or self._system_stale:
            system.apply_gpu_slowdowns(state.active_slowdowns(), reason="fault injection")
        self._system_stale = False
        trigger = ""
        if lost or was_unservable:
            modes = FAILURE_MODE_ORDER if config.adapt_to_capacity else ("none",)
            reason = (
                f"fault injection ({'; '.join(descriptions)})"
                if descriptions
                else "fault injection (replan retry)"
            )
            if self._attempt_replan(modes, reason, validate_window=None):
                trigger = "failure"
        elif gained and config.adapt_to_capacity:
            reason = f"capacity recovery ({'; '.join(descriptions)})"
            if self._attempt_replan((RECOVERY_MODE,), reason, self._last_window):
                trigger = "recovery"
        if trigger:
            self._replan_triggers.append(trigger)
        plan = system.require_plan()
        alive = set(system.cluster.gpu_ids)
        self._unservable = not all(set(g.gpu_ids) <= alive for g in plan.groups)
        if trigger == "failure" and not self._unservable:
            for entry in self._awaiting_replan:
                entry["replan_trigger"] = trigger
                entry["replan_ok"] = True
                entry["replanned_at"] = boundary
            self._awaiting_replan = []

    def _intra_window_faults(
        self, start: float, end: float
    ) -> Tuple[Optional[FaultTimeline], Tuple[str, ...]]:
        """Compile the upcoming window's capacity events into an engine timeline.

        Peeks — without consuming — the pending fault events whose timestamps
        fall inside ``[start, end)`` and compiles the capacity subset
        (preemption, crash, recovery) against the installed plan into a
        :class:`~repro.faults.FaultTimeline` the engine applies mid-run,
        preempting and retrying in-flight work at the exact fault instant.
        The events stay pending: they fold into the cluster state — and drive
        replanning — at the next window boundary.  Recovery of capacity that
        was already dead when the window began compiles to nothing (the plan
        no longer contains those GPUs); it takes effect through the boundary
        replan instead.  Returns ``(None, ())`` when fault injection is off
        or nothing in the window touches the plan.
        """
        state = self._fault_state
        if state is None:
            return None, ()
        subset = [
            event
            for event in self._pending_faults
            if start <= event.time < end
            and (event.kind in CAPACITY_LOSS_KINDS or event.kind is FaultKind.RECOVERY)
        ]
        if not subset:
            return None, ()
        plan = self.system.require_plan()
        timeline = compile_fault_timeline(FaultSchedule.from_events(subset), plan)
        if not timeline:
            return None, ()
        notes = tuple(f"in-engine: {event.describe()}" for event in subset)
        return timeline, notes

    def _attempt_replan(
        self, modes: Tuple[str, ...], reason: str, validate_window: Optional[Trace]
    ) -> bool:
        """Try capacity-replan strategies in order, with bounded retry/backoff.

        Returns ``True`` when a new plan was installed.  A strategy that
        raises :class:`~repro.core.exceptions.SchedulingError` (or yields a
        plan missing a phase, which the install rejects with
        :class:`~repro.core.exceptions.InvalidPlanError`) falls through to the
        next; when every strategy fails, the consecutive-failure counter
        advances and — after :data:`REPLAN_MAX_RETRIES` failures — replan
        attempts are suppressed for :data:`REPLAN_BACKOFF_WINDOWS` boundaries.
        """
        if self._replan_cooldown > 0:
            self._replan_cooldown -= 1
            return False
        system = self.system
        for mode in modes:
            try:
                installed = system.replan_capacity(
                    mode=mode, reason=reason, validate_on=validate_window
                )
            except (SchedulingError, InvalidPlanError):
                continue
            self._replan_failures = 0
            return installed is not None
        self._replan_failures += 1
        if self._replan_failures >= REPLAN_MAX_RETRIES:
            self._replan_cooldown = REPLAN_BACKOFF_WINDOWS
            self._replan_failures = 0
        return False

    def _adapt(self, events: List[BreachEvent], window: Trace, label: str) -> bool:
        """Run the online rescheduling policy after one window; return whether the plan changed."""
        if not self.config.adapt_to_workload:
            return False
        system = self.system
        if events:
            names = ",".join(e.objective for e in events)
            return system.reschedule_online(
                reason=f"slo breach ({names}) during {label}", validate_on=window
            )
        shift = system.profiler.detect_shift()
        if shift is None:
            return False
        return system.reschedule_online(
            stats=shift.current,
            reason=f"lightweight rescheduling ({shift.describe()})",
            validate_on=window,
        )


__all__ = [
    "LiveServer",
    "LiveServeConfig",
    "LiveServeReport",
    "WindowTelemetry",
    "PlanHealth",
    "plan_signature",
]
