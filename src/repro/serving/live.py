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
2. optionally sheds load at admission when the estimator reports the plan
   would run beyond a configured utilisation ceiling;
3. serves the admitted window through the engine and measures a telemetry
   snapshot (:class:`WindowTelemetry` — attainment, queue wait, per-tenant
   breakdown, plan id);
4. resolves the declarative SLO-objective config to a profile
   (realtime/degraded, see :mod:`repro.serving.slo_objectives`), evaluates the
   objectives, and emits edge-triggered breach events; and
5. on a breach — or a profiler-detected workload shift — triggers the §3.4
   lightweight rescheduler online, so the next window is served by a plan
   re-designated for the observed workload; and
6. optionally replays a :class:`~repro.faults.FaultSchedule` against the loop:
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

For integration into an asyncio application, :meth:`LiveServer.stream` wraps
the same loop as an async generator and can optionally pace windows in scaled
wall-clock time.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

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
from repro.serving.slo_objectives import (
    BreachEvent,
    auto_slo_config,
    evaluate_slo_objectives,
    resolve_slo_objectives,
)
from repro.serving.system import ThunderServe
from repro.simulation.metrics import SimulationResult, merge_results
from repro.workload.trace import Trace

#: Replan strategy after a capacity recovery: the §3.4 flip-only rescheduler
#: cannot place new groups on revived GPUs, so re-expansion needs the whole
#: scheduler.
RECOVERY_MODE = "full"
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
    #: arrival rate (requests/s) the estimate was computed for
    request_rate: float


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
    #: requests that arrived / were shed at admission / finished in the window
    num_requests: int
    num_shed: int
    num_finished: int
    #: observed arrival rate over the window (requests/s)
    request_rate: float
    #: served SLO attainment at the system deadline, per SLO type
    attainment_e2e: float
    attainment_ttft: float
    attainment_tpot: float
    #: mean simulated queue wait of finished requests (0 when none finished)
    mean_queue_wait: float
    #: fraction of admitted requests that finished within the window horizon
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
    #: human-readable fault events applied at this window's start
    faults: Tuple[str, ...] = ()
    #: GPUs alive when the window was served (``-1`` when fault injection is off)
    num_gpus_alive: int = -1
    #: capacity replan installed at this window's start (``""``/``failure``/``recovery``)
    replan_trigger: str = ""
    #: request count per :class:`~repro.core.types.RequestOutcome` name,
    #: including admission sheds (sums to ``num_requests + num_shed``)
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
        """Return the JSON-serialisable dict form of the record."""
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "plan_id": self.plan_id,
            "profile": self.profile,
            "num_requests": self.num_requests,
            "num_shed": self.num_shed,
            "num_finished": self.num_finished,
            "request_rate": self.request_rate,
            "attainment_e2e": self.attainment_e2e,
            "attainment_ttft": self.attainment_ttft,
            "attainment_tpot": self.attainment_tpot,
            "mean_queue_wait": self.mean_queue_wait,
            "completion_rate": self.completion_rate,
            "estimated_rho": self.estimated_rho,
            "estimated_attainment": self.estimated_attainment,
            "plan_changed": self.plan_changed,
            "breaches": [b.to_dict() for b in self.breaches],
            "per_tenant_attainment": dict(self.per_tenant_attainment),
            "outage": self.outage,
            "degraded": self.degraded,
            "faults": list(self.faults),
            "num_gpus_alive": self.num_gpus_alive,
            "replan_trigger": self.replan_trigger,
            "outcome_counts": dict(self.outcome_counts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "WindowTelemetry":
        """Rebuild a record from its dict form (inverse of :meth:`to_dict`)."""
        return cls(
            index=int(data["index"]),  # type: ignore[arg-type]
            start=float(data["start"]),  # type: ignore[arg-type]
            end=float(data["end"]),  # type: ignore[arg-type]
            plan_id=str(data["plan_id"]),
            profile=str(data["profile"]),
            num_requests=int(data["num_requests"]),  # type: ignore[arg-type]
            num_shed=int(data["num_shed"]),  # type: ignore[arg-type]
            num_finished=int(data["num_finished"]),  # type: ignore[arg-type]
            request_rate=float(data["request_rate"]),  # type: ignore[arg-type]
            attainment_e2e=float(data["attainment_e2e"]),  # type: ignore[arg-type]
            attainment_ttft=float(data["attainment_ttft"]),  # type: ignore[arg-type]
            attainment_tpot=float(data["attainment_tpot"]),  # type: ignore[arg-type]
            mean_queue_wait=float(data["mean_queue_wait"]),  # type: ignore[arg-type]
            completion_rate=float(data["completion_rate"]),  # type: ignore[arg-type]
            estimated_rho=float(data["estimated_rho"]),  # type: ignore[arg-type]
            estimated_attainment=float(data["estimated_attainment"]),  # type: ignore[arg-type]
            plan_changed=bool(data["plan_changed"]),
            breaches=tuple(
                BreachEvent.from_dict(b) for b in data.get("breaches", ())  # type: ignore[union-attr]
            ),
            per_tenant_attainment=dict(data.get("per_tenant_attainment", {})),  # type: ignore[arg-type]
            outage=bool(data.get("outage", False)),
            degraded=bool(data.get("degraded", False)),
            faults=tuple(str(f) for f in data.get("faults", ())),  # type: ignore[union-attr]
            num_gpus_alive=int(data.get("num_gpus_alive", -1)),  # type: ignore[arg-type]
            replan_trigger=str(data.get("replan_trigger", "")),
            outcome_counts={
                str(k): int(v)  # type: ignore[call-overload]
                for k, v in dict(data.get("outcome_counts", {})).items()  # type: ignore[call-overload]
            },
        )


@dataclass
class LiveServeConfig:
    """Configuration of the live serving loop.

    Parameters
    ----------
    window_s:
        Serving window length on the time-warped clock (seconds of trace time).
    slo_config:
        Declarative SLO-objective config (flat or profile form, see
        :mod:`repro.serving.slo_objectives`); defaults to
        :func:`~repro.serving.slo_objectives.auto_slo_config`.
    admission_max_rho:
        Utilisation ceiling for the admission front-end: when the estimator
        reports a window would run the hottest prefill replica beyond this,
        excess arrivals are shed deterministically to bring it back under.
        ``None`` (default) disables shedding — every request is admitted.
    reschedule_on_breach:
        Trigger the §3.4 lightweight rescheduler when a window emits breach
        events.
    reschedule_on_shift:
        Fall back to the workload profiler's shift detector in windows without
        breaches.
    validate_reschedule:
        Shadow-validate every rescheduling candidate by replaying the window
        just served under it: the candidate is adopted only when it strictly
        beats the incumbent plan's simulated attainment on that window (see
        :meth:`~repro.serving.system.ThunderServe.reschedule_online`).  On by
        default — the estimator can mis-rank flip candidates near saturation,
        and an online loop must never adopt a plan that demonstrably serves
        the observed workload worse.  Recovery replans reuse the same guard
        non-strictly (ties keep the candidate, see
        :meth:`~repro.serving.system.ThunderServe.replan_capacity`).
    faults:
        Optional :class:`~repro.faults.FaultSchedule` to replay against the
        loop.  Capacity events (preemption, crash, recovery) inside a window
        are compiled into a replica-level timeline and applied *by the engine*
        at the exact fault instant — in-flight work on a dead replica is
        preempted and retried under ``retry_policy``; at the next window
        boundary the same events fold into the cluster state and drive
        replanning.  Non-capacity events (links, stragglers) still take effect
        at the boundary of the window containing their timestamp, keeping the
        piecewise-static contract: within a window the *plan* never changes.
    retry_policy:
        :class:`~repro.faults.RetryPolicy` governing the disposition of work
        preempted by mid-window capacity loss (attempt budget, backoff,
        deadline).  ``None`` (default) inherits the engine default — a
        bounded-retry :class:`~repro.faults.RetryPolicy` with exponential
        backoff; pass :meth:`~repro.faults.RetryPolicy.drop_only` to cancel
        preempted work instead.
    reschedule_on_failure:
        React to capacity loss by replanning through ``failure_mode_order``.
        When off, dead serving groups are still dropped (mode ``"none"``) so
        the surviving replicas keep serving, but nothing re-optimises — the
        static arm of a chaos comparison.
    reschedule_on_recovery:
        React to capacity recovery (GPU rejoin) with a :data:`RECOVERY_MODE`
        replan that re-expands onto the revived GPUs.  When off, revived
        capacity stays idle.
    failure_mode_order:
        Replan strategies tried in order after a capacity loss; the first one
        that yields a servable plan wins.  Strategies are the Figure 11 modes
        accepted by :meth:`~repro.serving.system.ThunderServe.replan_capacity`.
    degraded_admission_max_rho:
        Tighter admission ceiling applied while any injected fault is active
        (graceful degradation sheds load instead of missing every deadline).
        ``None`` (default) keeps ``admission_max_rho`` in all conditions.

    Raises
    ------
    ValueError
        If ``window_s`` is not positive, an admission ceiling is not in
        ``(0, 1]``, or a failure replan mode is unknown.
    """

    window_s: float = 30.0
    slo_config: Optional[Mapping[str, object]] = None
    admission_max_rho: Optional[float] = None
    reschedule_on_breach: bool = True
    reschedule_on_shift: bool = True
    validate_reschedule: bool = True
    faults: Optional[FaultSchedule] = None
    retry_policy: Optional[RetryPolicy] = None
    reschedule_on_failure: bool = True
    reschedule_on_recovery: bool = True
    failure_mode_order: Tuple[str, ...] = ("lightweight", "none")
    degraded_admission_max_rho: Optional[float] = None

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        for name in ("admission_max_rho", "degraded_admission_max_rho"):
            ceiling = getattr(self, name)
            if ceiling is not None and not 0 < ceiling <= 1:
                raise ValueError(f"{name} must be in (0, 1]")
        modes = ThunderServe.RESCHEDULE_MODES
        self.failure_mode_order = tuple(self.failure_mode_order)
        if not self.failure_mode_order:
            raise ValueError("failure_mode_order must name at least one mode")
        for mode in self.failure_mode_order:
            if mode not in modes:
                raise ValueError(
                    f"failure_mode_order entries must be one of {modes}, got {mode!r}"
                )


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

        Counts end-of-window adaptations (``plan_changed``) plus the
        failure/recovery replans installed at window starts by fault handling.
        """
        return sum(
            1
            for w in self.windows
            if w.plan_changed or w.replan_trigger in ("failure", "recovery")
        )

    @property
    def plan_ids(self) -> List[str]:
        """Plan id of every served window, in order."""
        return [w.plan_id for w in self.windows]

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
            ``num_failure_replans`` / ``num_recovery_replans`` — windows whose
            start installed a fault-triggered plan; ``mean_time_to_replan_s``
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
        recovery_indices = [w.index for w in windows if w.replan_trigger == "recovery"]
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
                sum(1 for w in windows if w.replan_trigger == "failure")
            ),
            "num_recovery_replans": float(
                sum(1 for w in windows if w.replan_trigger == "recovery")
            ),
            "mean_time_to_replan_s": _mean(time_to_replan, 0.0),
            "mean_mttr_s": _mean(mttr, 0.0),
        }

    def to_dicts(self) -> List[Dict[str, object]]:
        """Return the windowed telemetry stream as JSON-serialisable dicts."""
        return [w.to_dict() for w in self.windows]


@dataclass
class _FaultSync:
    """Outcome of syncing one window boundary's fault events into the system."""

    #: human-readable descriptions of the events applied at this boundary
    descriptions: Tuple[str, ...] = ()
    #: replan installed at this boundary ("" / "failure" / "recovery")
    trigger: str = ""
    #: True when no servable plan exists (outage, or every replan failed)
    unservable: bool = False
    #: True when any fault is currently active
    degraded: bool = False
    #: GPUs alive after applying the boundary's events
    num_alive: int = -1
    #: True when every GPU is removed (total capacity loss)
    outage: bool = False


def _merge_sync(carried: "_FaultSync", current: "_FaultSync") -> "_FaultSync":
    """Fold a fault sync carried over empty windows into the current one."""
    return _FaultSync(
        descriptions=carried.descriptions + current.descriptions,
        trigger=current.trigger or carried.trigger,
        unservable=current.unservable,
        degraded=current.degraded,
        num_alive=current.num_alive,
        outage=current.outage,
    )


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
        measured (the streaming telemetry hook).
    on_breach:
        Optional callback invoked with each :class:`BreachEvent` as it fires.
    """

    def __init__(
        self,
        system: ThunderServe,
        config: Optional[LiveServeConfig] = None,
        on_window: Optional[Callable[[WindowTelemetry], None]] = None,
        on_breach: Optional[Callable[[BreachEvent], None]] = None,
    ) -> None:
        self.system = system
        self.config = config or LiveServeConfig()
        self.on_window = on_window
        self.on_breach = on_breach
        self.tracker = SLOBreachTracker()
        # Fault-injection loop state (reset at the start of every run).
        self._fault_state: Optional[ClusterFaultState] = None
        self._pending_faults: List = []
        self._fault_log: List[Dict[str, object]] = []
        self._awaiting_replan: List[Dict[str, object]] = []
        self._carry_sync: Optional[_FaultSync] = None
        self._last_window: Optional[Trace] = None
        self._replan_failures = 0
        self._replan_cooldown = 0
        self._unservable = False
        self._system_stale = False
        self._degraded_now = False

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
        matrix exactly like the lower-level solver does.

        Returns
        -------
        PlanHealth
            ``rho`` (hottest prefill replica), routed E2E ``attainment`` and
            the ``request_rate`` the figures were computed for.
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
        x = routing.x
        z = routing.joint
        utilizations = [
            float(x[i]) * rate * p.prefill_service_s for i, p in enumerate(prefills)
        ]
        context = estimator.mean_input + estimator.mean_output
        batches = [
            q.decode_operating_batch(
                float(z[:, j].sum()) * rate * estimator.mean_output, context
            )
            for j, q in enumerate(decodes)
        ]
        d = estimator.attainment_matrix(
            prefills, decodes, prefill_utilizations=utilizations, decode_batches=batches
        )
        return PlanHealth(
            rho=max(utilizations) if utilizations else 0.0,
            attainment=float((z * d).sum()),
            request_rate=rate,
        )

    def _admit(self, window: Trace, health: PlanHealth) -> Tuple[Trace, int]:
        """Apply the admission front-end to one window.

        When the estimated utilisation exceeds ``admission_max_rho``, requests
        are shed with a deterministic deficit counter so the admitted fraction
        tracks ``admission_max_rho / rho`` exactly (no sampling noise).  While
        an injected fault is active and ``degraded_admission_max_rho`` is
        configured, the tighter of the two ceilings applies (graceful
        degradation).  Returns the admitted sub-trace and the number of shed
        requests.
        """
        max_rho = self.config.admission_max_rho
        degraded_rho = self.config.degraded_admission_max_rho
        if self._degraded_now and degraded_rho is not None:
            max_rho = degraded_rho if max_rho is None else min(max_rho, degraded_rho)
        if max_rho is None or health.rho <= max_rho or health.rho <= 0:
            return window, 0
        keep_fraction = max_rho / health.rho
        admitted = []
        shed = 0
        acc = 0.0
        for request in window:
            acc += keep_fraction
            if acc >= 1.0:
                acc -= 1.0
                admitted.append(request)
            else:
                shed += 1
        return Trace(requests=admitted, name=f"{window.name}-admitted"), shed

    # ------------------------------------------------------------------ telemetry
    def _measure(
        self,
        index: int,
        start: float,
        end: float,
        result: SimulationResult,
        health: PlanHealth,
        num_shed: int,
        served_plan_id: str,
    ) -> WindowTelemetry:
        """Build the telemetry record of one served window."""
        slo = self.system.slo
        a = result.arrays
        queue_waits = a.queue_time()[a.finished]
        met = a.meets(slo, SLOType.E2E).tolist()
        tenant_hits: Dict[str, List[bool]] = {}
        for request, hit in zip(result.requests, met):
            tag = request.workload or ""
            if tag.startswith("tenant:"):
                tenant_hits.setdefault(tag.split(":", 1)[1], []).append(hit)
        per_tenant = {
            tenant: sum(hits) / len(hits) for tenant, hits in sorted(tenant_hits.items())
        }
        outcome_counts = {k: int(v) for k, v in result.outcome_counts().items()}
        outcome_counts["shed"] = outcome_counts.get("shed", 0) + num_shed
        return WindowTelemetry(
            index=index,
            start=start,
            end=end,
            plan_id=served_plan_id,
            profile="",  # resolved by the caller against the SLO config
            num_requests=result.num_requests,
            num_shed=num_shed,
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
    def _serve_windows(
        self, trace: Trace, label: str
    ) -> Iterator[Tuple[WindowTelemetry, SimulationResult, DeploymentPlan]]:
        """Serve ``trace`` window by window, yielding telemetry as it is measured."""
        system = self.system
        config = self.config
        slo_config = config.slo_config or auto_slo_config()
        system.require_plan()
        self._fault_state = None
        self._pending_faults = []
        self._fault_log = []
        self._awaiting_replan = []
        self._carry_sync = None
        self._last_window = None
        self._replan_failures = 0
        self._replan_cooldown = 0
        self._unservable = False
        self._system_stale = False
        self._degraded_now = False
        if config.faults is not None and len(config.faults) > 0:
            # Times are checked per window; validate ids/counts up front.
            config.faults.validate(float("inf"), system.cluster)
            self._fault_state = ClusterFaultState(system.cluster)
            self._pending_faults = list(config.faults)
        if trace.is_empty:
            return
        start = trace[0].arrival_time
        end = trace[-1].arrival_time
        window_start = start
        index = 0
        while window_start <= end:
            w_start = window_start
            window_end = w_start + config.window_s
            window = trace.window(w_start, window_end)
            window_start = window_end
            sync = self._apply_due_faults(w_start, label)
            if sync is not None and self._carry_sync is not None:
                sync = _merge_sync(self._carry_sync, sync)
                self._carry_sync = None
            if window.is_empty:
                self._carry_sync = sync
                continue
            self._degraded_now = bool(sync is not None and sync.degraded)
            served_plan = system.require_plan()
            outage = sync is not None and sync.unservable
            if outage:
                # No servable capacity: every arrival is an outage drop (an SLO
                # miss), so the window reports attainment 0 and the run goes on.
                faults, fault_notes = None, ()
                served_plan_id = ""
                health = PlanHealth(
                    rho=0.0, attainment=0.0, request_rate=len(window) / (window_end - w_start)
                )
                num_shed = 0
                result = SimulationResult.dropped(
                    window, makespan=window_end, label=f"{label}[{index}]"
                )
            else:
                served_plan_id = plan_signature(served_plan)
                faults, fault_notes = self._intra_window_faults(w_start, window_end)
                if faults is not None:
                    self._degraded_now = True
                health = self.plan_health(window)
                admitted, num_shed = self._admit(window, health)
                result = system.serve(
                    admitted,
                    label=f"{label}[{index}]",
                    faults=faults,
                    retry=config.retry_policy,
                )
                system.monitor.heartbeat_all(window_end)
            telemetry = self._measure(
                index, w_start, window_end, result, health,
                num_shed, served_plan_id,
            )
            telemetry.outage = outage
            if sync is not None:
                telemetry.faults = sync.descriptions + fault_notes
                telemetry.degraded = sync.degraded or faults is not None
                telemetry.num_gpus_alive = sync.num_alive
                telemetry.replan_trigger = sync.trigger
            profile, objectives = resolve_slo_objectives(slo_config, telemetry.snapshot())
            telemetry.profile = profile
            report = evaluate_slo_objectives(telemetry.snapshot(), objectives, profile=profile)
            events = self.tracker.update(
                report, time=window_end, window_index=index, context=label
            )
            telemetry.breaches = tuple(events)
            for event in events:
                if self.on_breach is not None:
                    self.on_breach(event)
            if not outage:
                telemetry.plan_changed = self._adapt(events, admitted, label)
                self._last_window = admitted
            if self.on_window is not None:
                self.on_window(telemetry)
            yield telemetry, result, served_plan
            index += 1
        # Fold the final window's events so the fault log covers the whole run
        # (the loop exits before their boundary would otherwise come due).
        self._apply_due_faults(window_start, label)

    # ------------------------------------------------------------------ faults
    def _apply_due_faults(self, boundary: float, label: str) -> Optional[_FaultSync]:
        """Fold fault events due before the ``boundary`` into the serving system.

        ``boundary`` is the start of the window about to be served: events
        from already-served windows (whose capacity effect the engine already
        applied in-run) are folded through the :class:`ClusterFaultState`
        (idempotent against overlapping fail/recover sequences), the system's
        cluster, network and straggler view is re-synced, and capacity changes
        trigger the failure/recovery replan chain.  Events inside the upcoming
        window stay pending — :meth:`_intra_window_faults` compiles them for
        the engine.  Returns ``None`` when fault injection is off.
        """
        state = self._fault_state
        if state is None:
            return None
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
        if state.outage:
            # Total loss: nothing to sync the system against; windows are
            # recorded as zero-attainment outages until capacity recovers.
            self._unservable = True
            self._system_stale = True
            return _FaultSync(
                descriptions=tuple(descriptions),
                unservable=True,
                degraded=True,
                num_alive=0,
                outage=True,
            )
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
            modes = (
                config.failure_mode_order if config.reschedule_on_failure else ("none",)
            )
            reason = (
                f"fault injection ({'; '.join(descriptions)})"
                if descriptions
                else "fault injection (replan retry)"
            )
            if self._attempt_replan(modes, reason, validate_window=None):
                trigger = "failure"
        elif gained and config.reschedule_on_recovery:
            validate_window = self._last_window if config.validate_reschedule else None
            reason = f"capacity recovery ({'; '.join(descriptions)})"
            if self._attempt_replan((RECOVERY_MODE,), reason, validate_window):
                trigger = "recovery"
        plan = system.require_plan()
        alive = set(system.cluster.gpu_ids)
        self._unservable = not all(set(g.gpu_ids) <= alive for g in plan.groups)
        if trigger == "failure" and not self._unservable:
            for entry in self._awaiting_replan:
                entry["replan_trigger"] = trigger
                entry["replan_ok"] = True
                entry["replanned_at"] = boundary
            self._awaiting_replan = []
        return _FaultSync(
            descriptions=tuple(descriptions),
            trigger=trigger,
            unservable=self._unservable,
            degraded=state.degraded,
            num_alive=len(alive),
            outage=False,
        )

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
        system = self.system
        config = self.config
        validate_on = window if config.validate_reschedule else None
        if events and config.reschedule_on_breach:
            names = ",".join(e.objective for e in events)
            return system.reschedule_online(
                reason=f"slo breach ({names}) during {label}", validate_on=validate_on
            )
        if config.reschedule_on_shift:
            shift = system.profiler.detect_shift()
            if shift is not None:
                return system.reschedule_online(
                    stats=shift.current,
                    reason=f"lightweight rescheduling ({shift.describe()})",
                    validate_on=validate_on,
                )
        return False

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
        windows: List[WindowTelemetry] = []
        results: List[SimulationResult] = []
        plans: List[DeploymentPlan] = []
        breaches: List[BreachEvent] = []
        for telemetry, result, plan in self._serve_windows(trace, label):
            windows.append(telemetry)
            results.append(result)
            plans.append(plan)
            breaches.extend(telemetry.breaches)
        return LiveServeReport(
            windows=windows,
            results=results,
            served_plans=plans,
            breaches=breaches,
            label=label,
            fault_log=list(self._fault_log),
        )

    async def stream(self, trace: Trace, label: str = "live", time_warp: float = 0.0):
        """Serve a trace as an async generator of :class:`WindowTelemetry`.

        Parameters
        ----------
        trace:
            The request trace to replay.
        label:
            Run label stamped onto window results and breach events.
        time_warp:
            Real seconds to sleep per simulated window second.  ``0`` (default)
            only yields control to the event loop between windows; ``1.0``
            paces the replay in real time.

        Yields
        ------
        WindowTelemetry
            One record per served window, as soon as it is measured.
        """
        import asyncio

        for telemetry, _result, _plan in self._serve_windows(trace, label):
            yield telemetry
            await asyncio.sleep(self.config.window_s * time_warp)


__all__ = [
    "LiveServer",
    "LiveServeConfig",
    "LiveServeReport",
    "WindowTelemetry",
    "PlanHealth",
    "plan_signature",
]
