"""Lightweight rescheduling (§3.4).

When the observed workload shifts or GPUs disappear, regenerating the deployment
plan from scratch and reloading parameters would stall the online service for
minutes.  ThunderServe instead performs a *lightweight* rescheduling that

* keeps the group construction and every group's parallel configuration unchanged
  (so no parameters need to be moved or reloaded),
* drops groups whose GPUs are no longer available,
* re-runs the tabu search restricted to the *flip-phase* neighbourhood, and
* re-solves the orchestration LP for the new phases.

The flip-only space of ``K`` surviving groups holds just ``2**K - 2``
designations that use both phases, so the search stops once it has scored
all of them (and, like the full search, once it reaches the objective's
ceiling); nothing it could still score would change the plan.

:class:`ReschedulingOverheadModel` reproduces the Table 4 accounting of full vs
lightweight rescheduling overhead (search time + parameter-reloading time).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.exceptions import SchedulingError
from repro.core.rng import RNGLike, ensure_rng
from repro.core.types import SLOSpec
from repro.costmodel.latency import CostModelParams, CostModelPool, DEFAULT_PARAMS
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.model.memory import parameter_bytes
from repro.parallelism.config import ReplicaPlan
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.lower_level import LowerLevelResult, LowerLevelSolver
from repro.scheduling.neighbors import construct_neighbors
from repro.scheduling.solution import UpperLevelSolution
from repro.scheduling.tabu import SearchTrace, TabuSearch, TabuSearchConfig
from repro.workload.spec import WorkloadSpec, WorkloadStats

#: Replicas whose parameters stream from the store concurrently during a reload.
PARALLEL_LOADS = 4

#: Tabu budget of the flip-only search: flip-only neighbourhoods are tiny, so
#: far fewer steps are needed than in the full search.
FLIP_SEARCH = TabuSearchConfig(num_steps=30, num_neighbors=6, memory_size=5, patience=10)


@dataclass
class RescheduleResult:
    """Outcome of a lightweight rescheduling pass."""

    plan: DeploymentPlan
    objective: float
    trace: SearchTrace
    lower_result: LowerLevelResult
    elapsed_s: float


class LightweightRescheduler:
    """Re-designate phases and re-orchestrate an existing deployment plan.

    ``cost_models`` is the :class:`~repro.costmodel.latency.CostModelPool`
    every search's estimator takes its cost models from; ``None`` builds
    them per search.
    """

    def __init__(
        self,
        kv_transport_bits: int = 4,
        params: CostModelParams = DEFAULT_PARAMS,
        seed: int = 0,
        cost_models: Optional[CostModelPool] = None,
    ) -> None:
        self.kv_transport_bits = kv_transport_bits
        self.params = params
        self.seed = seed
        self.cost_models = cost_models

    def reschedule(
        self,
        plan: DeploymentPlan,
        cluster: Cluster,
        model: ModelConfig,
        workload: WorkloadSpec,
        request_rate: float,
        slo: SLOSpec,
        seed: RNGLike = None,
    ) -> RescheduleResult:
        """Adapt an existing plan to a new cluster state / workload.

        ``cluster`` reflects the *current* GPU availability (failed GPUs already
        removed); groups that lost any GPU are dropped from the plan, surviving
        groups keep their parallel configuration, and only phase designations and
        the orchestration are re-optimised.
        """
        start = time.perf_counter()
        rng = ensure_rng(self.seed if seed is None else seed)

        available = set(cluster.gpu_ids)
        surviving = [g for g in plan.groups if set(g.gpu_ids) <= available]
        if not surviving:
            raise SchedulingError("no serving group survived the cluster change")
        if len(surviving) < 2:
            # One group cannot serve both phases, whatever its designation.
            raise SchedulingError("lightweight rescheduling could not produce a feasible plan")

        fixed_plans: Dict[Tuple[int, ...], ReplicaPlan] = {
            tuple(sorted(g.gpu_ids)): g.plan for g in surviving if g.plan is not None
        }
        solver = LowerLevelSolver(
            cluster=cluster,
            model=model,
            workload=workload,
            slo=slo,
            request_rate=request_rate,
            kv_transport_bits=self.kv_transport_bits,
            params=self.params,
            fixed_plans=fixed_plans,
            seed=int(rng.integers(0, 2**31 - 1)),
            cost_models=self.cost_models,
        )

        initial = UpperLevelSolution.from_lists(
            [(g.gpu_ids, g.phase) for g in surviving]
        )

        # Keys of the designations using both phases that the search has
        # scored: every neighbour handed out is scored (tabu ones were scored
        # when visited), so once all 2**K - 2 are in, nothing new is left.
        scored = {initial.key()} if initial.num_prefill and initial.num_decode else set()
        flip_space = 2 ** len(surviving) - 2

        def neighbor_fn(solution: UpperLevelSolution, count: int):
            if len(scored) >= flip_space:
                return []
            # Only the flip-phase move is allowed (§3.4).
            neighbors = construct_neighbors(
                solution, cluster, model, num_neighbors=count, rng=rng, moves=["flip"]
            )
            scored.update(n.key() for n in neighbors)
            return neighbors

        search = TabuSearch(
            objective=solver.evaluate_batch,
            neighbor_fn=neighbor_fn,
            key_fn=lambda s: s.key(),
            config=FLIP_SEARCH,
            ceiling=solver.ceiling,
        )
        result = search.run(initial)
        lower = solver.result_for(result.best_solution)
        if not lower.feasible or lower.plan is None:
            # Fall back to the unmodified surviving plan with re-orchestration only.
            lower = solver.result_for(initial)
            if not lower.feasible or lower.plan is None:
                raise SchedulingError("lightweight rescheduling could not produce a feasible plan")
        elapsed = time.perf_counter() - start
        return RescheduleResult(
            plan=lower.plan,
            objective=lower.objective,
            trace=result.trace,
            lower_result=lower,
            elapsed_s=elapsed,
        )

    def reschedule_from_stats(
        self,
        plan: DeploymentPlan,
        cluster: Cluster,
        model: ModelConfig,
        stats: WorkloadStats,
        fallback_rate: float,
        slo: SLOSpec,
        seed: RNGLike = None,
        template: Optional[WorkloadSpec] = None,
    ) -> RescheduleResult:
        """Adapt a plan to *observed* workload statistics (the online entry point).

        This is the path the live serving loop takes on an SLO breach or a
        detected workload shift: the profiler's window statistics are converted
        to a :class:`~repro.workload.spec.WorkloadSpec` via
        :meth:`WorkloadStats.as_spec` — with ``template`` (typically the
        planning workload) supplying realistic length variance, without it a
        degenerate zero-variance spec — and the flip-only rescheduling of
        :meth:`reschedule` runs against it.  When the window was too short to
        measure an arrival rate (``stats.request_rate == 0``) the planned
        ``fallback_rate`` is used instead.

        Because the search warm-starts from the plan's current phase
        designation (and the initial solution is always evaluated), the
        returned plan's estimated objective under the observed workload can
        only match or beat keeping the current phases — an online rescheduling
        never looks worse than standing still *to the estimator*.
        """
        rate = stats.request_rate if stats.request_rate > 0 else fallback_rate
        return self.reschedule(
            plan,
            cluster,
            model,
            stats.as_spec(name="observed", template=template),
            rate,
            slo,
            seed=seed,
        )


@dataclass(frozen=True)
class ReschedulingOverheadModel:
    """Analytic model of the service interruption caused by rescheduling (Table 4).

    Full rescheduling re-runs the scheduling algorithm from scratch *and* reloads
    the model parameters onto the re-assigned GPUs from disk; lightweight
    rescheduling only flips phases and re-orchestrates, so no parameters move.
    """

    #: sustained read bandwidth of the parameter store, bytes/s (1.2 GB/s disk in §1)
    disk_bandwidth_bytes: float = 1.2e9
    #: measured full-search time for a 32-GPU cluster (seconds); scaled linearly
    #: with cluster size when estimating other clusters
    full_search_seconds_32gpu: float = 54.0
    #: measured flip-only search time (seconds)
    lightweight_search_seconds: float = 13.0

    def reload_seconds(self, model: ModelConfig, num_replicas: int) -> float:
        """Time to reload ``num_replicas`` copies of the parameters from disk.

        :data:`PARALLEL_LOADS` replicas stream from the store concurrently
        (different nodes have independent disks / object-store connections).
        """
        if num_replicas < 0:
            raise ValueError("num_replicas must be >= 0")
        per_copy = parameter_bytes(model) / self.disk_bandwidth_bytes
        waves = -(-num_replicas // PARALLEL_LOADS) if num_replicas else 0
        return per_copy * waves

    def full_overhead_seconds(self, model: ModelConfig, num_gpus: int, num_replicas: int) -> float:
        """Total interruption of a full rescheduling (search + reload)."""
        search = self.full_search_seconds_32gpu * num_gpus / 32.0
        return search + self.reload_seconds(model, num_replicas)

    def lightweight_overhead_seconds(self) -> float:
        """Total interruption of a lightweight rescheduling (search only)."""
        return self.lightweight_search_seconds


__all__ = ["LightweightRescheduler", "RescheduleResult", "ReschedulingOverheadModel"]
