"""The ThunderServe scheduler facade.

:class:`Scheduler` ties the pieces of §3 together: it builds the initial solution
by hierarchical clustering, runs the tabu search over group construction and phase
designation (upper level), evaluates every candidate with the lower-level solver
(parallel-configuration deduction + orchestration) and returns the best complete
deployment plan together with the search trace (the Figure 10 convergence data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.exceptions import SchedulingError
from repro.core.rng import RNGLike, ensure_rng
from repro.core.types import SLOSpec
from repro.costmodel.latency import CostModelParams, CostModelPool, DEFAULT_PARAMS
from repro.costmodel.reference import a100_reference_latency
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.scheduling.clustering import initial_groups_by_clustering
from repro.scheduling.lower_level import LowerLevelResult, LowerLevelSolver
from repro.scheduling.neighbors import construct_neighbors
from repro.scheduling.solution import UpperLevelSolution
from repro.scheduling.tabu import SearchTrace, TabuSearch, TabuSearchConfig
from repro.scheduling.deployment import DeploymentPlan
from repro.workload.spec import WorkloadSpec


@dataclass(frozen=True)
class SchedulerConfig:
    """Configuration of the full scheduling run.

    The tabu-search defaults follow Algorithm 1 (``N_step = 100``,
    ``N_nghb = 10``, ``N_mem = 5``); ``patience`` adds an early-stopping criterion
    so that small clusters converge quickly, matching the seconds-scale search
    times of Figure 10.
    """

    tabu: TabuSearchConfig = field(
        default_factory=lambda: TabuSearchConfig(num_steps=100, num_neighbors=10, memory_size=5, patience=20)
    )
    kv_transport_bits: int = 4
    orchestration_mode: str = "lp"
    cost_params: CostModelParams = field(default_factory=lambda: DEFAULT_PARAMS)
    seed: int = 0


@dataclass
class ScheduleResult:
    """Output of a scheduling run."""

    plan: DeploymentPlan
    objective: float
    trace: SearchTrace
    lower_result: LowerLevelResult
    elapsed_s: float
    solution: UpperLevelSolution

    @property
    def estimated_slo_attainment(self) -> float:
        """Scheduler-estimated system SLO attainment of the returned plan."""
        return self.lower_result.estimated_attainment


class Scheduler:
    """End-to-end scheduling: cluster + model + workload + SLO → deployment plan.

    ``cost_models`` is the :class:`~repro.costmodel.latency.CostModelPool`
    every search's estimator takes its cost models from; ``None`` builds
    them per search.  Plans are the same either way.
    """

    def __init__(
        self,
        config: SchedulerConfig | None = None,
        cost_models: Optional[CostModelPool] = None,
    ) -> None:
        self.config = config or SchedulerConfig()
        self.cost_models = cost_models

    # ------------------------------------------------------------------ helpers
    def default_slo(
        self, model: ModelConfig, workload: WorkloadSpec, scale: float = 5.0
    ) -> SLOSpec:
        """Convenience: SLO deadlines at a given scale of the A100 reference latency."""
        return a100_reference_latency(model, workload, params=self.config.cost_params).slo_spec(scale)

    # ------------------------------------------------------------------ schedule
    def schedule(
        self,
        cluster: Cluster,
        model: ModelConfig,
        workload: WorkloadSpec,
        request_rate: float,
        slo: Optional[SLOSpec] = None,
        seed: RNGLike = None,
        initial_solution: Optional[UpperLevelSolution] = None,
    ) -> ScheduleResult:
        """Run the full two-level scheduling algorithm and return the best plan.

        ``initial_solution`` optionally warm-starts the tabu search from a known
        solution instead of the clustering initialiser.
        """
        start = time.perf_counter()
        cfg = self.config
        rng = ensure_rng(cfg.seed if seed is None else seed)
        slo = slo or self.default_slo(model, workload)

        solver = LowerLevelSolver(
            cluster=cluster,
            model=model,
            workload=workload,
            slo=slo,
            request_rate=request_rate,
            kv_transport_bits=cfg.kv_transport_bits,
            params=cfg.cost_params,
            orchestration_mode=cfg.orchestration_mode,
            seed=cfg.seed,
            cost_models=self.cost_models,
        )
        # ``rng`` feeds the clustering initialiser first, then every
        # neighbourhood draw, so one seed fixes the whole search trajectory.
        if initial_solution is None:
            initial_solution = initial_groups_by_clustering(
                cluster,
                model,
                seed=rng,
                kv_reserve_fraction=cfg.cost_params.kv_reserve_fraction
                if cfg.cost_params.kv_reserve_fraction > 0
                else 0.3,
            )

        def neighbor_fn(solution: UpperLevelSolution, count: int, tabu_keys=()):
            return construct_neighbors(
                solution,
                cluster,
                model,
                num_neighbors=count,
                rng=rng,
                kv_reserve_fraction=0.3,
                exclude_keys=tabu_keys,
            )

        search = TabuSearch(
            objective=solver.evaluate_batch,
            neighbor_fn=neighbor_fn,
            key_fn=lambda s: s.key(),
            config=cfg.tabu,
            pass_tabu_keys=True,
            ceiling=solver.ceiling,
        )
        result = search.run(initial_solution)
        lower = solver.result_for(result.best_solution)
        if not lower.feasible or lower.plan is None:
            raise SchedulingError(
                "the tabu search did not find a feasible deployment plan; "
                "the cluster may be too small to hold the model"
            )
        elapsed = time.perf_counter() - start
        return ScheduleResult(
            plan=lower.plan,
            objective=lower.objective,
            trace=result.trace,
            lower_result=lower,
            elapsed_s=elapsed,
            solution=result.best_solution,
        )


__all__ = ["Scheduler", "SchedulerConfig", "ScheduleResult"]
