"""The ThunderServe scheduler facade.

:class:`Scheduler` ties the pieces of §3 together: it builds the initial solution
by hierarchical clustering, runs the tabu search over group construction and phase
designation (upper level), evaluates every candidate with the lower-level solver
(parallel-configuration deduction + orchestration) and returns the best complete
deployment plan together with the search trace (the Figure 10 convergence data).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import SchedulingError
from repro.core.rng import RNGLike, ensure_rng
from repro.core.types import SLOSpec, SLOType
from repro.costmodel.latency import CostModelParams, DEFAULT_PARAMS
from repro.costmodel.reference import a100_reference_latency
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.parallelism.config import ReplicaPlan
from repro.scheduling.clustering import initial_groups_by_clustering
from repro.scheduling.lower_level import LowerLevelResult, LowerLevelSolver
from repro.scheduling.neighbors import construct_neighbors
from repro.scheduling.robust import (
    RobustEvaluator,
    RobustObjective,
    RobustScheduleResult,
    scenario_slo,
)
from repro.scheduling.solution import UpperLevelSolution
from repro.scheduling.tabu import SearchTrace, TabuSearch, TabuSearchConfig, TabuSearchResult
from repro.scheduling.deployment import DeploymentPlan
from repro.workload.spec import WorkloadSpec

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a package cycle
    from repro.scenarios.base import Scenario


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
    slo_type: SLOType = SLOType.E2E
    orchestration_mode: str = "lp"
    cost_params: CostModelParams = field(default_factory=lambda: DEFAULT_PARAMS)
    seed: int = 0
    #: optional explicit number of initial groups (None = derived from memory needs)
    initial_num_groups: Optional[int] = None

    def with_tabu(self, **kwargs) -> "SchedulerConfig":
        """Return a copy with modified tabu-search parameters."""
        return replace(self, tabu=replace(self.tabu, **kwargs))


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
    """End-to-end scheduling: cluster + model + workload + SLO → deployment plan."""

    def __init__(self, config: SchedulerConfig | None = None) -> None:
        self.config = config or SchedulerConfig()

    # ------------------------------------------------------------------ helpers
    def default_slo(
        self, model: ModelConfig, workload: WorkloadSpec, scale: float = 5.0
    ) -> SLOSpec:
        """Convenience: SLO deadlines at a given scale of the A100 reference latency."""
        return a100_reference_latency(model, workload, params=self.config.cost_params).slo_spec(scale)

    def build_solver(
        self,
        cluster: Cluster,
        model: ModelConfig,
        workload: WorkloadSpec,
        request_rate: float,
        slo: SLOSpec,
        plan_cache: Optional[Dict[object, Optional[ReplicaPlan]]] = None,
    ) -> LowerLevelSolver:
        """Construct the lower-level solver for a serving context.

        ``plan_cache`` optionally shares one parallel-plan deduction memo across
        several solvers over the **same cluster and cost params** (robust mode
        builds one solver per scenario, holding both constant).  Entries are
        keyed by the model and the workload's planning shape, so same-shape
        scenarios share deductions and differing ones cannot collide.
        """
        return LowerLevelSolver(
            cluster=cluster,
            model=model,
            workload=workload,
            slo=slo,
            request_rate=request_rate,
            kv_transport_bits=self.config.kv_transport_bits,
            params=self.config.cost_params,
            slo_type=self.config.slo_type,
            orchestration_mode=self.config.orchestration_mode,
            seed=self.config.seed,
            plan_cache=plan_cache,
        )

    # ------------------------------------------------------------------ search core
    def _initial_solution(
        self, cluster: Cluster, model: ModelConfig, rng
    ) -> UpperLevelSolution:
        """Hierarchical-clustering initial solution (shared by both schedule modes)."""
        cfg = self.config
        return initial_groups_by_clustering(
            cluster,
            model,
            target_num_groups=cfg.initial_num_groups,
            seed=rng,
            kv_reserve_fraction=cfg.cost_params.kv_reserve_fraction
            if cfg.cost_params.kv_reserve_fraction > 0
            else 0.3,
        )

    def _run_search(
        self,
        cluster: Cluster,
        model: ModelConfig,
        rng,
        objective: Callable[[Sequence[UpperLevelSolution]], Sequence[float]],
        initial_solution: Optional[UpperLevelSolution] = None,
    ) -> TabuSearchResult[UpperLevelSolution]:
        """Run the upper-level tabu search over a given objective.

        Both :meth:`schedule` and :meth:`schedule_robust` go through this one
        path, so an identical seed drives an identical search trajectory — only
        the objective differs.  That is what makes a one-scenario robust run
        reproduce the single-workload plan exactly.
        """
        cfg = self.config
        initial = (
            initial_solution
            if initial_solution is not None
            else self._initial_solution(cluster, model, rng)
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
            objective=objective,
            neighbor_fn=neighbor_fn,
            key_fn=lambda s: s.key(),
            config=cfg.tabu,
            pass_tabu_keys=True,
        )
        return search.run(initial)

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

        solver = self.build_solver(cluster, model, workload, request_rate, slo)
        result = self._run_search(
            cluster, model, rng, solver.evaluate_batch, initial_solution
        )
        lower = solver.solve(result.best_solution)
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

    # ------------------------------------------------------------------ robust
    def schedule_robust(
        self,
        cluster: Cluster,
        model: ModelConfig,
        scenarios: Sequence["Scenario"],
        robust: Optional[RobustObjective] = None,
        seed: RNGLike = None,
        initial_solution: Optional[UpperLevelSolution] = None,
    ) -> RobustScheduleResult:
        """Optimise one deployment plan against a whole scenario set.

        Each scenario contributes a lower-level solver built from its planning
        workload, request rate and SLO tier (the same derivation the scenario
        sweep serves against); the tabu search maximises ``robust``'s aggregate
        of the per-scenario objectives (worst case by default).  The returned
        plan is the winning solution solved under its binding (worst) scenario.

        ``initial_solution`` warm-starts the search — passing the single-workload
        plan's solution guarantees the robust plan scores at least as well as it
        on the robust objective, since the initial solution is always evaluated.
        """
        start = time.perf_counter()
        cfg = self.config
        scenario_list = list(scenarios)
        robust = robust or RobustObjective.worst_case()
        rng = ensure_rng(cfg.seed if seed is None else seed)

        plan_cache: Dict[object, Optional[ReplicaPlan]] = {}
        solvers: List[Tuple[str, LowerLevelSolver]] = [
            (
                scenario.name,
                self.build_solver(
                    cluster,
                    model,
                    scenario.planning_workload(),
                    scenario.request_rate,
                    scenario_slo(scenario, model, cfg.cost_params),
                    plan_cache=plan_cache,
                ),
            )
            for scenario in scenario_list
        ]
        # The evaluator owns validation: non-empty scenario set, unique names,
        # weight count vs. scenario count.
        evaluator = RobustEvaluator(solvers, robust)
        result = self._run_search(
            cluster, model, rng, evaluator.evaluate_batch, initial_solution
        )

        per_scenario = {name: solver.solve(result.best_solution) for name, solver in solvers}
        # A scenario can be individually infeasible (e.g. its long-context shape
        # leaves no KV headroom on this cluster) without invalidating the plan —
        # mix/cvar objectives may legitimately trade such a scenario away, and
        # its lower-level result records feasible=False / attainment 0.  Only a
        # solution feasible under no scenario at all is an error.
        feasible = {
            name: r for name, r in per_scenario.items() if r.feasible and r.plan is not None
        }
        if not feasible:
            raise SchedulingError(
                "the robust tabu search found no plan feasible under any scenario; "
                "the cluster may be too small to hold the model"
            )
        worst = min(feasible, key=lambda name: feasible[name].estimated_attainment)
        plan = feasible[worst].plan
        assert plan is not None  # guarded by the feasibility filter above
        return RobustScheduleResult(
            plan=plan,
            objective=result.best_objective,
            trace=result.trace,
            solution=result.best_solution,
            robust=robust,
            per_scenario=per_scenario,
            worst_scenario=worst,
            elapsed_s=time.perf_counter() - start,
        )


__all__ = ["Scheduler", "SchedulerConfig", "ScheduleResult", "RobustScheduleResult"]
