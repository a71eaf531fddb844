"""Lower-level solver: parallel-configuration deduction + orchestration (§3.3).

Given an upper-level solution (group construction + phase designation), the lower
level:

1. deduces the optimal parallel configuration of every group with Algorithm 2
   (latency-optimal for prefill groups, throughput-optimal for decode groups),
2. estimates the SLO attainment of every (prefill, decode) pair with the analytic
   estimator, and
3. orchestrates the replicas by solving the two-stage transportation problem.

The resulting system-level attainment is the value ``f(x)`` consumed by the tabu
search.  Parallel-plan deduction is memoised on (GPU set, phase) because the tabu
search revisits the same groups in many candidate solutions; objectives are
memoised on the solution key and LP orchestrations on their exact inputs, for
the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import InsufficientMemoryError
from repro.core.types import Phase, SLOSpec, SLOType
from repro.costmodel.latency import (
    CostModelParams,
    DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    DEFAULT_PARAMS,
)
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.parallelism.config import ReplicaPlan
from repro.parallelism.enumeration import deduce_parallel_plan
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy, ServingGroup
from repro.scheduling.estimator import SLOEstimator
from repro.scheduling.orchestration import OrchestrationResult, random_orchestration, solve_orchestration
from repro.scheduling.solution import UpperLevelSolution
from repro.workload.spec import WorkloadSpec


#: Objective assigned to structurally infeasible solutions (no plan, missing phase,
#: group too small to hold the model, ...).  Any feasible solution scores >= 0.
INFEASIBLE_OBJECTIVE = -1.0

#: Small bonus per unit of served request mass added to the tabu-search objective.
#: When the offered load saturates the cluster (or the SLO is trivially loose) the
#: attainment term alone is flat, which would leave the search without a gradient;
#: rewarding served capacity keeps it moving towards higher-throughput designations
#: without ever outweighing a real attainment difference.
SERVED_FRACTION_BONUS = 0.05


@dataclass
class LowerLevelResult:
    """Outcome of evaluating one upper-level solution."""

    #: tabu-search objective: estimated attainment plus the served-capacity bonus
    objective: float
    feasible: bool
    plan: Optional[DeploymentPlan] = None
    attainment_matrix: Optional[np.ndarray] = None
    #: estimated end-to-end SLO attainment of the routed traffic (no bonus term)
    estimated_attainment: float = 0.0


class LowerLevelSolver:
    """Evaluates upper-level solutions and materialises full deployment plans.

    Parameters
    ----------
    cluster, model, workload, slo, request_rate:
        The serving context the deployment must satisfy.
    kv_transport_bits:
        KV transport precision used in the KV-communication term (4 = compressed).
    orchestration_mode:
        ``"lp"`` (the paper's TSTP) or ``"random"`` (Figure 12 ablation).
    fixed_plans:
        Optional mapping from (sorted GPU tuple) to an existing
        :class:`ReplicaPlan`; when provided those plans are reused instead of
        re-deduced.  The lightweight rescheduler uses this to keep parallel
        configurations unchanged.
    prefill_batch_requests:
        Prefill batching assumed by the attainment estimator (defaults to the
        serving engine's ``max_prefill_batch_requests`` default, so estimates
        and simulation agree on the batching policy).
    """

    def __init__(
        self,
        cluster: Cluster,
        model: ModelConfig,
        workload: WorkloadSpec,
        slo: SLOSpec,
        request_rate: float,
        kv_transport_bits: int = 4,
        params: CostModelParams = DEFAULT_PARAMS,
        slo_type: SLOType = SLOType.E2E,
        orchestration_mode: str = "lp",
        fixed_plans: Optional[Dict[Tuple[int, ...], ReplicaPlan]] = None,
        seed: int = 0,
        prefill_batch_requests: int = DEFAULT_MAX_PREFILL_BATCH_REQUESTS,
    ) -> None:
        if orchestration_mode not in ("lp", "random"):
            raise ValueError("orchestration_mode must be 'lp' or 'random'")
        self.cluster = cluster
        self.model = model
        self.workload = workload
        self.slo = slo
        self.request_rate = request_rate
        self.kv_transport_bits = kv_transport_bits
        self.params = params
        self.slo_type = slo_type
        self.orchestration_mode = orchestration_mode
        self.fixed_plans = dict(fixed_plans or {})
        self._rng = np.random.default_rng(seed)
        self.estimator = SLOEstimator(
            cluster=cluster,
            model=model,
            workload=workload,
            slo=slo,
            request_rate=request_rate,
            kv_transport_bits=kv_transport_bits,
            params=params,
            prefill_batch_requests=prefill_batch_requests,
        )
        self._plan_cache: Dict[Tuple[Tuple[int, ...], Phase], Optional[ReplicaPlan]] = {}
        self._objective_cache: Dict[object, float] = {}
        # LP orchestrations keyed by their exact inputs.  The fixed point's
        # second pass often reproduces the first pass's LP, and candidates
        # whose groups price identically reach the same LP again.  The memo
        # lives with the solver (one search), never process-wide.
        self._orchestration_cache: Dict[object, OrchestrationResult] = {}
        self.num_evaluations = 0

    # ------------------------------------------------------------------ plans
    def _plan_for(self, gpu_ids: Tuple[int, ...], phase: Phase) -> Optional[ReplicaPlan]:
        """Deduce (or fetch) the parallel plan for a group; ``None`` when infeasible."""
        gpu_key = tuple(sorted(gpu_ids))
        fixed = self.fixed_plans.get(gpu_key)
        if fixed is not None:
            return fixed
        key = (gpu_key, phase)
        if key in self._plan_cache:
            return self._plan_cache[key]
        try:
            plan = deduce_parallel_plan(
                self.cluster, list(gpu_ids), phase, self.model, self.workload, self.params
            )
        except InsufficientMemoryError:
            plan = None
        self._plan_cache[key] = plan
        return plan

    # ------------------------------------------------------------------ evaluate
    def evaluate(self, solution: UpperLevelSolution) -> float:
        """Objective value ``f(x)`` of an upper-level solution (for tabu search).

        Memoised on the solution's canonical key: the tabu search repeatedly
        generates structurally identical candidates across steps, and a full
        ``solve`` is by far the hottest call of the whole scheduling run.
        """
        key = solution.key()
        cached = self._objective_cache.get(key)
        if cached is not None:
            return cached
        objective = self.solve(solution).objective
        self._objective_cache[key] = objective
        return objective

    def evaluate_batch(self, solutions: Sequence[UpperLevelSolution]) -> List[float]:
        """Objective values of a whole neighbourhood batch.

        Structurally identical candidates within the batch (and across previous
        batches) hit :meth:`evaluate`'s memo; the estimator's replica-performance
        and grid-latency caches are shared by all candidates, so batch scoring
        costs roughly one ``solve`` per *distinct new* solution.
        """
        return [self.evaluate(s) for s in solutions]

    def solve(self, solution: UpperLevelSolution) -> LowerLevelResult:
        """Fully evaluate a solution and build its deployment plan."""
        self.num_evaluations += 1
        groups: List[ServingGroup] = []
        for idx, assignment in enumerate(solution.groups):
            plan = self._plan_for(tuple(assignment.gpu_ids), assignment.phase)
            if plan is None:
                return LowerLevelResult(objective=INFEASIBLE_OBJECTIVE, feasible=False)
            groups.append(
                ServingGroup(
                    group_id=idx,
                    gpu_ids=tuple(sorted(assignment.gpu_ids)),
                    phase=assignment.phase,
                    plan=plan,
                )
            )

        prefill_groups = [g for g in groups if g.phase is Phase.PREFILL]
        decode_groups = [g for g in groups if g.phase is Phase.DECODE]
        if not prefill_groups or not decode_groups:
            return LowerLevelResult(objective=INFEASIBLE_OBJECTIVE, feasible=False)

        prefills = [self.estimator.replica_performance(g) for g in prefill_groups]
        decodes = [self.estimator.replica_performance(g) for g in decode_groups]

        prefill_caps = [self.estimator.prefill_capacity_fraction(p) for p in prefills]
        decode_caps = [self.estimator.decode_capacity_fraction(d) for d in decodes]

        # Two-pass fixed point: operating points from a provisional routing, then
        # the final attainment matrix and routing at those operating points.
        z = self._initial_joint(prefill_caps, decode_caps)
        orchestration: Optional[OrchestrationResult] = None
        d = np.zeros((len(prefills), len(decodes)))
        for _ in range(2):
            utilizations, batches = self.estimator.operating_points(
                prefills, decodes, *self._shares(z)
            )
            d = self.estimator.attainment_matrix(
                prefills, decodes,
                prefill_utilizations=utilizations,
                decode_batches=batches,
                slo_type=self.slo_type,
            )
            # The served-capacity bonus keeps the LP (and hence the tabu search)
            # oriented towards serving more traffic even when D saturates at 0/1.
            orchestration = self._orchestrate(d + SERVED_FRACTION_BONUS, prefill_caps, decode_caps)
            z = orchestration.z

        assert orchestration is not None
        routing = RoutingPolicy.from_matrices(
            [g.group_id for g in prefill_groups],
            [g.group_id for g in decode_groups],
            orchestration.x,
            orchestration.y,
        )
        plan = DeploymentPlan(
            groups=tuple(groups),
            routing=routing,
            model_name=self.model.name,
            kv_transport_bits=self.kv_transport_bits,
        )
        if self.orchestration_mode == "lp":
            effective = orchestration.z
        else:
            # Non-optimised orchestration ignores replica capacities when routing,
            # so score it on the capacity-clipped routing: mass sent beyond a
            # replica's sustainable share queues up and misses its SLO.
            effective = self._clip_to_capacity(orchestration.z, prefill_caps, decode_caps)
        estimated_attainment = float((effective * d).sum())
        objective = estimated_attainment + SERVED_FRACTION_BONUS * float(effective.sum())
        return LowerLevelResult(
            objective=objective,
            feasible=True,
            plan=plan,
            attainment_matrix=d,
            estimated_attainment=estimated_attainment,
        )

    # ------------------------------------------------------------------ internals
    def _initial_joint(self, prefill_caps: List[float], decode_caps: List[float]) -> np.ndarray:
        """Capacity-proportional provisional routing used to seed the fixed point."""
        p = np.asarray(prefill_caps, dtype=float)
        q = np.asarray(decode_caps, dtype=float)
        p = p / p.sum() if p.sum() > 0 else np.full_like(p, 1.0 / len(p))
        q = q / q.sum() if q.sum() > 0 else np.full_like(q, 1.0 / len(q))
        return np.outer(p, q)

    @staticmethod
    def _shares(z: np.ndarray) -> Tuple[List[float], List[float]]:
        """Prefill (row) and decode (column) shares of the offered rate under routing ``z``.

        The routing is normalised before the shares are taken: the LP clips
        routed mass to replica capacities (``z.sum() < 1`` under overload),
        but :class:`RoutingPolicy` renormalises ``X`` to route the *full*
        offered rate, so the replicas' real arrival rates follow the mass
        shares, not the capacity-clipped mass.  Shares of clipped mass would
        let a fleet offered 1.5x its capacity report rho ~ 0.85, because the
        LP refused to route the overflow the serving system still absorbs.
        """
        total = float(z.sum())
        m, n = z.shape
        rows = [float(z[i, :].sum()) / total if total > 0 else 1.0 / m for i in range(m)]
        cols = [float(z[:, j].sum()) / total if total > 0 else 1.0 / n for j in range(n)]
        return rows, cols

    @staticmethod
    def _clip_to_capacity(
        z: np.ndarray, prefill_caps: List[float], decode_caps: List[float]
    ) -> np.ndarray:
        """Down-scale a joint routing so no replica exceeds its capacity fraction."""
        clipped = np.asarray(z, dtype=float).copy()
        row_sums = clipped.sum(axis=1)
        for i, cap in enumerate(prefill_caps):
            if row_sums[i] > cap > 0:
                clipped[i] *= cap / row_sums[i]
            elif cap <= 0:
                clipped[i] = 0.0
        col_sums = clipped.sum(axis=0)
        for j, cap in enumerate(decode_caps):
            if col_sums[j] > cap > 0:
                clipped[:, j] *= cap / col_sums[j]
            elif cap <= 0:
                clipped[:, j] = 0.0
        return clipped

    def _orchestrate(
        self, d: np.ndarray, prefill_caps: List[float], decode_caps: List[float]
    ) -> OrchestrationResult:
        if self.orchestration_mode == "lp":
            key = (d.shape, d.tobytes(), tuple(prefill_caps), tuple(decode_caps))
            result = self._orchestration_cache.get(key)
            if result is None:
                result = solve_orchestration(d, prefill_caps, decode_caps)
                self._orchestration_cache[key] = result
            return result
        return random_orchestration(d.shape[0], d.shape[1], self._rng)


__all__ = ["LowerLevelSolver", "LowerLevelResult", "INFEASIBLE_OBJECTIVE"]
