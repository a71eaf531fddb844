"""DistServe-like baseline: homogeneous phase splitting without KV compression.

DistServe disaggregates prefill and decode onto separate (homogeneous, in-house)
GPU groups and relies on fast intra-node links for KV transfer.  Our baseline:

* splits the in-house GPUs into identical replicas (same group size as the vLLM
  baseline),
* designates each replica as prefill or decode, choosing the split that maximises
  the analytic SLO estimator's objective (DistServe optimises goodput with a
  simulator in the same spirit),
* transfers KV caches at full 16-bit precision (no ThunderServe compression),
* uses the same orchestration LP for routing (DistServe pairs replicas explicitly;
  the LP subsumes that choice on a homogeneous cluster).
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.baselines.common import BaselineSystem
from repro.core.exceptions import SchedulingError
from repro.core.types import Phase, SLOSpec
from repro.costmodel.reference import a100_reference_latency
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import SimulationResult
from repro.workload.trace import Trace


class DistServeBaseline(BaselineSystem):
    """Homogeneous phase-splitting baseline (DistServe-style)."""

    name = "distserve"

    def __init__(
        self,
        *args,
        gpus_per_replica: Optional[int] = None,
        slo: Optional[SLOSpec] = None,
        slo_scale: float = 5.0,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.gpus_per_replica = gpus_per_replica
        self.slo = slo
        self.slo_scale = slo_scale
        self.plan: Optional[DeploymentPlan] = None
        self._simulator: Optional[ServingSimulator] = None

    # ------------------------------------------------------------------ build
    def build(self) -> None:
        """Choose the best prefill:decode split of identical replicas."""
        size = self.gpus_per_replica or self.smallest_feasible_group_size()
        groups = self._even_gpu_groups(size)
        if len(groups) < 2:
            raise SchedulingError(
                "DistServe needs at least two replicas (one prefill + one decode)"
            )
        slo = self.slo or a100_reference_latency(self.model, self.workload, params=self.params).slo_spec(
            self.slo_scale
        )
        solver = LowerLevelSolver(
            cluster=self.cluster,
            model=self.model,
            workload=self.workload,
            slo=slo,
            request_rate=self.request_rate,
            kv_transport_bits=16,  # DistServe ships KV caches uncompressed
            params=self.params,
        )
        best_objective = float("-inf")
        best_plan: Optional[DeploymentPlan] = None
        for num_prefill in range(1, len(groups)):
            phases = [Phase.PREFILL] * num_prefill + [Phase.DECODE] * (len(groups) - num_prefill)
            solution = UpperLevelSolution.from_lists(list(zip(groups, phases)))
            result = solver.solve(solution)
            if result.feasible and result.objective > best_objective:
                best_objective = result.objective
                best_plan = result.plan
        if best_plan is None:
            raise SchedulingError("no feasible prefill/decode split found for DistServe")
        self.plan = best_plan
        self._simulator = ServingSimulator(
            self.cluster,
            best_plan,
            self.model,
            params=self.params,
            config=SimulatorConfig(seed=self.seed),
        )

    @property
    def prefill_decode_ratio(self) -> Tuple[int, int]:
        """(prefill replicas, decode replicas) of the chosen split."""
        self.ensure_built()
        assert self.plan is not None
        return self.plan.prefill_decode_ratio

    def serve(self, trace: Trace) -> SimulationResult:
        """Replay a trace with the phase-splitting simulator."""
        self.ensure_built()
        assert self._simulator is not None
        return self._simulator.run(trace, label=self.name)


__all__ = ["DistServeBaseline"]
