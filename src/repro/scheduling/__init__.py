"""ThunderServe's two-level scheduling algorithm (the paper's core contribution).

Upper level (§3.2): partition the heterogeneous GPU pool into model-serving groups
and designate each group's phase, searched with tabu search over four neighbourhood
moves (flip phase / split group / merge groups / move GPUs), initialised by
hierarchical clustering of the bandwidth matrix.

Lower level (§3.3): for a fixed group construction and phase designation, deduce
each group's optimal parallel configuration (Algorithm 2) and orchestrate prefill
and decode replicas by solving a two-stage transportation problem over the
estimated SLO-attainment matrix.

Lightweight rescheduling (§3.4): on workload shifts or GPU failures, only the phase
designation and the orchestration are re-optimised — parallel configurations are
kept and no parameters are reloaded.
"""

from repro.scheduling.deployment import DeploymentPlan, ServingGroup, RoutingPolicy
from repro.scheduling.solution import UpperLevelSolution, GroupAssignment
from repro.scheduling.clustering import initial_groups_by_clustering
from repro.scheduling.neighbors import construct_neighbors
from repro.scheduling.tabu import TabuSearch, TabuSearchConfig, SearchTrace
from repro.scheduling.estimator import SLOEstimator, ReplicaPerformance
from repro.scheduling.orchestration import solve_orchestration, OrchestrationResult
from repro.scheduling.lower_level import LowerLevelSolver, LowerLevelResult
from repro.scheduling.scheduler import Scheduler, SchedulerConfig, ScheduleResult
from repro.scheduling.rescheduling import (
    LightweightRescheduler,
    ReschedulingOverheadModel,
)

__all__ = [
    "DeploymentPlan",
    "ServingGroup",
    "RoutingPolicy",
    "UpperLevelSolution",
    "GroupAssignment",
    "initial_groups_by_clustering",
    "construct_neighbors",
    "TabuSearch",
    "TabuSearchConfig",
    "SearchTrace",
    "SLOEstimator",
    "ReplicaPerformance",
    "solve_orchestration",
    "OrchestrationResult",
    "LowerLevelSolver",
    "LowerLevelResult",
    "Scheduler",
    "SchedulerConfig",
    "ScheduleResult",
    "LightweightRescheduler",
    "ReschedulingOverheadModel",
]
