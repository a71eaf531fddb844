"""Algorithm 1's early stops return exactly what its whole budget returns.

The tabu search replaces its best solution only on a strict improvement, so it
stops once nothing it could still score can change the result: when the best
objective reaches the solver's ceiling
(:data:`~repro.scheduling.lower_level.OBJECTIVE_CEILING`) and, in the
flip-only rescheduler, once every designation of the surviving groups has been
scored.  The oracle is the same search without the stops: for the scheduler,
the solver's ``ceiling`` patched to ``None``; for the rescheduler, its
flip-only search spelled out below with neither stop.
"""

from __future__ import annotations

import pytest

from repro import (
    CODING_WORKLOAD,
    CONVERSATION_WORKLOAD,
    get_model_config,
    make_cloud_cluster,
    make_two_datacenter_cluster,
)
from repro.core.exceptions import SchedulingError
from repro.core.rng import ensure_rng
from repro.costmodel.reference import a100_reference_latency
from repro.scheduling.lower_level import OBJECTIVE_CEILING, LowerLevelSolver
from repro.scheduling.neighbors import construct_neighbors
from repro.scheduling.rescheduling import FLIP_SEARCH, LightweightRescheduler
from repro.scheduling.scheduler import Scheduler
from repro.scheduling.solution import UpperLevelSolution
from repro.scheduling.tabu import TabuSearch, TabuSearchConfig

MODEL = get_model_config("llama-30b")


def _bits(value: float) -> str:
    return float(value).hex()


# --------------------------------------------------------------------------- TabuSearch
def _toy_search(ceiling, num_steps=20):
    """Walk the integers towards the maximum 0 of ``-(x - 7)**2`` from 0."""
    return TabuSearch(
        objective=lambda xs: [-((x - 7) ** 2) for x in xs],
        neighbor_fn=lambda x, count: [x - 1, x + 1],
        config=TabuSearchConfig(num_steps=num_steps, num_neighbors=2, patience=0),
        ceiling=ceiling,
    )


def _assert_monotone(history):
    bests = [best for _, best in history]
    assert bests == sorted(bests)


def test_tabu_search_stops_at_the_first_step_that_reaches_the_ceiling():
    result = _toy_search(ceiling=0.0).run(0)
    assert result.best_solution == 7 and result.best_objective == 0.0
    # The initial score plus seven steps; the seventh reached 0.  Step one
    # scores -1 and 1, every later step only x + 1 (x - 1 is tabu).
    assert len(result.trace.history) == 8
    assert result.trace.history[-2][1] < 0.0 == result.trace.history[-1][1]
    assert result.trace.num_evaluations == 1 + 2 + 6
    _assert_monotone(result.trace.history)


def test_tabu_search_without_a_ceiling_spends_its_whole_budget():
    result = _toy_search(ceiling=None).run(0)
    assert result.best_solution == 7 and result.best_objective == 0.0
    assert len(result.trace.history) == 21
    assert result.trace.num_evaluations > 1 + 2 + 6
    _assert_monotone(result.trace.history)


def test_tabu_search_that_starts_at_the_ceiling_takes_no_step():
    result = _toy_search(ceiling=0.0).run(7)
    assert result.best_solution == 7
    assert len(result.trace.history) == 1 and result.trace.num_evaluations == 1


# --------------------------------------------------------------------------- Scheduler
#: the deploys of the benchmark's two clusters: (cluster, workload, planned rate, SLO scale)
DEPLOYS = {
    "cloud": (make_cloud_cluster, CONVERSATION_WORKLOAD, 1.6, 10.0),
    "two-dc": (lambda: make_two_datacenter_cluster(inter_dc_gbps=5.0), CODING_WORKLOAD, 1.0, 16.0),
}


def _slo(workload, scale):
    return a100_reference_latency(MODEL, workload).slo_spec(scale)


@pytest.fixture(scope="module")
def deploys():
    """Each deploy's cluster, workload, SLO and stopped schedule."""
    out = {}
    for name, (make_cluster, workload, rate, scale) in DEPLOYS.items():
        cluster, slo = make_cluster(), _slo(workload, scale)
        schedule = Scheduler().schedule(cluster, MODEL, workload, rate, slo)
        out[name] = (cluster, workload, rate, slo, schedule)
    return out


@pytest.mark.parametrize("name", sorted(DEPLOYS))
def test_scheduler_stopped_at_the_ceiling_returns_the_unstopped_plan(name, deploys, monkeypatch):
    cluster, workload, rate, slo, stopped = deploys[name]
    monkeypatch.setattr(LowerLevelSolver, "ceiling", None)
    unstopped = Scheduler().schedule(cluster, MODEL, workload, rate, slo)
    assert stopped.plan == unstopped.plan
    assert _bits(stopped.objective) == _bits(unstopped.objective)
    assert stopped.solution.key() == unstopped.solution.key()
    assert stopped.lower_result.attainment_matrix.tobytes() == (
        unstopped.lower_result.attainment_matrix.tobytes()
    )
    assert stopped.objective >= OBJECTIVE_CEILING
    assert stopped.trace.num_evaluations < unstopped.trace.num_evaluations


def test_random_orchestration_has_no_ceiling():
    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0)
    solver = LowerLevelSolver(
        cluster, MODEL, CODING_WORKLOAD, _slo(CODING_WORKLOAD, 16.0), 1.0,
        orchestration_mode="random",
    )
    assert solver.ceiling is None


# --------------------------------------------------------------------------- rescheduler
def _unstopped_reschedule(plan, cluster, workload, rate, slo, seed=0):
    """:meth:`LightweightRescheduler.reschedule` with neither stop: the oracle."""
    rng = ensure_rng(seed)
    available = set(cluster.gpu_ids)
    surviving = [g for g in plan.groups if set(g.gpu_ids) <= available]
    solver = LowerLevelSolver(
        cluster=cluster,
        model=MODEL,
        workload=workload,
        slo=slo,
        request_rate=rate,
        fixed_plans={tuple(sorted(g.gpu_ids)): g.plan for g in surviving},
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    initial = UpperLevelSolution.from_lists([(g.gpu_ids, g.phase) for g in surviving])
    search = TabuSearch(
        objective=solver.evaluate_batch,
        neighbor_fn=lambda s, count: construct_neighbors(
            s, cluster, MODEL, num_neighbors=count, rng=rng, moves=["flip"]
        ),
        key_fn=lambda s: s.key(),
        config=FLIP_SEARCH,
    )
    result = search.run(initial)
    lower = solver.solve(result.best_solution)
    if not lower.feasible or lower.plan is None:
        lower = solver.solve(initial)
        if not lower.feasible or lower.plan is None:
            raise SchedulingError("lightweight rescheduling could not produce a feasible plan")
    return lower, result.trace


def _survivors(deploys, name, keep):
    """The deploy's plan and its cluster with every group outside ``keep`` failed."""
    cluster, _, _, _, schedule = deploys[name]
    groups = schedule.plan.groups
    failed = [next(iter(g.gpu_ids)) for i, g in enumerate(groups) if i not in keep]
    return schedule.plan, cluster.without_gpus(failed) if failed else cluster


#: (deploy, surviving group indices, workload, rate, SLO scale)
RESCHEDULES = {
    "two-dc K=3": ("two-dc", (0, 1, 2), CONVERSATION_WORKLOAD, 3.0, 5.0),
    "two-dc K=3 at the ceiling": ("two-dc", (0, 1, 2), CODING_WORKLOAD, 1.0, 16.0),
    "cloud K=3": ("cloud", (0, 2, 3), CONVERSATION_WORKLOAD, 1.6, 5.0),
    "cloud K=3 one phase": ("cloud", (0, 1, 3), CONVERSATION_WORKLOAD, 1.6, 5.0),
    "two-dc K=2 one phase": ("two-dc", (0, 1), CODING_WORKLOAD, 1.0, 16.0),
}


def _scored_keys(monkeypatch):
    """Record the key of every solution the solver scores from now on."""
    keys = set()
    original = LowerLevelSolver.evaluate

    def recorded(self, solution):
        keys.add(solution.key())
        return original(self, solution)

    monkeypatch.setattr(LowerLevelSolver, "evaluate", recorded)
    return keys


@pytest.mark.parametrize("case", sorted(RESCHEDULES))
def test_rescheduler_stops_return_the_unstopped_plan(case, deploys, monkeypatch):
    name, keep, workload, rate, scale = RESCHEDULES[case]
    plan, cluster = _survivors(deploys, name, keep)
    phases = {plan.groups[i].phase for i in keep}
    assert len(phases) == (1 if case.endswith("one phase") else 2)
    slo = _slo(workload, scale)
    with monkeypatch.context() as patch:
        stopped_keys = _scored_keys(patch)
        stopped = LightweightRescheduler(seed=0).reschedule(
            plan, cluster, MODEL, workload, rate, slo
        )
    with monkeypatch.context() as patch:
        unstopped_keys = _scored_keys(patch)
        lower, trace = _unstopped_reschedule(plan, cluster, workload, rate, slo)
    if stopped.objective < OBJECTIVE_CEILING:
        # Below the ceiling only an exhausted flip space stops the search, and
        # by then it has scored everything the unstopped search ever scores.
        assert stopped_keys == unstopped_keys
    assert stopped.plan == lower.plan
    assert _bits(stopped.objective) == _bits(lower.objective)
    assert stopped.lower_result.attainment_matrix.tobytes() == lower.attainment_matrix.tobytes()
    if len(keep) == 2:
        # Each two-phase designation's flips are one-phase plans, which are
        # infeasible, so the unstopped search ends on an empty neighbourhood too.
        assert stopped.trace.num_evaluations == trace.num_evaluations
    else:
        assert stopped.trace.num_evaluations < trace.num_evaluations


def test_rescheduler_with_one_surviving_group_raises_as_before(deploys):
    plan, cluster = _survivors(deploys, "two-dc", (2,))
    slo = _slo(CODING_WORKLOAD, 16.0)
    message = "lightweight rescheduling could not produce a feasible plan"
    with pytest.raises(SchedulingError, match=message):
        _unstopped_reschedule(plan, cluster, CODING_WORKLOAD, 1.0, slo)
    with pytest.raises(SchedulingError, match=message):
        LightweightRescheduler(seed=0).reschedule(plan, cluster, MODEL, CODING_WORKLOAD, 1.0, slo)
