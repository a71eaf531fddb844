"""The per-system cost-model pool, and the repeats it lets a system skip.

A :class:`CostModelPool` hands out one :class:`ReplicaCostModel` per equal
key, memos warm.  That is exact only if a model warmed through one set of
paths prices every other path like a fresh model, and if the key holds
everything a model reads.  A serving system shares one pool across its
simulators, shadow replays and searches; the live loop must report the same
bits with the pool bypassed.  Under ``lp`` orchestration the searches return
the result they scored instead of solving the best solution again, and the
breach path reuses the served window instead of replaying the incumbent.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import Phase
from repro.costmodel import latency
from repro.costmodel.latency import DEFAULT_PARAMS, CostModelPool, ReplicaCostModel
from repro.costmodel.reference import a100_reference_latency
from repro.experiments.chaos_recovery import default_fault_storm
from repro.faults.injector import FaultInjector
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.parallelism.config import ReplicaPlan
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.rescheduling import LightweightRescheduler
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.workload.generator import PoissonArrivalGenerator
from repro.workload.spec import CODING_WORKLOAD

CLUSTER = make_two_datacenter_cluster(inter_dc_gbps=5.0)
MODEL = get_model_config("llama-30b")
#: TP 2 x PP 2 on the A40s, TP 4 on the 3090Tis, and a PP 2 across the nodes
PLANS = (
    ReplicaPlan.from_stage_lists([(0, 1), (2, 3)], [30, 30]),
    ReplicaPlan.from_stage_lists([(4, 5, 6, 7)], [60]),
    ReplicaPlan.from_stage_lists([(3,), (4,)], [28, 32]),
)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


# --------------------------------------------------------------------------- exactness
@settings(max_examples=60, deadline=None)
@given(
    plan=st.sampled_from(PLANS),
    lengths=st.lists(st.integers(1, 4096), min_size=1, max_size=6),
    batches=st.lists(st.integers(1, 24), min_size=1, max_size=4),
    slowdown=st.floats(1.0, 4.0, allow_nan=False),
)
def test_a_model_warmed_by_the_estimator_serves_the_engine_bitwise(
    plan, lengths, batches, slowdown
):
    """Estimator paths first, then the engine's: the same bits as a fresh model."""
    pool = CostModelPool()
    warm = pool.get(CLUSTER, plan, MODEL, DEFAULT_PARAMS, slowdown)
    s = np.array(lengths, dtype=np.int64)
    for b in batches:
        warm.prefill_latency_grid(s, np.full_like(s, b))
        warm.prefill_service_moments(s, np.arange(1.0, len(s) + 1.0), batch_size=b)
    for c in lengths:
        warm.decode_step_column(c, max(batches))
        warm.max_decode_batch(c)
    assert pool.get(CLUSTER, plan, MODEL, DEFAULT_PARAMS, slowdown) is warm

    fresh = ReplicaCostModel(CLUSTER, plan, MODEL, DEFAULT_PARAMS, slowdown)
    for b in batches:
        for length in lengths:
            assert _bits(warm.prefill_latency_memo(length, b)) == _bits(
                fresh.prefill_latency_memo(length, b)
            )
        size = max(lengths) + 1
        assert _bits(warm.decode_step_row(b, size)[:size]) == _bits(
            fresh.decode_step_row(b, size)[:size]
        )


class TestPoolKey:
    """The key holds what a cost model reads, and nothing a fault fold changes needlessly."""

    def test_equal_keys_return_one_object(self):
        pool = CostModelPool()
        first = pool.get(CLUSTER, PLANS[0], MODEL)
        twin = make_two_datacenter_cluster(inter_dc_gbps=5.0)
        assert twin is not CLUSTER
        assert pool.get(twin, PLANS[0], MODEL) is first
        # Removing GPUs leaves the network's matrices alone.
        assert pool.get(CLUSTER.without_gpus([4, 5]), PLANS[0], MODEL) is first
        assert len(pool) == 1

    def test_a_changed_input_gets_a_new_object(self):
        pool = CostModelPool()
        first = pool.get(CLUSTER, PLANS[0], MODEL)
        degraded = CLUSTER.with_network(CLUSTER.network.scaled(bandwidth_scale=0.5))
        others = [
            pool.get(degraded, PLANS[0], MODEL),
            pool.get(CLUSTER, PLANS[0], MODEL, slowdown=1.5),
            pool.get(CLUSTER, PLANS[2], MODEL),
        ]
        assert len({id(first), *map(id, others)}) == 4
        assert len(pool) == 4
        # A degraded TP link prices differently, so sharing it would be wrong.
        assert first.prefill_latency(512) != others[0].prefill_latency(512)

    def test_the_pool_stays_within_its_bound(self, monkeypatch):
        monkeypatch.setattr(latency, "COST_MODEL_POOL_MAX", 3)
        pool = CostModelPool()
        for k in range(10):
            pool.get(CLUSTER, PLANS[k % len(PLANS)], MODEL, slowdown=1.0 + k)
            assert 1 <= len(pool) <= 3


def test_a_system_serves_from_its_pool():
    """The serving simulator's replicas are the pool's objects."""
    slo = a100_reference_latency(MODEL, CODING_WORKLOAD).slo_spec(16.0)
    system = ThunderServe(CLUSTER, MODEL, CODING_WORKLOAD, 1.0, slo=slo)
    system.deploy(seed=0)
    trace = PoissonArrivalGenerator(CODING_WORKLOAD, 0.9, seed=1).generate(40)
    system.serve(trace)
    replicas = {**system._simulator.prefills, **system._simulator.decodes}
    for gid, replica in replicas.items():
        group = system.plan.group(gid)
        assert replica.cost is system.cost_models.get(
            system.cluster, group.plan, MODEL, system.params
        )


# --------------------------------------------------------------------------- live contract
#: long enough for the storm to reach breaches after fault-free windows
HORIZON_S = 2400.0


def _report_signature(report):
    """Telemetry, fault log and every window result's digest of a live run."""
    digests = [r.digest() for r in report.results]
    return json.dumps([report.to_dicts(), report.fault_log], sort_keys=True), digests


@pytest.fixture(scope="module")
def chaos_setup():
    """The live-chaos set-up in small: a two-DC deployment and 2,400 s of the storm."""
    slo = a100_reference_latency(MODEL, CODING_WORKLOAD).slo_spec(16.0)
    deployed = ThunderServe(CLUSTER, MODEL, CODING_WORKLOAD, 1.0, slo=slo)
    plan = deployed.deploy(seed=0)
    storm = FaultInjector(default_fault_storm(), seed=25).compile(HORIZON_S, CLUSTER)
    arrays = PoissonArrivalGenerator(CODING_WORKLOAD, 0.92, seed=2).generate_arrays(2_600)
    window = arrays.to_trace(name="pool").window(0.0, HORIZON_S)
    return slo, plan, LiveServeConfig(window_s=30.0, faults=storm), window


def _live_run(chaos_setup):
    slo, plan, config, window = chaos_setup
    system = ThunderServe(CLUSTER, MODEL, CODING_WORKLOAD, 1.0, slo=slo)
    system.adopt_plan(plan)
    return LiveServer(system, config=config).run(window, label="pool")


def test_live_storm_is_bitwise_equal_without_the_pool(chaos_setup, monkeypatch):
    """Pooled and served-window reuse, or neither: the same report, bit for bit.

    In the pooled run every incumbent attainment the breach and recovery
    paths reuse is checked, as it is taken, against a real shadow replay.  A
    window served with in-engine faults is never reused.  One served without
    them is always reused while the simulator that served it is still the
    cached one (the breach path: nothing has changed since), and on a
    recovery whenever the replay's inputs kept their bits.
    """
    served_faults = []
    original_serve = ThunderServe.serve

    def serve(self, trace, *args, **kwargs):
        served_faults.append(kwargs.get("faults"))
        return original_serve(self, trace, *args, **kwargs)

    reused = []
    original_served = ThunderServe._served_attainment

    def served_attainment(self, trace, plan):
        value = original_served(self, trace, plan)
        if served_faults[-1]:
            assert value is None
        elif self._last_served[0] is self._simulator and self._last_served[1] is trace:
            assert value is not None
        if value is not None:
            assert value == self._shadow_attainment(plan, trace)
            reused.append(value)
        return value

    monkeypatch.setattr(ThunderServe, "serve", serve)
    monkeypatch.setattr(ThunderServe, "_served_attainment", served_attainment)
    pooled = _live_run(chaos_setup)
    assert reused, "no breach path validated a fault-free window"
    assert any(served_faults), "no window ran with in-engine faults"
    stats = pooled.fault_stats()
    assert stats["num_recovery_replans"] > 0 and stats["outage_windows"] > 0

    monkeypatch.setattr(
        CostModelPool, "get", lambda self, *args, **kwargs: ReplicaCostModel(*args, **kwargs)
    )
    monkeypatch.setattr(ThunderServe, "_served_attainment", lambda self, trace, plan: None)
    plain = _live_run(chaos_setup)
    assert _report_signature(plain) == _report_signature(pooled)


# --------------------------------------------------------------------------- scored results
SEARCH = TabuSearchConfig(num_steps=6, num_neighbors=4, patience=6)


@pytest.fixture()
def solves(monkeypatch):
    """Every ``LowerLevelSolver.solve`` call: (solution, result)."""
    calls = []
    original = LowerLevelSolver.solve

    def recorded(self, solution):
        result = original(self, solution)
        calls.append((solution, result))
        return result

    monkeypatch.setattr(LowerLevelSolver, "solve", recorded)
    return calls


@pytest.mark.parametrize("mode", ["lp", "random"])
def test_only_random_orchestration_solves_its_best_again(mode, solves, relaxed_slo):
    config = SchedulerConfig(tabu=SEARCH, orchestration_mode=mode, seed=1)
    result = Scheduler(config).schedule(CLUSTER, MODEL, CODING_WORKLOAD, 1.0, relaxed_slo)
    best = [r for s, r in solves if s.key() == result.solution.key()]
    if mode == "lp":
        # Scored once, and that result is the one returned.
        assert len(best) == 1 and result.lower_result is best[0]
    else:
        # Scored once, then drawn again for the returned plan.
        assert len(best) == 2 and solves[-1][0] is result.solution
        assert result.lower_result is solves[-1][1]


def test_flip_only_search_returns_the_result_it_scored(solves, relaxed_slo):
    plan = Scheduler(SchedulerConfig(tabu=SEARCH, seed=1)).schedule(
        CLUSTER, MODEL, CODING_WORKLOAD, 1.0, relaxed_slo
    ).plan
    solves.clear()
    result = LightweightRescheduler().reschedule(
        plan, CLUSTER, MODEL, CODING_WORKLOAD, 2.0, relaxed_slo
    )
    best = [
        r for s, r in solves
        if {(tuple(sorted(g.gpu_ids)), g.phase) for g in s.groups}
        == {(g.gpu_ids, g.phase) for g in result.plan.groups}
    ]
    assert len(best) == 1 and result.lower_result is best[0]
    assert {g.phase for g in result.plan.groups} == {Phase.PREFILL, Phase.DECODE}
