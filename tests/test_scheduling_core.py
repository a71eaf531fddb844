"""Unit tests for tabu search, the SLO estimator, orchestration and the lower level."""

import numpy as np
import pytest

from repro.core.exceptions import SchedulingError
from repro.core.types import Phase, SLOType
from repro.costmodel.reference import a100_reference_latency
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy, ServingGroup
from repro.scheduling.estimator import SLOEstimator
from repro.scheduling.lower_level import INFEASIBLE_OBJECTIVE, LowerLevelSolver
from repro.scheduling.orchestration import random_orchestration, solve_orchestration
from repro.scheduling.solution import UpperLevelSolution
from repro.scheduling.tabu import TabuSearch, TabuSearchConfig


def batched(objective):
    """Lift a scalar objective to the batch objective ``TabuSearch`` takes."""
    return lambda candidates: [objective(c) for c in candidates]


class TestTabuSearch:
    def test_finds_maximum_of_simple_function(self):
        # Solutions are integers; objective peaks at 42.
        def objective(x):
            return -abs(x - 42)

        def neighbors(x, count):
            return [x - 2, x - 1, x + 1, x + 2][:count]

        search = TabuSearch(
            batched(objective), neighbors, config=TabuSearchConfig(num_steps=60, num_neighbors=4)
        )
        result = search.run(0)
        assert result.best_solution == 42
        assert result.best_objective == 0

    def test_trace_monotone_nondecreasing(self):
        def objective(x):
            return -abs(x - 10)

        def neighbors(x, count):
            return [x - 1, x + 1]

        config = TabuSearchConfig(num_steps=20, num_neighbors=2)
        result = TabuSearch(batched(objective), neighbors, config=config).run(0)
        bests = [b for _, b in result.trace.history]
        assert all(b2 >= b1 for b1, b2 in zip(bests, bests[1:]))

    def test_tabu_list_is_bounded(self):
        seen = []

        def objective(x):
            seen.append(x)
            return float(-(x % 7))

        def neighbors(x, count):
            return [x + 1, x + 2]

        config = TabuSearchConfig(num_steps=15, num_neighbors=2, memory_size=3)
        TabuSearch(batched(objective), neighbors, config=config).run(0)
        assert len(seen) > 0

    def test_patience_stops_early(self):
        calls = {"count": 0}

        def objective(x):
            calls["count"] += 1
            return 0.0  # flat landscape: never improves

        def neighbors(x, count):
            return [x + 1]

        config = TabuSearchConfig(num_steps=100, num_neighbors=1, patience=3)
        TabuSearch(batched(objective), neighbors, config=config).run(0)
        assert calls["count"] < 20

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            TabuSearchConfig(num_steps=0)


class TestOrchestration:
    def test_uncapacitated_routes_everything_to_best_pair(self):
        d = np.array([[0.2, 0.9], [0.5, 0.4]])
        result = solve_orchestration(d)
        assert result.served_fraction == pytest.approx(1.0)
        assert result.objective == pytest.approx(0.9)
        assert result.z[0, 1] == pytest.approx(1.0)

    def test_capacity_constraints_spread_load(self):
        d = np.array([[0.9, 0.8], [0.7, 0.6]])
        result = solve_orchestration(d, prefill_capacity=[0.5, 0.5], decode_capacity=[0.5, 0.5])
        assert result.served_fraction == pytest.approx(1.0)
        assert result.z.sum(axis=1).max() <= 0.5 + 1e-6
        assert result.z.sum(axis=0).max() <= 0.5 + 1e-6

    def test_insufficient_capacity_serves_partially(self):
        d = np.ones((1, 1))
        result = solve_orchestration(d, prefill_capacity=[0.4], decode_capacity=[1.0])
        assert result.served_fraction == pytest.approx(0.4)
        assert result.objective == pytest.approx(0.4)

    def test_x_sums_to_one_and_rows_normalised(self):
        d = np.array([[0.3, 0.6, 0.1], [0.2, 0.2, 0.9]])
        result = solve_orchestration(d, prefill_capacity=[0.6, 0.6], decode_capacity=[0.5, 0.5, 0.5])
        assert result.x.sum() == pytest.approx(1.0)
        for row in result.y:
            assert row.sum() == pytest.approx(1.0)

    def test_objective_prefers_higher_attainment_pairs(self):
        d = np.array([[0.1, 0.1], [0.1, 1.0]])
        result = solve_orchestration(d, prefill_capacity=[1.0, 1.0], decode_capacity=[1.0, 1.0])
        assert result.z[1, 1] > 0.9

    def test_random_orchestration_valid_distribution(self):
        result = random_orchestration(3, 2, np.random.default_rng(0))
        assert result.x.sum() == pytest.approx(1.0)
        assert np.allclose(result.y.sum(axis=1), 1.0)

    def test_empty_matrix_rejected(self):
        with pytest.raises(Exception):
            solve_orchestration(np.zeros((0, 0)))

    @pytest.mark.parametrize(
        "d, prefill",
        [
            ([[np.nan, 0.5]], None),
            ([[np.inf, 0.5]], None),
            ([[0.9, 0.5]], [np.nan]),
        ],
        ids=["nan-attainment", "inf-attainment", "nan-capacity"],
    )
    def test_non_finite_inputs_rejected(self, d, prefill):
        with pytest.raises(SchedulingError):
            solve_orchestration(np.array(d), prefill_capacity=prefill)

    def test_infinite_capacity_is_uncapacitated(self):
        d = np.array([[0.2, 0.9], [0.5, 0.4]])
        capped = solve_orchestration(d, prefill_capacity=[np.inf, np.inf])
        assert capped.z.tobytes() == solve_orchestration(d).z.tobytes()


@pytest.fixture(scope="module")
def estimator_setup(small_hetero_cluster_mod, model_30b_mod, conversation_mod):
    cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
    slo = a100_reference_latency(model, workload).slo_spec(6.0)
    estimator = SLOEstimator(cluster, model, workload, slo, request_rate=3.0)
    return cluster, model, workload, estimator


@pytest.fixture(scope="module")
def small_hetero_cluster_mod():
    from repro.hardware.cluster import make_two_datacenter_cluster

    return make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)


@pytest.fixture(scope="module")
def model_30b_mod():
    from repro.model.architecture import get_model_config

    return get_model_config("llama-30b")


@pytest.fixture(scope="module")
def conversation_mod():
    from repro.workload.spec import CONVERSATION_WORKLOAD

    return CONVERSATION_WORKLOAD


def _group(cluster, model, workload, gpu_type, phase, group_id):
    from repro.parallelism.enumeration import deduce_parallel_plan

    gpu_ids = [g.gpu_id for g in cluster.gpus_of_type(gpu_type)]
    plan = deduce_parallel_plan(cluster, gpu_ids, phase, model, workload)
    return ServingGroup(group_id=group_id, gpu_ids=tuple(sorted(gpu_ids)), phase=phase, plan=plan)


class TestSLOEstimator:
    def test_ndtri_matches_norm_ppf_bitwise(self):
        """The in-tree ``ndtri`` is bitwise ``scipy.special.ndtri`` and ``norm.ppf``.

        Both scipy functions are the oracles.  Every grid size up to 199,
        random q, both tails down to 1e-300 (each branch of the rational
        approximation) and the ends ``q = 0, 1`` agree.
        """
        from scipy.special import ndtri as scipy_ndtri
        from scipy.stats import norm

        from repro.scheduling.estimator import ndtri

        def port(q):
            return np.array([ndtri(v) for v in q.tolist()])

        for k in range(1, 200):
            q = np.linspace(0.08, 0.92, k)
            assert port(q).tobytes() == scipy_ndtri(q).tobytes() == norm.ppf(q).tobytes(), k
        rng = np.random.default_rng(0)
        tails = 10.0 ** rng.uniform(-300, 0, 20_000)
        q = np.concatenate([rng.random(100_000), tails, 1.0 - tails, [0.0, 1.0, 5e-324]])
        assert port(q).tobytes() == scipy_ndtri(q).tobytes() == norm.ppf(q).tobytes()
        assert ndtri(0.0) == -np.inf and ndtri(1.0) == np.inf

    def test_grid_equals_the_norm_ppf_grid(self, monkeypatch, estimator_setup):
        """The estimator's grid is the one ``norm.ppf`` quantiles give, for every workload."""
        from scipy.stats import norm

        from repro.scheduling import estimator as estimator_module
        from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD

        cluster, model, _, estimator = estimator_setup
        workloads = (CODING_WORKLOAD, CONVERSATION_WORKLOAD)
        grids = [
            SLOEstimator(cluster, model, w, estimator.slo, request_rate=3.0)._grid for w in workloads
        ]
        monkeypatch.setattr(estimator_module, "ndtri", norm.ppf)
        for workload, grid in zip(workloads, grids):
            assert grid == SLOEstimator(cluster, model, workload, estimator.slo, request_rate=3.0)._grid

    def test_replica_performance_fields(self, estimator_setup):
        cluster, model, workload, estimator = estimator_setup
        group = _group(cluster, model, workload, "A40", Phase.PREFILL, 0)
        perf = estimator.replica_performance(group)
        assert perf.prefill_service_s > 0
        assert perf.prefill_capacity_rps > 0
        assert perf.decode_max_batch > 0
        assert perf.decode_token_capacity > 0

    def test_attainment_matrix_in_unit_interval(self, estimator_setup):
        cluster, model, workload, estimator = estimator_setup
        prefill = estimator.replica_performance(_group(cluster, model, workload, "A40", Phase.PREFILL, 0))
        decode = estimator.replica_performance(_group(cluster, model, workload, "3090Ti", Phase.DECODE, 1))
        d = estimator.attainment_matrix([prefill], [decode])
        assert d.shape == (1, 1)
        assert 0.0 <= d[0, 0] <= 1.0

    def test_looser_slo_never_reduces_attainment(self, small_hetero_cluster_mod, model_30b_mod, conversation_mod):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        ref = a100_reference_latency(model, workload)
        values = []
        for scale in (2.0, 8.0):
            estimator = SLOEstimator(cluster, model, workload, ref.slo_spec(scale), request_rate=3.0)
            prefill = estimator.replica_performance(_group(cluster, model, workload, "A40", Phase.PREFILL, 0))
            decode = estimator.replica_performance(_group(cluster, model, workload, "3090Ti", Phase.DECODE, 1))
            values.append(estimator.attainment_matrix([prefill], [decode])[0, 0])
        assert values[1] >= values[0]

    def test_higher_prefill_utilization_hurts(self, estimator_setup):
        cluster, model, workload, estimator = estimator_setup
        prefill = estimator.replica_performance(_group(cluster, model, workload, "A40", Phase.PREFILL, 0))
        decode = estimator.replica_performance(_group(cluster, model, workload, "3090Ti", Phase.DECODE, 1))
        # The congestion term grows with utilisation, and the pair's attainment
        # falls with it (for the E2E and the TTFT SLO alike).
        assert estimator._queue_wait(prefill, 0.9) > estimator._queue_wait(prefill, 0.1)
        for slo_type in (SLOType.E2E, SLOType.TTFT):
            low, high = (
                estimator.attainment_matrix(
                    [prefill], [decode], prefill_utilizations=[rho], slo_type=slo_type
                )[0, 0]
                for rho in (0.1, 0.9)
            )
            assert high < low

    def test_decode_operating_batch_monotone_in_rate(self, estimator_setup):
        cluster, model, workload, estimator = estimator_setup
        decode = estimator.replica_performance(_group(cluster, model, workload, "3090Ti", Phase.DECODE, 1))
        low = decode.decode_operating_batch(50.0, 1100)
        high = decode.decode_operating_batch(500.0, 1100)
        assert high >= low

    def test_capacity_fractions_bounded(self, estimator_setup):
        cluster, model, workload, estimator = estimator_setup
        prefill = estimator.replica_performance(_group(cluster, model, workload, "A40", Phase.PREFILL, 0))
        decode = estimator.replica_performance(_group(cluster, model, workload, "3090Ti", Phase.DECODE, 1))
        assert 0.0 <= estimator.prefill_capacity_fraction(prefill) <= 1.0
        assert 0.0 <= estimator.decode_capacity_fraction(decode) <= 1.0


class TestLowerLevelSolver:
    def _solver(self, cluster, model, workload, rate=3.0, scale=6.0, **kwargs):
        slo = a100_reference_latency(model, workload).slo_spec(scale)
        return LowerLevelSolver(cluster=cluster, model=model, workload=workload, slo=slo,
                                request_rate=rate, **kwargs)

    def test_feasible_solution_produces_full_plan(self, small_hetero_cluster_mod, model_30b_mod, conversation_mod):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.DECODE)])
        result = self._solver(cluster, model, workload).solve(solution)
        assert result.feasible
        assert result.plan is not None
        assert result.plan.routing is not None
        assert 0.0 <= result.estimated_attainment <= 1.0
        # The search objective adds at most the served-capacity bonus on top.
        assert result.estimated_attainment <= result.objective <= result.estimated_attainment + 0.05 + 1e-9
        assert result.attainment_matrix.shape == (1, 1)

    def test_single_phase_solution_infeasible(self, small_hetero_cluster_mod, model_30b_mod, conversation_mod):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.PREFILL)])
        result = self._solver(cluster, model, workload).solve(solution)
        assert not result.feasible
        assert result.objective == INFEASIBLE_OBJECTIVE

    def test_undersized_group_infeasible(self, small_hetero_cluster_mod, model_30b_mod, conversation_mod):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists(
            [(a40, Phase.PREFILL), (ti[:1], Phase.DECODE), (ti[1:], Phase.DECODE)]
        )
        result = self._solver(cluster, model, workload).solve(solution)
        assert not result.feasible

    def test_fixed_plans_are_respected(self, small_hetero_cluster_mod, model_30b_mod, conversation_mod):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = tuple(sorted(g.gpu_id for g in cluster.gpus_of_type("A40")))
        ti = tuple(sorted(g.gpu_id for g in cluster.gpus_of_type("3090Ti")))
        from repro.parallelism.enumeration import deduce_parallel_plan

        fixed = {a40: deduce_parallel_plan(cluster, list(a40), Phase.PREFILL, model, workload)}
        solver = self._solver(cluster, model, workload, fixed_plans=fixed)
        solution = UpperLevelSolution.from_lists([(a40, Phase.DECODE), (ti, Phase.PREFILL)])
        result = solver.solve(solution)
        assert result.feasible
        decode_group = result.plan.decode_groups[0]
        assert decode_group.plan == fixed[a40]

    def test_overcapacity_demand_scores_near_zero(self, small_hetero_cluster_mod, model_30b_mod, conversation_mod):
        """Demand beyond fleet prefill capacity must not be flattered.

        The old ``min(0.95, ...)`` clamp on the operating points (plus the
        LP's capacity-clipped routed mass) made an overloaded fleet look like a
        95%-utilised one, scoring ~0.9 attainment.  With the clamp gone and the
        routed shares normalised to the full offered rate, the implied
        ``rho >= 1`` reaches the estimator and the plan scores near zero.
        """
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.DECODE)])
        result = self._solver(cluster, model, workload, rate=50.0).solve(solution)
        assert result.feasible, "the plan is structurally valid, just overloaded"
        assert result.estimated_attainment <= 0.01, (
            f"overloaded plan scored {result.estimated_attainment:.3f}"
        )
        # Only the (bounded) served-capacity bonus may remain in the objective.
        assert result.objective <= 0.05 + 1e-9

    def test_lp_orchestration_at_least_as_good_as_random(self, small_hetero_cluster_mod, model_30b_mod, conversation_mod):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists(
            [(a40[:2], Phase.PREFILL), (a40[2:], Phase.PREFILL), (ti, Phase.DECODE)]
        )
        lp = self._solver(cluster, model, workload, orchestration_mode="lp").solve(solution)
        rnd = self._solver(cluster, model, workload, orchestration_mode="random").solve(solution)
        assert lp.objective >= rnd.objective - 1e-6

    @staticmethod
    def _counting(monkeypatch, name):
        import repro.scheduling.lower_level as lower_level

        calls = []
        original = getattr(lower_level, name)

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lower_level, name, counted)
        return calls

    def test_lp_orchestration_memoised_per_solver(
        self, monkeypatch, small_hetero_cluster_mod, model_30b_mod, conversation_mod
    ):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists(
            [(a40[:2], Phase.PREFILL), (a40[2:], Phase.PREFILL), (ti, Phase.DECODE)]
        )
        calls = self._counting(monkeypatch, "solve_orchestration")
        solver = self._solver(cluster, model, workload)
        first = solver.solve(solution)
        after_first = len(calls)
        second = solver.solve(solution)
        assert after_first >= 1
        assert len(calls) == after_first, "the repeated LPs must come from the memo"

        assert first.objective == second.objective
        assert first.estimated_attainment == second.estimated_attainment
        assert first.plan == second.plan
        np.testing.assert_array_equal(first.attainment_matrix, second.attainment_matrix)

    def test_random_orchestration_not_memoised(
        self, monkeypatch, small_hetero_cluster_mod, model_30b_mod, conversation_mod
    ):
        cluster, model, workload = small_hetero_cluster_mod, model_30b_mod, conversation_mod
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists(
            [(a40[:2], Phase.PREFILL), (a40[2:], Phase.PREFILL), (ti, Phase.DECODE)]
        )
        calls = self._counting(monkeypatch, "random_orchestration")
        solver = self._solver(cluster, model, workload, orchestration_mode="random")
        first = solver.solve(solution)
        after_first = len(calls)
        second = solver.solve(solution)
        assert after_first >= 1
        assert len(calls) == 2 * after_first
        assert first.plan.routing != second.plan.routing


class TestRoutingPolicy:
    def test_uniform_routing(self):
        routing = RoutingPolicy.uniform([0, 1], [2, 3, 4])
        assert routing.x.sum() == pytest.approx(1.0)
        assert routing.joint.sum() == pytest.approx(1.0)

    def test_invalid_weights_rejected(self):
        with pytest.raises(Exception):
            RoutingPolicy(prefill_group_ids=(0,), decode_group_ids=(1,),
                          prefill_weights=(0.5,), dispatch=((1.0,),))

    def test_pair_share(self):
        routing = RoutingPolicy.uniform([0, 1], [2, 3])
        assert routing.joint[0, 0] == pytest.approx(0.25)


class TestDeploymentPlan:
    def test_prefill_decode_split(self, small_plan):
        prefill, decode = small_plan.prefill_decode_ratio
        assert prefill == 1 and decode == 1

    def test_gpu_exclusivity_enforced(self, small_plan):
        groups = list(small_plan.groups)
        overlapping = ServingGroup(group_id=99, gpu_ids=groups[0].gpu_ids, phase=Phase.DECODE)
        with pytest.raises(Exception):
            DeploymentPlan(groups=tuple(groups + [overlapping]))

    def test_describe_mentions_phases(self, small_plan, small_hetero_cluster):
        names = {g.gpu_id: g.type_name for g in small_hetero_cluster.gpus}
        text = small_plan.describe(names)
        assert "prefill" in text and "decode" in text

    def test_group_lookup(self, small_plan):
        gid = small_plan.groups[0].group_id
        assert small_plan.group(gid).group_id == gid
        with pytest.raises(KeyError):
            small_plan.group(1234)

    def test_invalid_kv_bits_rejected(self, small_plan):
        with pytest.raises(Exception):
            DeploymentPlan(groups=small_plan.groups, kv_transport_bits=5)
