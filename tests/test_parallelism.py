"""Unit tests for parallel configuration, pipeline partitioning, routing and Algorithm 2."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import ConfigurationError, InsufficientMemoryError, InvalidPlanError
from repro.core.types import Phase
from repro.parallelism.config import ParallelConfig, PipelineStage, ReplicaPlan
from repro.parallelism.enumeration import (
    candidate_stage_groups,
    deduce_parallel_plan,
    enumerate_parallel_plans,
)
from repro.parallelism.partition import group_can_hold_model, partition_layers, stage_max_layers
from repro.parallelism.routing import (
    bottleneck_bandwidth,
    optimal_stage_order,
    stage_link_bandwidth,
)
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD


class TestParallelConfig:
    def test_num_gpus(self):
        assert ParallelConfig(tp=2, pp=3).num_gpus == 6

    def test_invalid_degrees_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(tp=0, pp=1)
        with pytest.raises(ConfigurationError):
            ParallelConfig(tp=1, pp=0)

    def test_str_matches_paper_notation(self):
        assert str(ParallelConfig(tp=2, pp=2)) == "(TP=2, PP=2)"


class TestReplicaPlan:
    def test_from_stage_lists(self):
        plan = ReplicaPlan.from_stage_lists([[0, 1], [2, 3]], [30, 30])
        assert plan.tp == 2 and plan.pp == 2
        assert plan.total_layers == 60
        assert plan.gpu_ids == [0, 1, 2, 3]

    def test_duplicate_gpu_rejected(self):
        with pytest.raises(InvalidPlanError):
            ReplicaPlan.from_stage_lists([[0, 1], [1, 2]], [30, 30])

    def test_empty_stage_rejected(self):
        with pytest.raises(InvalidPlanError):
            PipelineStage(gpu_ids=(), num_layers=10)

    def test_zero_layer_stage_rejected(self):
        with pytest.raises(InvalidPlanError):
            PipelineStage(gpu_ids=(0,), num_layers=0)

    def test_mismatched_lists_rejected(self):
        with pytest.raises(InvalidPlanError):
            ReplicaPlan.from_stage_lists([[0], [1]], [30])


class TestPartition:
    def test_partition_sums_to_model_layers(self, cloud_cluster, model_30b):
        a40 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A40")]
        split = partition_layers(cloud_cluster, [a40[:4], a40[4:]], model_30b, Phase.PREFILL)
        assert sum(split) == model_30b.num_layers
        assert all(s >= 1 for s in split)

    def test_heterogeneous_stages_get_unequal_layers(self, cloud_cluster, model_30b):
        a40 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A40")][:2]
        a5000 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A5000")][:2]
        split = partition_layers(cloud_cluster, [a40, a5000], model_30b, Phase.PREFILL)
        # The A40 stage (far more FLOPS) should host more layers than the A5000 stage.
        assert split[0] > split[1]

    def test_memory_cap_respected(self, cloud_cluster, model_30b):
        ti = [g.gpu_id for g in cloud_cluster.gpus_of_type("3090Ti")][:1]
        a40 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A40")][:4]
        split = partition_layers(cloud_cluster, [ti, a40], model_30b, Phase.DECODE)
        cap = stage_max_layers(cloud_cluster, ti, model_30b)
        assert split[0] <= cap

    def test_too_small_group_raises(self, cloud_cluster, model_30b):
        single = [cloud_cluster.gpus_of_type("A5000")[0].gpu_id]
        with pytest.raises(InsufficientMemoryError):
            partition_layers(cloud_cluster, [single], model_30b, Phase.PREFILL)

    def test_more_stages_than_layers_raises(self, cloud_cluster, tiny_model):
        stages = [[g] for g in cloud_cluster.gpu_ids[: tiny_model.num_layers + 1]]
        with pytest.raises(InsufficientMemoryError):
            partition_layers(cloud_cluster, stages, tiny_model, Phase.PREFILL)

    def test_group_can_hold_model(self, cloud_cluster, model_30b, tiny_model):
        single_a5000 = [cloud_cluster.gpus_of_type("A5000")[0].gpu_id]
        assert not group_can_hold_model(cloud_cluster, single_a5000, model_30b)
        assert group_can_hold_model(cloud_cluster, single_a5000, tiny_model)


class TestRouting:
    def test_single_stage_order(self, cloud_cluster):
        assert optimal_stage_order(cloud_cluster.network, [[0]]) == [0]

    def test_order_is_permutation(self, cloud_cluster):
        stages = [[0, 1], [4, 5], [8, 9], [16, 17]]
        order = optimal_stage_order(cloud_cluster.network, stages)
        assert sorted(order) == list(range(len(stages)))

    def test_optimal_order_at_least_as_good_as_identity(self, cloud_cluster):
        stages = [[0], [8], [16], [24], [4]]
        order = optimal_stage_order(cloud_cluster.network, stages)
        ordered = [stages[i] for i in order]
        identity = bottleneck_bandwidth(cloud_cluster.network, stages)
        optimised = bottleneck_bandwidth(cloud_cluster.network, ordered)
        assert optimised >= identity - 1e-9

    def test_greedy_fallback_for_many_stages(self, cloud_cluster):
        stages = [[g] for g in cloud_cluster.gpu_ids[:16]]
        order = optimal_stage_order(cloud_cluster.network, stages)
        assert sorted(order) == list(range(16))


def _dict_stage_order(network, stages):
    """The stage-order DP over ``(mask, last)`` dict keys: the test oracle.

    ``optimal_stage_order`` runs the same DP over flat lists; both must visit
    states in the same order and keep the same strict-greater updates, so
    they return the same permutation, ties included.
    """
    n = len(stages)
    bw = np.zeros((n, n), dtype=float)
    for i in range(n):
        for j in range(i + 1, n):
            b = stage_link_bandwidth(network, stages[i], stages[j])
            bw[i, j] = bw[j, i] = b
    NEG = (-1.0, -1.0)
    size = 1 << n
    best = {}
    parent = {}
    for i in range(n):
        best[(1 << i, i)] = (float("inf"), 0.0)
    for mask in range(size):
        for last in range(n):
            key = (mask, last)
            if key not in best:
                continue
            bottleneck, total = best[key]
            for nxt in range(n):
                if mask & (1 << nxt):
                    continue
                hop = bw[last, nxt]
                new_val = (min(bottleneck, hop), total + hop)
                new_key = (mask | (1 << nxt), nxt)
                if new_val > best.get(new_key, NEG):
                    best[new_key] = new_val
                    parent[new_key] = last
    full = size - 1
    end = max(range(n), key=lambda i: best.get((full, i), NEG))
    order = [end]
    mask = full
    while len(order) < n:
        prev = parent[(mask, order[-1])]
        mask ^= 1 << order[-1]
        order.append(prev)
    order.reverse()
    return order


class _MatrixNetwork:
    """A network whose stage bandwidths come from one drawn matrix."""

    def __init__(self, matrix):
        self.matrix = matrix

    def mean_bandwidth_between(self, a, b):
        return self.matrix[a[0]][b[0]]


@st.composite
def _tie_heavy_networks(draw):
    """Up to 8 single-GPU stages whose bandwidths repeat a few values."""
    n = draw(st.integers(2, 8))
    levels = st.sampled_from((0.0, 1.5, 1.5, 10.0, 25.0, 100.0))
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i][j] = matrix[j][i] = draw(levels)
    return _MatrixNetwork(matrix), [[i] for i in range(n)]


class TestStageOrderOracle:
    @given(case=_tie_heavy_networks())
    @settings(max_examples=60, deadline=None)
    def test_matches_dict_dp_on_tied_bandwidths(self, case):
        network, stages = case
        assert optimal_stage_order(network, stages) == _dict_stage_order(network, stages)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_dict_dp_on_cloud_stages(self, cloud_cluster, data):
        gpus = data.draw(st.permutations(cloud_cluster.gpu_ids))
        tp = data.draw(st.sampled_from((1, 2)))
        n = data.draw(st.integers(2, 8))
        stages = [list(gpus[k * tp : (k + 1) * tp]) for k in range(n)]
        network = cloud_cluster.network
        assert optimal_stage_order(network, stages) == _dict_stage_order(network, stages)


class TestStageGroups:
    def test_tp1_gives_singleton_stages(self, cloud_cluster):
        groups = candidate_stage_groups(cloud_cluster, [0, 1, 2], tp=1)
        assert groups == [[0], [1], [2]]

    def test_tp_must_divide_group(self, cloud_cluster):
        assert candidate_stage_groups(cloud_cluster, [0, 1, 2], tp=2) is None

    def test_stages_do_not_mix_types(self, cloud_cluster):
        a40 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A40")][:2]
        ti = [g.gpu_id for g in cloud_cluster.gpus_of_type("3090Ti")][:2]
        groups = candidate_stage_groups(cloud_cluster, a40 + ti, tp=2)
        assert groups is not None
        for stage in groups:
            types = {cloud_cluster.gpu(g).type_name for g in stage}
            assert len(types) == 1


class TestAlgorithm2:
    def test_prefill_plan_uses_all_gpus(self, cloud_cluster, model_30b):
        a40 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A40")]
        plan = deduce_parallel_plan(cloud_cluster, a40, Phase.PREFILL, model_30b, CODING_WORKLOAD)
        assert sorted(plan.gpu_ids) == sorted(a40)
        assert plan.total_layers == model_30b.num_layers

    def test_tp_divides_head_count(self, cloud_cluster, model_30b):
        a40 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A40")]
        for candidate in enumerate_parallel_plans(cloud_cluster, a40, Phase.PREFILL, model_30b, CODING_WORKLOAD):
            assert model_30b.num_heads % candidate.plan.tp == 0

    def test_infeasible_group_raises(self, cloud_cluster, model_30b):
        single = [cloud_cluster.gpus_of_type("A5000")[0].gpu_id]
        with pytest.raises(InsufficientMemoryError):
            deduce_parallel_plan(cloud_cluster, single, Phase.PREFILL, model_30b, CODING_WORKLOAD)

    def test_prefill_picks_latency_optimal(self, cloud_cluster, model_30b):
        a40 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A40")]
        candidates = enumerate_parallel_plans(cloud_cluster, a40, Phase.PREFILL, model_30b, CODING_WORKLOAD)
        best = deduce_parallel_plan(cloud_cluster, a40, Phase.PREFILL, model_30b, CODING_WORKLOAD)
        best_latency = min(c.prefill_latency for c in candidates)
        chosen = next(c for c in candidates if c.plan == best)
        assert chosen.prefill_latency == pytest.approx(best_latency)

    def test_decode_picks_throughput_optimal(self, cloud_cluster, model_30b):
        ti = [g.gpu_id for g in cloud_cluster.gpus_of_type("3090Ti")]
        candidates = enumerate_parallel_plans(cloud_cluster, ti, Phase.DECODE, model_30b, CONVERSATION_WORKLOAD)
        best = deduce_parallel_plan(cloud_cluster, ti, Phase.DECODE, model_30b, CONVERSATION_WORKLOAD)
        best_throughput = max(c.decode_throughput for c in candidates)
        chosen = next(c for c in candidates if c.plan == best)
        assert chosen.decode_throughput == pytest.approx(best_throughput)

    def test_cross_node_group_avoids_cross_node_tp(self, cloud_cluster, model_30b):
        # Two A5000s from one node + two 3090Ti from another: TP stages must stay
        # within a node, so TP=4 is not allowed.
        a5000 = [g.gpu_id for g in cloud_cluster.gpus_of_type("A5000")][:2]
        ti = [g.gpu_id for g in cloud_cluster.gpus_of_type("3090Ti")][:2]
        for candidate in enumerate_parallel_plans(
            cloud_cluster, a5000 + ti, Phase.DECODE, model_30b, CONVERSATION_WORKLOAD
        ):
            for stage in candidate.plan.stages:
                nodes = {cloud_cluster.gpu(g).node_id for g in stage.gpu_ids}
                if stage.tp > 1:
                    assert len(nodes) == 1
