"""Unit tests for the roofline cost model, alpha-beta model, KV transfer and prices."""

import numpy as np
import pytest

from repro.core.types import Phase
from repro.costmodel.alpha_beta import transfer_seconds
from repro.costmodel.kv_transfer import (
    kv_link,
    kv_transfer_bytes,
    kv_transfer_seconds,
)
from repro.costmodel.latency import (
    DEFAULT_PARAMS,
    CostModelParams,
    ReplicaCostModel,
    _comm_seconds,
    _stage_view,
    single_gpu_phase_latency,
)
from repro.costmodel.price import phase_price_per_request
from repro.costmodel.reference import a100_reference_latency
from repro.hardware.gpu import get_gpu_spec
from repro.parallelism.config import ReplicaPlan


class TestAlphaBeta:
    def test_transfer_seconds_formula(self):
        assert transfer_seconds(1e-3, 1e9, 1e9) == pytest.approx(1.001)

    def test_zero_bytes_is_free(self):
        assert transfer_seconds(1e-3, 1e9, 0) == 0.0

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            transfer_seconds(0.0, 0.0, 10)
        with pytest.raises(ValueError):
            transfer_seconds(0.0, 1e9, -1.0)

    @staticmethod
    def _tp_stage(model, tp):
        spec = get_gpu_spec("A100")
        return _stage_view(model, DEFAULT_PARAMS, [spec] * tp, range(tp), 10, tp, 1e10, 1e-5)

    def test_allreduce_degenerate_world(self, model_30b):
        """A TP 1 stage adds no tensor-parallel all-reduce."""
        assert _comm_seconds(self._tp_stage(model_30b, 1), 1e6) == 0.0

    def test_allreduce_grows_with_world_size(self, model_30b):
        """At equal layers, a TP 4 stage's all-reduces cost more than a TP 2 stage's."""
        tp2 = _comm_seconds(self._tp_stage(model_30b, 2), 1e6)
        tp4 = _comm_seconds(self._tp_stage(model_30b, 4), 1e6)
        assert 0.0 < tp2 < tp4


class TestSingleGPULatency:
    def test_prefill_faster_on_a40_than_3090ti(self, model_30b):
        a40 = single_gpu_phase_latency(get_gpu_spec("A40"), model_30b, Phase.PREFILL, 512)
        ti = single_gpu_phase_latency(get_gpu_spec("3090Ti"), model_30b, Phase.PREFILL, 512)
        assert a40 < ti

    def test_decode_faster_on_3090ti_than_a40(self, model_30b):
        a40 = single_gpu_phase_latency(get_gpu_spec("A40"), model_30b, Phase.DECODE, 512, 16)
        ti = single_gpu_phase_latency(get_gpu_spec("3090Ti"), model_30b, Phase.DECODE, 512, 16)
        assert ti < a40

    def test_prefill_latency_grows_with_prompt(self, model_7b):
        spec = get_gpu_spec("A100")
        assert single_gpu_phase_latency(spec, model_7b, Phase.PREFILL, 2048) > single_gpu_phase_latency(
            spec, model_7b, Phase.PREFILL, 256
        )

    def test_decode_latency_grows_with_output(self, model_7b):
        spec = get_gpu_spec("A100")
        assert single_gpu_phase_latency(
            spec, model_7b, Phase.DECODE, 512, output_length=64
        ) > single_gpu_phase_latency(spec, model_7b, Phase.DECODE, 512, output_length=8)

    def test_invalid_lengths_rejected(self, model_7b):
        with pytest.raises(ValueError):
            single_gpu_phase_latency(get_gpu_spec("A100"), model_7b, Phase.PREFILL, 0)

    def test_reasonable_magnitude(self, model_7b):
        # LLaMA-7B prefill of 1024 tokens on an A100 should be tens of milliseconds.
        latency = single_gpu_phase_latency(get_gpu_spec("A100"), model_7b, Phase.PREFILL, 1024)
        assert 0.01 < latency < 1.0


class TestSingleGPURoofline:
    """``single_gpu_phase_latency`` is the one-stage roofline of ``ReplicaCostModel``.

    The SLO anchor (``a100_reference_latency``) and the Figure 1 prices read
    the single-GPU function, the scheduler and the simulator read the replica
    model; both must price a lone GPU identically, bit for bit.
    """

    def test_equals_one_stage_replica_bitwise(self, cloud_cluster, model_7b):
        by_type = {}
        for gpu in cloud_cluster.gpus:
            by_type.setdefault(gpu.type_name, gpu)
        assert len(by_type) >= 2
        for gpu in by_type.values():
            plan = ReplicaPlan.from_stage_lists([[gpu.gpu_id]], [model_7b.num_layers])
            cost = ReplicaCostModel(cloud_cluster, plan, model_7b)
            for s in (1, 17, 512, 2048):
                for b in (1, 3, 8):
                    prefill = single_gpu_phase_latency(gpu.spec, model_7b, Phase.PREFILL, s, 1, b)
                    assert prefill == cost.prefill_latency(s, b)
                    for o in (1, 16, 129):
                        decode = single_gpu_phase_latency(gpu.spec, model_7b, Phase.DECODE, s, o, b)
                        assert decode == cost.decode_step_latency(b, int(s + o / 2.0)) * o


class TestCostModelParams:
    def test_prefill_mfu_saturates(self):
        params = CostModelParams()
        assert params.prefill_mfu(64) < params.prefill_mfu(2048)
        assert params.prefill_mfu(100000) <= params.prefill_mfu_max

    def test_tp_efficiency_decreases(self):
        params = CostModelParams()
        assert params.tp_efficiency(1) == 1.0
        assert params.tp_efficiency(8) < params.tp_efficiency(2)


@pytest.fixture(scope="module")
def a40_pair_cost(small_hetero_cluster_module, model_30b_module):
    cluster, model = small_hetero_cluster_module, model_30b_module
    a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")][:4]
    plan = ReplicaPlan.from_stage_lists([a40], [model.num_layers])
    return ReplicaCostModel(cluster, plan, model)


@pytest.fixture(scope="module")
def small_hetero_cluster_module():
    from repro.hardware.cluster import make_two_datacenter_cluster

    return make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)


@pytest.fixture(scope="module")
def model_30b_module():
    from repro.model.architecture import get_model_config

    return get_model_config("llama-30b")


class TestReplicaCostModel:
    def test_layer_count_must_match(self, small_hetero_cluster_module, model_30b_module):
        gpu_ids = small_hetero_cluster_module.gpu_ids[:4]
        plan = ReplicaPlan.from_stage_lists([gpu_ids], [10])
        with pytest.raises(Exception):
            ReplicaCostModel(small_hetero_cluster_module, plan, model_30b_module)

    def test_prefill_latency_monotone_in_tokens(self, a40_pair_cost):
        assert a40_pair_cost.prefill_latency(2048) > a40_pair_cost.prefill_latency(512)

    def test_decode_step_latency_monotone_in_batch(self, a40_pair_cost):
        assert a40_pair_cost.decode_step_latency(32, 1024) > a40_pair_cost.decode_step_latency(1, 1024)

    def test_decode_throughput_improves_with_batch(self, a40_pair_cost):
        t1 = a40_pair_cost.decode_throughput(1024, batch_size=1)
        t16 = a40_pair_cost.decode_throughput(1024, batch_size=16)
        assert t16 > t1

    def test_max_decode_batch_positive_and_bounded(self, a40_pair_cost):
        batch = a40_pair_cost.max_decode_batch(1024)
        assert 0 < batch <= CostModelParams().max_decode_batch

    def test_max_decode_batch_shrinks_with_context(self, a40_pair_cost):
        assert a40_pair_cost.max_decode_batch(4096) <= a40_pair_cost.max_decode_batch(512)

    def test_kv_token_capacity_positive(self, a40_pair_cost):
        assert a40_pair_cost.kv_token_capacity() > 0

    def test_fits_in_memory(self, a40_pair_cost):
        assert a40_pair_cost.fits_in_memory()

    def test_decode_latency_scales_with_tokens(self, a40_pair_cost):
        assert a40_pair_cost.decode_latency(4, 1024, 64) > a40_pair_cost.decode_latency(4, 1024, 16)

    def test_pipeline_plan_adds_communication(self, small_hetero_cluster_module, model_30b_module):
        cluster, model = small_hetero_cluster_module, model_30b_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        tp4 = ReplicaPlan.from_stage_lists([a40], [model.num_layers])
        half = model.num_layers // 2
        pp2 = ReplicaPlan.from_stage_lists([a40[:2], a40[2:]], [half, model.num_layers - half])
        cost_tp = ReplicaCostModel(cluster, tp4, model)
        cost_pp = ReplicaCostModel(cluster, pp2, model)
        # Both are positive and finite; the PP plan pays an extra activation hop.
        assert cost_pp.prefill_latency(1024) > 0
        assert cost_tp.prefill_latency(1024) > 0

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_decode_step_latency_array_matches_scalar_bitwise(
        self, small_hetero_cluster_module, model_30b_module, pipelined
    ):
        """The vectorized decode-step kernel is the scalar model, element for
        element — raw float equality, since the fast simulator engine's claim of
        bitwise-identical metrics rests on it."""
        import numpy as np

        cluster, model = small_hetero_cluster_module, model_30b_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        if pipelined:
            half = model.num_layers // 2
            plan = ReplicaPlan.from_stage_lists([a40[:2], a40[2:]], [half, model.num_layers - half])
        else:
            plan = ReplicaPlan.from_stage_lists([a40], [model.num_layers])
        cost = ReplicaCostModel(cluster, plan, model)
        rng = np.random.default_rng(3)
        batches = rng.integers(1, 257, size=300)
        contexts = rng.integers(1, 4096, size=300)
        vectorized = cost.decode_step_latency_array(batches, contexts)
        scalar = np.array(
            [cost.decode_step_latency(int(b), int(c)) for b, c in zip(batches, contexts)]
        )
        assert np.all(vectorized == scalar)
        # The memo grid returns the same values, cold and warm.
        assert np.all(cost.decode_step_grid(batches, contexts) == scalar)
        assert np.all(cost.decode_step_grid(batches, contexts) == scalar)

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_decode_step_rows_match_scalar_bitwise(
        self, small_hetero_cluster_module, model_30b_module, pipelined, monkeypatch
    ):
        """Entry ``c`` of a batch size's latency row is the scalar
        ``decode_step_latency(n, max(1, c))`` bitwise, after every extension
        and after the rows are dropped and rebuilt."""
        from repro.costmodel import latency

        cluster, model = small_hetero_cluster_module, model_30b_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        if pipelined:
            half = model.num_layers // 2
            plan = ReplicaPlan.from_stage_lists([a40[:2], a40[2:]], [half, model.num_layers - half])
        else:
            plan = ReplicaPlan.from_stage_lists([a40], [model.num_layers])
        cost = ReplicaCostModel(cluster, plan, model)

        def scalar_row(n, length):
            return [cost.decode_step_latency(n, max(1, c)) for c in range(length)]

        for n in (1, 7, 256):
            # Within one doubling, past one, and past several at once.
            for length in (1, 2, 3, 700, 3000):
                row = cost.decode_step_row(n, length)
                assert len(row) >= length
                assert list(row) == scalar_row(n, len(row))
            assert cost.decode_step_memo(n, 2999) == cost.decode_step_latency(n, 2999)
        batches = np.array([[1, 7], [256, 3]])
        contexts = np.array([[5, 4000], [1, 17]])
        grid = cost.decode_step_grid(batches, contexts)
        assert grid.shape == (2, 2)
        assert grid.tolist() == [
            [cost.decode_step_latency(int(b), int(c)) for b, c in zip(bs, cs)]
            for bs, cs in zip(batches, contexts)
        ]
        with pytest.raises(ValueError):
            cost.decode_step_memo(1, 0)

        # A budget of 256 entries holds one row of 200 but not two: building
        # the second drops the first, which then rebuilds to the same values.
        monkeypatch.setattr(latency, "DECODE_STEP_MEMO_MAX", 256)
        small = ReplicaCostModel(cluster, plan, model)
        first = list(small.decode_step_row(3, 200))
        assert list(small.decode_step_row(5, 200)) == scalar_row(5, 200)
        assert set(small._decode_rows) == {5}
        assert list(small.decode_step_row(3, 200)) == first == scalar_row(3, 200)
        assert set(small._decode_rows) == {3}
        # Extending a row past the budget drops it too and rebuilds it whole.
        assert list(small.decode_step_row(3, 300)) == scalar_row(3, 300)
        # A row longer than the whole budget is still built in full.
        assert list(small.decode_step_row(9, 1000)) == scalar_row(9, 1000)

    def test_decode_step_latency_array_validates(self, a40_pair_cost):
        import numpy as np

        with pytest.raises(ValueError):
            a40_pair_cost.decode_step_latency_array([1, 2], [0, 5])
        with pytest.raises(ValueError):
            a40_pair_cost.decode_step_latency_array([1, 2, 3], [1, 2])
        assert a40_pair_cost.decode_step_latency_array([], []).size == 0

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_prefill_latency_array_matches_scalar_bitwise(
        self, small_hetero_cluster_module, model_30b_module, pipelined
    ):
        """The vectorized prefill kernel is the scalar model, element for
        element — raw float equality, since the fast simulator engine's coalesced
        prefill epochs (and their bitwise-identical metrics) rest on it."""
        import numpy as np

        cluster, model = small_hetero_cluster_module, model_30b_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        if pipelined:
            half = model.num_layers // 2
            plan = ReplicaPlan.from_stage_lists([a40[:2], a40[2:]], [half, model.num_layers - half])
        else:
            plan = ReplicaPlan.from_stage_lists([a40], [model.num_layers])
        cost = ReplicaCostModel(cluster, plan, model)
        rng = np.random.default_rng(7)
        inputs = rng.integers(1, 8192, size=300)
        batches = rng.integers(1, 33, size=300)
        vectorized = cost.prefill_latency_array(inputs, batches)
        scalar = np.array(
            [cost.prefill_latency(int(s), int(b)) for s, b in zip(inputs, batches)]
        )
        assert np.all(vectorized == scalar)
        # The memo grid returns the same values, cold and warm.
        assert np.all(cost.prefill_latency_grid(inputs, batches) == scalar)
        assert np.all(cost.prefill_latency_grid(inputs, batches) == scalar)
        # The scalar memo shares the grid's memo: warm after the grid, and
        # cold first on a fresh model with the grid reading what it filled.
        pairs = list(zip(inputs.tolist(), batches.tolist()))
        memo = np.array([cost.prefill_latency_memo(s, b) for s, b in pairs])
        assert np.all(memo == scalar)
        cold = ReplicaCostModel(cluster, plan, model)
        memo = np.array([cold.prefill_latency_memo(s, b) for s, b in pairs])
        assert np.all(memo == scalar)
        assert np.all(cold.prefill_latency_grid(inputs, batches) == scalar)

    def test_prefill_latency_array_validates(self, a40_pair_cost):
        with pytest.raises(ValueError):
            a40_pair_cost.prefill_latency_array([1, 2], [0, 5])
        with pytest.raises(ValueError):
            a40_pair_cost.prefill_latency_array([0, 2], [1, 5])
        with pytest.raises(ValueError):
            a40_pair_cost.prefill_latency_array([1, 2, 3], [1, 2])
        assert a40_pair_cost.prefill_latency_array([], []).size == 0


class TestKVTransfer:
    def test_bytes_scale_with_tokens_and_bits(self, model_30b):
        full = kv_transfer_bytes(model_30b, 1024, bits=16)
        quarter = kv_transfer_bytes(model_30b, 1024, bits=4)
        assert quarter == pytest.approx(full / 4)
        assert kv_transfer_bytes(model_30b, 2048, bits=16) == pytest.approx(2 * full)

    def test_transfer_time_positive_across_groups(self, small_hetero_cluster_module, model_30b):
        cluster = small_hetero_cluster_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        t = kv_transfer_seconds(cluster.network, a40, ti, model_30b, num_tokens=1024)
        assert t > 0

    def test_compression_reduces_transfer_time(self, small_hetero_cluster_module, model_30b):
        cluster = small_hetero_cluster_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        full = kv_transfer_seconds(cluster.network, a40, ti, model_30b, 1024, bits=16)
        compressed = kv_transfer_seconds(cluster.network, a40, ti, model_30b, 1024, bits=4)
        assert compressed < full / 2

    def test_overlapping_groups_transfer_free(self, small_hetero_cluster_module, model_30b):
        cluster = small_hetero_cluster_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        assert kv_transfer_seconds(cluster.network, a40, a40, model_30b, 1024) == 0.0

    def test_kv_link_none_for_shared_gpu(self, small_hetero_cluster_module):
        cluster = small_hetero_cluster_module
        a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
        assert kv_link(cluster.network, a40, a40) is None
        assert kv_link(cluster.network, a40, ti + a40[:1]) is None

    def test_kv_link_is_best_link(self, small_hetero_cluster_module):
        network = small_hetero_cluster_module.network
        a40 = [g.gpu_id for g in small_hetero_cluster_module.gpus_of_type("A40")]
        ti = [g.gpu_id for g in small_hetero_cluster_module.gpus_of_type("3090Ti")]
        i, j, _bw = network.best_link_between(a40, ti)
        assert kv_link(network, a40, ti) == (network.latency_s(i, j), network.bandwidth_bytes(i, j))


class TestPrices:
    def test_figure1_shape(self, model_30b):
        def cheapest(phase):
            return min(["3090Ti", "A40"], key=lambda g: phase_price_per_request(g, model_30b, phase))

        assert cheapest(Phase.PREFILL) == "A40"
        assert cheapest(Phase.DECODE) == "3090Ti"

    def test_prices_positive(self, model_30b):
        assert phase_price_per_request("A5000", model_30b, Phase.PREFILL) > 0


class TestReference:
    def test_reference_latency_positive(self, model_30b, conversation_workload):
        ref = a100_reference_latency(model_30b, conversation_workload)
        assert ref.ttft > 0 and ref.tpot > 0

    def test_slo_spec_scales(self, model_30b, conversation_workload):
        ref = a100_reference_latency(model_30b, conversation_workload)
        assert ref.slo_spec(4.0).e2e == pytest.approx(2 * ref.slo_spec(2.0).e2e)

    def test_more_reference_gpus_lower_latency(self, model_30b, conversation_workload):
        two = a100_reference_latency(model_30b, conversation_workload, num_reference_gpus=2)
        eight = a100_reference_latency(model_30b, conversation_workload, num_reference_gpus=8)
        assert eight.ttft < two.ttft
