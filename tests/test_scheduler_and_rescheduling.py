"""Tests for the full Scheduler facade and the lightweight rescheduler.

These are slower tests (each runs a small tabu search), so budgets are kept tiny;
the behavioural assertions target the paper's qualitative claims rather than
absolute numbers.
"""

import pytest

from repro.scheduling.rescheduling import (
    LightweightRescheduler,
    ReschedulingOverheadModel,
)
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD


def tiny_scheduler(seed=0, **kwargs):
    return Scheduler(
        SchedulerConfig(
            tabu=TabuSearchConfig(num_steps=6, num_neighbors=4, memory_size=5, patience=4),
            seed=seed,
            **kwargs,
        )
    )


@pytest.fixture(scope="module")
def small_schedule(request):
    from repro.hardware.cluster import make_two_datacenter_cluster
    from repro.model.architecture import get_model_config

    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
    model = get_model_config("llama-30b")
    scheduler = tiny_scheduler(seed=1)
    result = scheduler.schedule(cluster, model, CONVERSATION_WORKLOAD, request_rate=3.0)
    return cluster, model, scheduler, result


class TestScheduler:
    def test_plan_covers_only_cluster_gpus(self, small_schedule):
        cluster, _, _, result = small_schedule
        assert set(result.plan.used_gpu_ids) <= set(cluster.gpu_ids)

    def test_plan_has_both_phases(self, small_schedule):
        _, _, _, result = small_schedule
        prefill, decode = result.plan.prefill_decode_ratio
        assert prefill >= 1 and decode >= 1

    def test_every_group_has_parallel_plan(self, small_schedule):
        _, _, _, result = small_schedule
        for group in result.plan.groups:
            assert group.plan is not None
            assert group.plan.total_layers == 60

    def test_routing_present_and_valid(self, small_schedule):
        _, _, _, result = small_schedule
        routing = result.plan.routing
        assert routing is not None
        assert routing.x.sum() == pytest.approx(1.0)

    def test_objective_in_unit_interval(self, small_schedule):
        _, _, _, result = small_schedule
        assert 0.0 <= result.estimated_slo_attainment <= 1.0
        assert 0.0 <= result.objective <= 1.05 + 1e-9

    def test_trace_recorded(self, small_schedule):
        _, _, _, result = small_schedule
        assert result.trace.num_evaluations >= 1
        assert len(result.trace.history) >= 1
        assert result.elapsed_s > 0

    def test_same_seed_runs_are_bitwise_equal(self, small_schedule):
        cluster, model, _, first = small_schedule
        second = tiny_scheduler(seed=1).schedule(
            cluster, model, CONVERSATION_WORKLOAD, request_rate=3.0
        )
        assert second.solution.key() == first.solution.key()
        assert second.objective == first.objective
        assert [v for _, v in second.trace.history] == [v for _, v in first.trace.history]
        assert second.trace.num_evaluations == first.trace.num_evaluations
        assert second.plan.routing.x.tobytes() == first.plan.routing.x.tobytes()
        assert second.plan.routing.y.tobytes() == first.plan.routing.y.tobytes()

    def test_default_slo_positive(self, small_schedule):
        _, model, scheduler, _ = small_schedule
        slo = scheduler.default_slo(model, CODING_WORKLOAD, scale=3.0)
        assert slo.ttft > 0 and slo.tpot > 0 and slo.e2e > 0

    def test_coding_gets_no_fewer_prefill_replicas_than_conversation(self, cloud_cluster, model_30b):
        scheduler = tiny_scheduler(seed=3)
        coding = scheduler.schedule(cloud_cluster, model_30b, CODING_WORKLOAD, request_rate=9.0)
        conversation = tiny_scheduler(seed=3).schedule(
            cloud_cluster, model_30b, CONVERSATION_WORKLOAD, request_rate=9.0
        )
        coding_prefill, coding_decode = coding.plan.prefill_decode_ratio
        conv_prefill, conv_decode = conversation.plan.prefill_decode_ratio
        # The prefill-heavy coding workload should dedicate at least as large a
        # share of replicas to prefill as the decode-heavy conversation workload.
        coding_share = coding_prefill / (coding_prefill + coding_decode)
        conv_share = conv_prefill / (conv_prefill + conv_decode)
        assert coding_share >= conv_share


class TestLightweightRescheduler:
    def test_keeps_parallel_plans(self, small_schedule):
        cluster, model, scheduler, result = small_schedule
        slo = scheduler.default_slo(model, CODING_WORKLOAD)
        rescheduled = LightweightRescheduler(seed=0).reschedule(
            result.plan, cluster, model, CODING_WORKLOAD, request_rate=3.0, slo=slo
        )
        original_plans = {tuple(sorted(g.gpu_ids)): g.plan for g in result.plan.groups}
        for group in rescheduled.plan.groups:
            assert group.plan == original_plans[tuple(sorted(group.gpu_ids))]

    def test_drops_groups_with_failed_gpus(self, small_schedule):
        cluster, model, scheduler, result = small_schedule
        victim_group = result.plan.groups[0]
        degraded = cluster.without_gpus(list(victim_group.gpu_ids)[:1])
        slo = scheduler.default_slo(model, CONVERSATION_WORKLOAD)
        rescheduled = LightweightRescheduler(seed=0).reschedule(
            result.plan, degraded, model, CONVERSATION_WORKLOAD, request_rate=3.0, slo=slo
        )
        for group in rescheduled.plan.groups:
            assert not (set(group.gpu_ids) & set(list(victim_group.gpu_ids)[:1]))

    def test_runs_fast(self, small_schedule):
        cluster, model, scheduler, result = small_schedule
        slo = scheduler.default_slo(model, CONVERSATION_WORKLOAD)
        rescheduled = LightweightRescheduler(seed=0).reschedule(
            result.plan, cluster, model, CONVERSATION_WORKLOAD, request_rate=3.0, slo=slo
        )
        assert rescheduled.elapsed_s < 30.0

    def test_raises_when_nothing_survives(self, small_schedule):
        cluster, model, scheduler, result = small_schedule
        # Remove one GPU from every group so no group survives intact.
        victims = [list(g.gpu_ids)[0] for g in result.plan.groups]
        degraded = cluster.without_gpus(victims)
        slo = scheduler.default_slo(model, CONVERSATION_WORKLOAD)
        with pytest.raises(Exception):
            LightweightRescheduler(seed=0).reschedule(
                result.plan, degraded, model, CONVERSATION_WORKLOAD, request_rate=3.0, slo=slo
            )


class TestOverheadModel:
    def test_lightweight_much_cheaper_than_full(self, model_30b):
        model_overhead = ReschedulingOverheadModel()
        full = model_overhead.full_overhead_seconds(model_30b, num_gpus=32, num_replicas=12)
        light = model_overhead.lightweight_overhead_seconds()
        assert full > 5 * light

    def test_reload_scales_with_replicas(self, model_30b):
        overhead = ReschedulingOverheadModel()
        assert overhead.reload_seconds(model_30b, 12) > overhead.reload_seconds(model_30b, 4)

    def test_reload_zero_for_zero_replicas(self, model_30b):
        assert ReschedulingOverheadModel().reload_seconds(model_30b, 0) == 0.0

    def test_reload_time_matches_disk_bandwidth(self, model_30b):
        from repro.model.memory import parameter_bytes

        overhead = ReschedulingOverheadModel(disk_bandwidth_bytes=1.2e9)
        one_copy = overhead.reload_seconds(model_30b, 1)
        assert one_copy == pytest.approx(parameter_bytes(model_30b) / 1.2e9)
