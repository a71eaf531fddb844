"""Tests for the discrete-event simulators (phase-splitting and co-located)."""

import numpy as np
import pytest
from conftest import assert_same_result

from repro.core.exceptions import SimulationError
from repro.core.types import Phase, Request, RequestOutcome, SLOType
from repro.costmodel.reference import a100_reference_latency
from repro.parallelism.enumeration import deduce_parallel_plan
from repro.simulation.colocated import ColocatedSimulator
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.events import Event, EventKind, EventQueue
from repro.simulation.metrics import MetricArrays, SimulationResult
from repro.workload.generator import generate_requests
from repro.workload.trace import Trace


class TestEventQueue:
    def test_orders_by_time(self):
        queue = EventQueue()
        queue.push(Event(time=2.0, kind=EventKind.ARRIVAL))
        queue.push(Event(time=1.0, kind=EventKind.ARRIVAL))
        assert queue.pop().time == 1.0
        assert queue.pop().time == 2.0

    def test_fifo_for_ties(self):
        queue = EventQueue()
        first = Event(time=1.0, kind=EventKind.ARRIVAL, request_id=1)
        second = Event(time=1.0, kind=EventKind.ARRIVAL, request_id=2)
        queue.push(first)
        queue.push(second)
        assert queue.pop().request_id == 1
        assert queue.pop().request_id == 2

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().push(Event(time=-1.0, kind=EventKind.ARRIVAL))

    def test_len_and_bool(self):
        queue = EventQueue()
        assert not queue
        queue.push(Event(time=0.0, kind=EventKind.ARRIVAL))
        assert len(queue) == 1 and queue


class TestServingSimulator:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_all_requests_finish(self, small_hetero_cluster, small_plan, model_30b, small_trace, engine):
        config = SimulatorConfig(engine=engine)
        simulator = ServingSimulator(small_hetero_cluster, small_plan, model_30b, config=config)
        result = simulator.run(small_trace)
        assert result.num_requests == len(small_trace)
        assert result.num_finished == len(small_trace)

    def test_every_request_finishes_exactly_once(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        ids = [m.request.request_id for m in result.metrics]
        assert len(ids) == len(set(ids))

    def test_timestamps_are_causally_ordered(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        for metrics in (m for m in result.metrics if m.finished):
            assert metrics.prefill_start >= metrics.request.arrival_time - 1e-9
            assert metrics.first_token_time >= metrics.prefill_start
            assert metrics.kv_transfer_done >= metrics.first_token_time
            assert metrics.completion_time >= metrics.kv_transfer_done - 1e-9
            assert metrics.ttft <= metrics.e2e_latency + 1e-9

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_deterministic_given_seed(self, small_hetero_cluster, small_plan, model_30b, small_trace, engine):
        a = ServingSimulator(small_hetero_cluster, small_plan, model_30b,
                             config=SimulatorConfig(seed=5, engine=engine)).run(small_trace)
        b = ServingSimulator(small_hetero_cluster, small_plan, model_30b,
                             config=SimulatorConfig(seed=5, engine=engine)).run(small_trace)
        assert_same_result(a, b)

    def test_repeated_runs_on_one_instance_are_identical(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        """run() resets all state (including the routing RNG), so a simulator can
        be reused across traces — the basis of ThunderServe's simulator cache."""
        simulator = ServingSimulator(small_hetero_cluster, small_plan, model_30b,
                                     config=SimulatorConfig(seed=5))
        a = simulator.run(small_trace)
        b = simulator.run(small_trace)
        assert_same_result(a, b)

    def test_replica_assignment_matches_plan_groups(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        prefill_ids = {g.group_id for g in small_plan.prefill_groups}
        decode_ids = {g.group_id for g in small_plan.decode_groups}
        for metrics in result.metrics:
            assert metrics.prefill_replica in prefill_ids
            assert metrics.decode_replica in decode_ids

    def test_makespan_at_least_trace_duration(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        assert result.makespan >= small_trace.duration

    def test_higher_rate_increases_latency(self, small_hetero_cluster, small_plan, model_30b, conversation_workload):
        light = generate_requests(conversation_workload, 1.0, num_requests=30, seed=1)
        heavy = generate_requests(conversation_workload, 12.0, num_requests=30, seed=1)
        sim = lambda t: ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(t)
        assert sim(heavy).mean(SLOType.E2E) > sim(light).mean(SLOType.E2E)

    def test_compressed_kv_transport_is_faster(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        from dataclasses import replace

        plan16 = replace(small_plan, kv_transport_bits=16)
        r4 = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        r16 = ServingSimulator(small_hetero_cluster, plan16, model_30b).run(small_trace)
        assert r4.summary()["mean_kv_transfer"] < r16.summary()["mean_kv_transfer"]

    def test_plan_without_decode_rejected(self, small_hetero_cluster, small_plan, model_30b):
        from repro.scheduling.deployment import DeploymentPlan

        prefill_only = DeploymentPlan(groups=tuple(small_plan.prefill_groups), model_name="x")
        with pytest.raises(SimulationError):
            ServingSimulator(small_hetero_cluster, prefill_only, model_30b)

    def test_max_sim_time_truncates(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        config = SimulatorConfig(max_sim_time=1.0)
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b, config=config).run(small_trace)
        assert result.num_finished < len(small_trace)


class TestColocatedSimulator:
    @pytest.fixture(scope="class")
    def colocated(self, inhouse_cluster, model_30b, conversation_workload):
        groups = [inhouse_cluster.gpu_ids[i : i + 2] for i in range(0, 8, 2)]
        plans = [
            deduce_parallel_plan(inhouse_cluster, g, Phase.DECODE, model_30b, conversation_workload)
            for g in groups
        ]
        return ColocatedSimulator(inhouse_cluster, plans, model_30b, seed=0)

    def test_all_requests_finish(self, colocated, small_trace):
        result = colocated.run(small_trace)
        assert result.num_finished == len(small_trace)

    def test_no_kv_transfer_time(self, colocated, small_trace):
        result = colocated.run(small_trace)
        assert result.summary()["mean_kv_transfer"] == pytest.approx(0.0)

    def test_same_replica_serves_both_phases(self, colocated, small_trace):
        result = colocated.run(small_trace)
        for metrics in result.metrics:
            assert metrics.prefill_replica == metrics.decode_replica

    def test_every_request_ends_finished(self, colocated, small_trace):
        # Covers both completion sites: the last decode step and, for a
        # single-token output, the prefill itself.
        single = Request(
            request_id=10**6,
            arrival_time=small_trace[-1].arrival_time,
            input_length=64,
            output_length=1,
        )
        trace = Trace(requests=list(small_trace) + [single])
        result = colocated.run(trace)
        assert all(m.outcome is RequestOutcome.FINISHED for m in result.metrics)
        counts = result.assert_outcome_conservation(require_terminal=True)
        assert counts["finished"] == len(trace)

    def test_causality(self, colocated, small_trace):
        result = colocated.run(small_trace)
        for metrics in (m for m in result.metrics if m.finished):
            assert metrics.first_token_time >= metrics.prefill_start
            assert metrics.completion_time >= metrics.first_token_time

    def test_requires_at_least_one_replica(self, inhouse_cluster, model_30b):
        with pytest.raises(SimulationError):
            ColocatedSimulator(inhouse_cluster, [], model_30b)

    def test_prefill_batching_honored(self, inhouse_cluster, model_30b, conversation_workload):
        """Regression: the co-located work loop batches prefills up to the cap.

        It used to hardcode one prefill per step boundary regardless of
        ``max_prefill_batch_requests``; under a prompt burst, batching must now
        shorten the makespan, and a cap of 1 must keep the legacy per-request
        behaviour exactly.
        """
        from repro.workload.spec import WorkloadSpec

        groups = [inhouse_cluster.gpu_ids[i : i + 2] for i in range(0, 8, 2)]
        plans = [
            deduce_parallel_plan(inhouse_cluster, g, Phase.DECODE, model_30b, conversation_workload)
            for g in groups
        ]
        # Short prompts sit below prefill's compute-saturation point, where
        # batching amortises the per-batch weight streaming (Figure 2): the
        # regime in which batched prefill measurably beats one-at-a-time.
        prompt_burst = WorkloadSpec(
            name="burst",
            median_input_length=128.0,
            median_output_length=16.0,
            input_sigma=0.3,
            output_sigma=0.4,
        )
        trace = generate_requests(prompt_burst, 30.0, num_requests=60, seed=4)

        def run(cap):
            sim = ColocatedSimulator(
                inhouse_cluster, plans, model_30b, seed=0, max_prefill_batch_requests=cap
            )
            return sim.run(trace)

        single = run(1)
        batched = run(8)
        assert single.num_finished == batched.num_finished == len(trace)
        # Batched prefill amortises the weight streaming over the burst.
        assert batched.makespan < single.makespan
        # cap=1 reproduces the legacy one-prefill-per-step behaviour bitwise.
        repeat = run(1)
        assert [m.completion_time for m in repeat.metrics] == [
            m.completion_time for m in single.metrics
        ]
        with pytest.raises(SimulationError):
            ColocatedSimulator(
                inhouse_cluster, plans, model_30b, max_prefill_batch_requests=0
            )

    def test_interference_penalty_slows_mixed_load(self, inhouse_cluster, model_30b, conversation_workload, small_trace):
        groups = [inhouse_cluster.gpu_ids[i : i + 2] for i in range(0, 8, 2)]
        plans = [
            deduce_parallel_plan(inhouse_cluster, g, Phase.DECODE, model_30b, conversation_workload)
            for g in groups
        ]
        no_penalty = ColocatedSimulator(inhouse_cluster, plans, model_30b, seed=0, interference_penalty=0.0)
        with_penalty = ColocatedSimulator(inhouse_cluster, plans, model_30b, seed=0, interference_penalty=0.5)
        fast = no_penalty.run(small_trace)
        slow = with_penalty.run(small_trace)
        assert slow.mean(SLOType.E2E) >= fast.mean(SLOType.E2E)

    def test_negative_interference_penalty_rejected(self, inhouse_cluster, model_30b, conversation_workload):
        groups = [inhouse_cluster.gpu_ids[:2]]
        plans = [deduce_parallel_plan(inhouse_cluster, groups[0], Phase.DECODE, model_30b, conversation_workload)]
        with pytest.raises(SimulationError):
            ColocatedSimulator(inhouse_cluster, plans, model_30b, interference_penalty=-0.1)

    def test_invalid_routing_weights_rejected(self, inhouse_cluster, model_30b, conversation_workload):
        groups = [inhouse_cluster.gpu_ids[:2]]
        plans = [deduce_parallel_plan(inhouse_cluster, groups[0], Phase.DECODE, model_30b, conversation_workload)]
        with pytest.raises(SimulationError):
            ColocatedSimulator(inhouse_cluster, plans, model_30b, routing_weights=[0.5, 0.5])


class TestSimulationResult:
    def test_slo_attainment_bounds(self, small_hetero_cluster, small_plan, model_30b, small_trace, conversation_workload):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        reference = a100_reference_latency(model_30b, conversation_workload)
        tight = result.slo_attainment(reference.slo_spec(0.1))
        loose = result.slo_attainment(reference.slo_spec(100.0))
        assert 0.0 <= tight <= loose <= 1.0

    def test_attainment_curve_monotone(self, small_hetero_cluster, small_plan, model_30b, small_trace, conversation_workload):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        reference = a100_reference_latency(model_30b, conversation_workload)
        curve = result.attainment_curve([1, 2, 4, 8, 16, 64], reference)
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_min_scale_for_attainment(self, small_hetero_cluster, small_plan, model_30b, small_trace, conversation_workload):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        reference = a100_reference_latency(model_30b, conversation_workload)
        scale = result.min_scale_for_attainment(0.5, reference)
        assert scale < float("inf")
        assert result.slo_attainment(reference.slo_spec(scale)) >= 0.5

    def test_throughput_positive(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        assert result.output_token_throughput > 0
        assert result.total_token_throughput > result.output_token_throughput

    def test_summary_on_empty_metrics(self):
        summary = SimulationResult(MetricArrays.from_metrics([]), 0.0, 0.0).summary()
        assert summary["num_finished"] == 0.0
        assert all(np.isnan(v) for k, v in summary.items() if k != "num_finished")

    def test_percentiles_ordered(self, small_hetero_cluster, small_plan, model_30b, small_trace):
        result = ServingSimulator(small_hetero_cluster, small_plan, model_30b).run(small_trace)
        assert result.percentile(SLOType.E2E, 50) <= result.percentile(SLOType.E2E, 99)
