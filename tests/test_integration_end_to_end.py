"""Integration tests: schedule → simulate → metrics across modules.

These tests run the whole pipeline at reduced scale and assert the *qualitative*
results the paper reports: phase splitting beats co-location on heterogeneous
clusters, KV compression shortens transfers, the workload drives the
prefill:decode balance, and lightweight rescheduling restores service after
failures.
"""

import pytest

from repro.baselines.hexgen import HexGenBaseline
from repro.core.types import SLOType
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.workload.generator import generate_requests
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD


def _scheduler(seed=0):
    return SchedulerConfig(
        tabu=TabuSearchConfig(num_steps=8, num_neighbors=4, memory_size=5, patience=5), seed=seed
    )


@pytest.mark.integration
class TestEndToEnd:
    def test_schedule_then_simulate_on_cloud(self, cloud_cluster, model_30b):
        scheduler = Scheduler(_scheduler(seed=4))
        result = scheduler.schedule(cloud_cluster, model_30b, CONVERSATION_WORKLOAD, request_rate=6.0)
        trace = generate_requests(CONVERSATION_WORKLOAD, 6.0, duration=15.0, seed=31)
        sim = ServingSimulator(cloud_cluster, result.plan, model_30b, config=SimulatorConfig(seed=0))
        run = sim.run(trace)
        assert run.num_finished == len(trace)
        assert run.output_token_throughput > 0

    def test_thunderserve_beats_hexgen_on_cloud(self, cloud_cluster, model_30b):
        """Phase splitting + orchestration should beat co-located HexGen-style serving."""
        rate = 8.0
        trace = generate_requests(CONVERSATION_WORKLOAD, rate, duration=20.0, seed=37)
        system = ThunderServe(
            cloud_cluster, model_30b, CONVERSATION_WORKLOAD, rate, scheduler_config=_scheduler(seed=5)
        )
        system.deploy()
        ts_run = system.serve(trace)
        hexgen = HexGenBaseline(cloud_cluster, model_30b, CONVERSATION_WORKLOAD, rate, seed=0)
        hex_run = hexgen.serve(trace)
        # Compare mean E2E latency at equal offered load (lower is better).
        assert ts_run.mean(SLOType.E2E) < hex_run.mean(SLOType.E2E) * 1.1
        # And ThunderServe reaches 90% attainment at a deadline no larger than HexGen's.
        ts_deadline = ts_run.min_scale_for_attainment(0.9, system.reference)
        hex_deadline = hex_run.min_scale_for_attainment(0.9, system.reference)
        assert ts_deadline <= hex_deadline * 1.25

    def test_workload_drives_phase_balance(self, cloud_cluster, model_30b):
        coding = Scheduler(_scheduler(seed=7)).schedule(cloud_cluster, model_30b, CODING_WORKLOAD, 9.0)
        conv = Scheduler(_scheduler(seed=7)).schedule(cloud_cluster, model_30b, CONVERSATION_WORKLOAD, 9.0)
        coding_prefill_share = coding.plan.prefill_decode_ratio[0] / coding.plan.num_replicas
        conv_prefill_share = conv.plan.prefill_decode_ratio[0] / conv.plan.num_replicas
        assert coding_prefill_share >= conv_prefill_share

    def test_failure_recovery_via_lightweight_rescheduling(self, cloud_cluster, model_30b):
        rate = 6.0
        system = ThunderServe(
            cloud_cluster, model_30b, CONVERSATION_WORKLOAD, rate, scheduler_config=_scheduler(seed=9)
        )
        system.deploy()
        trace = generate_requests(CONVERSATION_WORKLOAD, rate, duration=10.0, seed=41)
        before = system.serve(trace)
        victim_group = system.plan.decode_groups[0] if system.plan.decode_groups else system.plan.groups[0]
        system.handle_gpu_failure(list(victim_group.gpu_ids), mode="lightweight")
        after = system.serve(trace)
        # Service continues after the failure, with both phases still present.
        assert after.num_finished == len(trace)
        prefill, decode = system.plan.prefill_decode_ratio
        assert prefill >= 1 and decode >= 1
        assert before.num_finished == len(trace)

    def test_kv_compression_reduces_transfer_share(self, cloud_cluster, model_30b):
        from dataclasses import replace

        rate = 6.0
        scheduler = Scheduler(_scheduler(seed=11))
        plan4 = scheduler.schedule(cloud_cluster, model_30b, CONVERSATION_WORKLOAD, rate).plan
        plan16 = replace(plan4, kv_transport_bits=16)
        trace = generate_requests(CONVERSATION_WORKLOAD, rate, duration=10.0, seed=43)
        run4 = ServingSimulator(cloud_cluster, plan4, model_30b).run(trace)
        run16 = ServingSimulator(cloud_cluster, plan16, model_30b).run(trace)
        assert run4.summary()["mean_kv_transfer"] < run16.summary()["mean_kv_transfer"] / 2

    def test_adaptive_serving_reschedules_on_shift(
        self, small_hetero_cluster, model_30b, monkeypatch
    ):
        from repro.workload.trace import RequestArrays, merge_traces

        rate = 3.0
        system = ThunderServe(
            small_hetero_cluster, model_30b, CODING_WORKLOAD, rate, scheduler_config=_scheduler(seed=13)
        )
        system.deploy()
        coding = generate_requests(CODING_WORKLOAD, rate, duration=30.0, seed=45)
        late = generate_requests(CONVERSATION_WORKLOAD, rate, duration=30.0, seed=46).arrays
        conversation = RequestArrays(
            late.request_id, late.arrival_time + 30.0, late.input_length, late.output_length,
            late.workload,
        ).to_trace()
        trace = merge_traces([coding, conversation])
        # Shadow validation off: the test checks that a shift reaches the
        # rescheduler, not which candidate validation would keep.
        original = ThunderServe.reschedule_online
        monkeypatch.setattr(
            ThunderServe,
            "reschedule_online",
            lambda self, *args, **kwargs: original(self, *args, **{**kwargs, "validate_on": None}),
        )
        config = LiveServeConfig(window_s=15.0)
        report = LiveServer(system, config).run(trace)
        assert len(report.results) >= 3
        assert sum(r.num_finished for r in report.results) == len(trace)
        # At least one plan re-installation beyond the initial deployment happened.
        installs = [e for e in system.events if e.kind == "plan_installed"]
        assert len(installs) >= 2
        # The coding -> conversation shift itself reached the rescheduler.
        assert any("workload shift" in e.detail for e in installs)
