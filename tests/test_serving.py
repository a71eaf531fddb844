"""Tests for the serving runtime: heartbeat monitor and the ThunderServe facade."""

import pytest

from repro.core.exceptions import InvalidPlanError
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.monitor import HeartbeatMonitor
from repro.serving.system import ThunderServe
from repro.workload.generator import generate_requests
from repro.workload.spec import CONVERSATION_WORKLOAD


class TestHeartbeatMonitor:
    def test_no_failure_when_heartbeats_flow(self):
        monitor = HeartbeatMonitor([0, 1, 2], timeout_s=10.0)
        monitor.heartbeat_all(5.0)
        assert monitor.check(12.0) is None

    def test_failure_detected_after_timeout(self):
        monitor = HeartbeatMonitor([0, 1, 2], timeout_s=10.0)
        monitor.heartbeat_all(5.0, except_ids=[2])
        failure = monitor.check(12.0)
        assert failure is not None
        assert failure.gpu_ids == frozenset({2})
        assert monitor.failed_gpu_ids == [2]

    def test_failure_reported_once(self):
        monitor = HeartbeatMonitor([0, 1], timeout_s=1.0)
        assert monitor.check(5.0) is not None
        assert monitor.check(6.0) is None

    def test_recovery_on_new_heartbeat(self):
        monitor = HeartbeatMonitor([0], timeout_s=1.0)
        assert monitor.check(5.0) is not None
        monitor.heartbeat(0, 6.0)
        assert monitor.failed_gpu_ids == []

    def test_unknown_gpu_rejected(self):
        with pytest.raises(KeyError):
            HeartbeatMonitor([0]).heartbeat(5, 1.0)


class TestHeartbeatRecoveryCycle:
    def test_heartbeat_from_failed_gpu_queues_recovery(self):
        monitor = HeartbeatMonitor([0, 1], timeout_s=1.0)
        assert monitor.check(5.0) is not None
        monitor.heartbeat(0, 6.0)
        recovery = monitor.check_recovered(6.0)
        assert recovery is not None
        assert recovery.gpu_ids == frozenset({0})
        assert recovery.detected_at == 6.0
        # The signal drains exactly once.
        assert monitor.check_recovered(7.0) is None

    def test_mark_failed_registers_unmonitored_gpu(self):
        monitor = HeartbeatMonitor([0], timeout_s=1.0)
        monitor.mark_failed([7], now=3.0)
        assert monitor.failed_gpu_ids == [7]
        # mark_failed added GPU 7 to the watch set, so its comeback heartbeat
        # is accepted and surfaces as an explicit recovery.
        monitor.heartbeat(7, 4.0)
        recovery = monitor.check_recovered(4.0)
        assert recovery is not None
        assert recovery.gpu_ids == frozenset({7})

    def test_fail_recover_fail_cycle(self):
        monitor = HeartbeatMonitor([0], timeout_s=1.0)
        assert monitor.check(5.0).gpu_ids == frozenset({0})
        monitor.heartbeat(0, 6.0)
        assert monitor.check_recovered(6.0).gpu_ids == frozenset({0})
        # The second outage fires a fresh failure event for the same GPU.
        failure = monitor.check(20.0)
        assert failure is not None
        assert failure.gpu_ids == frozenset({0})
        assert monitor.failed_gpu_ids == [0]

    def test_refail_before_drain_cancels_pending_recovery(self):
        monitor = HeartbeatMonitor([0], timeout_s=1.0)
        assert monitor.check(5.0) is not None
        monitor.heartbeat(0, 6.0)
        # The GPU dies again before anyone drained the recovery signal: the
        # stale comeback must not be reported.
        monitor.mark_failed([0], now=7.0)
        assert monitor.check_recovered(8.0) is None
        assert monitor.failed_gpu_ids == [0]


@pytest.fixture(scope="module")
def deployed_system():
    from repro.hardware.cluster import make_two_datacenter_cluster
    from repro.model.architecture import get_model_config

    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
    model = get_model_config("llama-30b")
    system = ThunderServe(
        cluster,
        model,
        CONVERSATION_WORKLOAD,
        request_rate=3.0,
        scheduler_config=SchedulerConfig(
            # Enough budget for the search to converge to the multi-group plan
            # regardless of the RNG stream: the facade tests (failure handling,
            # rescheduling) need a plan with spare replicas, not scheduler luck.
            tabu=TabuSearchConfig(num_steps=12, num_neighbors=4, patience=8), seed=2
        ),
    )
    system.deploy()
    return system


class TestThunderServeFacade:
    def test_deploy_installs_plan(self, deployed_system):
        assert deployed_system.plan is not None

    def test_adopt_single_phase_plan_rejected(self, deployed_system):
        incumbent = deployed_system.plan
        prefill_only = DeploymentPlan(
            groups=tuple(incumbent.prefill_groups),
            model_name=incumbent.model_name,
            kv_transport_bits=incumbent.kv_transport_bits,
        )
        installs = len(deployed_system.events)
        with pytest.raises(InvalidPlanError, match="prefill and decode"):
            deployed_system.adopt_plan(prefill_only)
        assert deployed_system.plan is incumbent
        assert len(deployed_system.events) == installs

    def test_serve_before_deploy_raises(self):
        from repro.hardware.cluster import make_two_datacenter_cluster
        from repro.model.architecture import get_model_config

        system = ThunderServe(
            make_two_datacenter_cluster(seed=0),
            get_model_config("llama-30b"),
            CONVERSATION_WORKLOAD,
            request_rate=1.0,
        )
        with pytest.raises(Exception):
            system.require_plan()

    def test_serve_trace(self, deployed_system):
        trace = generate_requests(CONVERSATION_WORKLOAD, 2.0, num_requests=20, seed=5)
        result = deployed_system.serve(trace)
        assert result.num_finished == 20

    def test_attainment_curve_monotone(self, deployed_system):
        trace = generate_requests(CONVERSATION_WORKLOAD, 2.0, num_requests=20, seed=6)
        result = deployed_system.serve(trace)
        curve = deployed_system.attainment_curve(result, [1, 4, 16, 64])
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    def test_gpu_failure_lightweight(self, deployed_system):
        victim_group = deployed_system.plan.groups[-1]
        victims = list(victim_group.gpu_ids)[:1]
        plan = deployed_system.handle_gpu_failure(victims, mode="lightweight")
        assert all(v not in plan.used_gpu_ids for v in victims)
        # The system can still serve traffic afterwards.
        trace = generate_requests(CONVERSATION_WORKLOAD, 2.0, num_requests=10, seed=7)
        result = deployed_system.serve(trace)
        assert result.num_finished == 10

    def test_invalid_failure_mode_rejected(self, deployed_system):
        with pytest.raises(ValueError):
            deployed_system.handle_gpu_failure([0], mode="teleport")


@pytest.fixture()
def cycle_system():
    """A fresh deployment per test: the cycle below degrades and restores it."""
    from repro.hardware.cluster import make_two_datacenter_cluster
    from repro.model.architecture import get_model_config

    system = ThunderServe(
        make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0),
        get_model_config("llama-30b"),
        CONVERSATION_WORKLOAD,
        request_rate=3.0,
        scheduler_config=SchedulerConfig(
            tabu=TabuSearchConfig(num_steps=12, num_neighbors=4, patience=8), seed=2
        ),
    )
    system.deploy()
    return system


class TestProcessHeartbeats:
    """The monitor-driven fail -> recover -> fail loop through the facade."""

    def test_fail_recover_fail_cycle_through_facade(self, cycle_system):
        system = cycle_system
        timeout = system.monitor.timeout_s
        victims = sorted(system.require_plan().groups[-1].gpu_ids)[:1]

        # --- first failure: the victims stop heartbeating (their last-seen
        # stays at the monitor's epoch) while everyone else stays fresh.
        t1 = 10.0 * timeout
        system.monitor.heartbeat_all(t1, except_ids=victims)
        failure, recovery = system.process_heartbeats(t1 + 1.0)
        assert recovery is None
        assert failure is not None
        assert set(victims) <= set(failure.gpu_ids)
        assert all(v not in system.require_plan().used_gpu_ids for v in victims)
        # The rebuilt monitor keeps watching the dead GPUs as failed, so
        # their comeback can be observed without external bookkeeping.
        assert set(victims) <= set(system.monitor.failed_gpu_ids)

        # --- recovery: heartbeats resume on the failed GPUs.
        t2 = t1 + 10.0
        system.monitor.heartbeat_all(t2)
        failure2, recovery2 = system.process_heartbeats(t2 + 1.0)
        assert failure2 is None
        assert recovery2 is not None
        assert set(recovery2.gpu_ids) == set(victims)
        assert set(victims) <= set(system.cluster.gpu_ids)

        # --- second failure of the same GPUs: the cycle round-trips.  The
        # poll lands past the victims' timeout but inside everyone else's.
        t3 = t2 + 10.0
        system.monitor.heartbeat_all(t3, except_ids=victims)
        failure3, recovery3 = system.process_heartbeats(t2 + 1.0 + timeout + 1.0)
        assert recovery3 is None
        assert failure3 is not None
        assert set(victims) <= set(failure3.gpu_ids)
        assert all(v not in system.require_plan().used_gpu_ids for v in victims)
