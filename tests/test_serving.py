"""Tests for the serving runtime: heartbeat monitor and the ThunderServe facade."""

import json
from dataclasses import fields, replace
from types import SimpleNamespace

import pytest

from repro.core.exceptions import InvalidPlanError, SchedulingError
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.live import LiveServeConfig, LiveServer
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


# --------------------------------------------------------------------------- full-replan memo
MEMO_SCHEDULER = SchedulerConfig(
    tabu=TabuSearchConfig(num_steps=6, num_neighbors=4, patience=4), seed=2
)

#: Crash and rejoin the 3090Ti node twice, then preempt and revive one A40
#: under a WAN brownout.  The crash and the rejoin states each recur, so the
#: second cycle's replans repeat cluster states the memo has already seen.
STORM = FaultSchedule.from_events(
    [
        FaultEvent(time=5.0, kind=FaultKind.NODE_CRASH, gpu_ids=(4, 5, 6, 7)),
        FaultEvent(time=15.0, kind=FaultKind.RECOVERY, gpu_ids=(4, 5, 6, 7)),
        FaultEvent(time=25.0, kind=FaultKind.NODE_CRASH, gpu_ids=(4, 5, 6, 7)),
        FaultEvent(time=35.0, kind=FaultKind.RECOVERY, gpu_ids=(4, 5, 6, 7)),
        FaultEvent(time=42.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=0.5),
        FaultEvent(time=47.0, kind=FaultKind.GPU_PREEMPTION, gpu_ids=(0,)),
        FaultEvent(time=55.0, kind=FaultKind.RECOVERY, gpu_ids=(0,)),
        FaultEvent(time=65.0, kind=FaultKind.LINK_RECOVERY),
    ]
)


@pytest.fixture()
def memo_system_factory(
    small_hetero_cluster, model_30b, conversation_workload, relaxed_slo, small_plan
):
    """Fresh systems that adopt a pre-built plan, so only replans search."""

    def build():
        system = ThunderServe(
            small_hetero_cluster,
            model_30b,
            conversation_workload,
            3.0,
            slo=relaxed_slo,
            scheduler_config=MEMO_SCHEDULER,
        )
        system.adopt_plan(small_plan, reason="memo test")
        return system

    return build


@pytest.fixture()
def search_calls(monkeypatch):
    """Count the full searches ``Scheduler.schedule`` runs."""
    calls = []
    original = Scheduler.schedule

    def counted(self, *args, **kwargs):
        calls.append(args[0].state_key())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Scheduler, "schedule", counted)
    return calls


@pytest.fixture()
def shadow_calls(monkeypatch):
    """Count the shadow replays ``ThunderServe._shadow_attainment`` runs."""
    calls = []
    original = ThunderServe._shadow_attainment

    def counted(self, plan, trace):
        calls.append(plan)
        return original(self, plan, trace)

    monkeypatch.setattr(ThunderServe, "_shadow_attainment", counted)
    return calls


def _report_signature(report):
    """Telemetry, fault log and every per-request column of a live run, as bytes."""
    columns = [
        tuple(getattr(r.arrays, f.name).tobytes() for f in fields(r.arrays))
        for r in report.results
    ]
    return json.dumps([report.to_dicts(), report.fault_log], sort_keys=True), columns


class TestFullReplanMemo:
    """``replan_capacity(mode="full")`` searches once per cluster state per system."""

    def test_hit_equals_a_fresh_search(self, memo_system_factory, search_calls):
        system = memo_system_factory()
        first = system.replan_capacity(mode="full")
        second = system.replan_capacity(mode="full")
        assert len(search_calls) == 1
        assert second == first
        # A hit still installs, exactly like a miss.
        assert system.num_plan_changes == 2
        fresh = Scheduler(MEMO_SCHEDULER).schedule(
            system.cluster, system.model, system.workload, system.request_rate, system.slo
        )
        assert second == fresh.plan

    def test_each_cluster_state_searches_once(self, memo_system_factory, search_calls):
        system = memo_system_factory()
        pristine = system.cluster
        brownout = pristine.with_network(pristine.network.scaled(bandwidth_scale=0.5))
        for cluster in (pristine, brownout, pristine, brownout):
            system.set_cluster(cluster)
            system.replan_capacity(mode="full")
        assert search_calls == [pristine.state_key(), brownout.state_key()]

    def test_systems_do_not_share_entries(self, memo_system_factory, search_calls):
        a, b = memo_system_factory(), memo_system_factory()
        assert a.replan_capacity(mode="full") == b.replan_capacity(mode="full")
        assert len(search_calls) == 2

    def test_failed_search_stores_nothing(self, memo_system_factory, monkeypatch):
        system = memo_system_factory()
        original = Scheduler.schedule

        def failing(self, *args, **kwargs):
            raise SchedulingError("no feasible plan")

        monkeypatch.setattr(Scheduler, "schedule", failing)
        with pytest.raises(SchedulingError):
            system.replan_capacity(mode="full")
        monkeypatch.setattr(Scheduler, "schedule", original)
        plan = system.replan_capacity(mode="full")
        assert plan == Scheduler(MEMO_SCHEDULER).schedule(
            system.cluster, system.model, system.workload, system.request_rate, system.slo
        ).plan

    @pytest.mark.parametrize("validate", [True, False])
    def test_storm_report_is_bitwise_equal_without_the_memo(
        self, memo_system_factory, search_calls, monkeypatch, validate
    ):
        trace = generate_requests(CONVERSATION_WORKLOAD, request_rate=3.0, duration=70.0, seed=3)
        config = LiveServeConfig(
            window_s=10.0,
            faults=STORM,
            validate_reschedule=validate,
            failure_mode_order=("lightweight", "full", "none"),
        )

        def run():
            system = memo_system_factory()
            report = LiveServer(system, config=config).run(trace, label="storm")
            return system, _report_signature(report)

        memo_system, memoized = run()
        memo_searches = len(search_calls)
        # No cluster state is searched twice ...
        assert 0 < memo_searches == len(set(search_calls))
        search_calls.clear()

        original = ThunderServe.replan_capacity

        def forgetful(self, *args, **kwargs):
            self._full_plans.clear()
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ThunderServe, "replan_capacity", forgetful)
        plain_system, plain = run()
        # ... although some recur: without the memo they are searched again.
        assert len(search_calls) > memo_searches
        assert plain == memoized
        assert plain_system.num_plan_changes == memo_system.num_plan_changes
        assert plain_system.require_plan() == memo_system.require_plan()


class TestShadowShortCircuit:
    """A candidate equal to the incumbent is decided without a shadow replay."""

    @pytest.fixture()
    def window(self):
        return generate_requests(CONVERSATION_WORKLOAD, 3.0, num_requests=30, seed=9)

    def test_breach_path_rejects_an_equal_candidate_unreplayed(
        self, memo_system_factory, shadow_calls, monkeypatch, window
    ):
        system = memo_system_factory()
        incumbent = system.require_plan()
        system.serve(window)
        copy = replace(incumbent)
        assert copy == incumbent and copy is not incumbent
        monkeypatch.setattr(
            system.rescheduler,
            "reschedule_from_stats",
            lambda *args, **kwargs: SimpleNamespace(plan=copy),
        )
        assert system.reschedule_online(validate_on=window) is False
        assert shadow_calls == []
        assert system.plan is incumbent
        assert system.num_plan_changes == 0
        # Replaying would have tied, and a tie is rejected on this path.
        assert system._shadow_attainment(copy, window) == system._shadow_attainment(
            incumbent, window
        )
        # Without a validation window the estimator is trusted, as before.
        assert system.reschedule_online() is True
        assert system.num_plan_changes == 1

    def test_capacity_path_installs_an_equal_candidate_unreplayed(
        self, memo_system_factory, shadow_calls, window
    ):
        system = memo_system_factory()
        first = system.replan_capacity(mode="full")
        again = system.replan_capacity(mode="full", validate_on=window)
        assert again == first
        assert system.plan is again
        assert shadow_calls == []
        assert system.num_plan_changes == 2
