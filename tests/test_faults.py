"""Tests for the fault-injection subsystem and its live-serving integration.

The load-bearing contracts:

* :class:`ClusterFaultState` is idempotent under interleaved, overlapping and
  replayed fail/recover sequences — it never double-removes a GPU, never
  resurrects an id that was never lost, and never counts unknown ids towards
  the outage threshold (property-tested with hypothesis).
* A seeded :class:`FaultInjector` compiles a bitwise-identical, pre-validated
  :class:`FaultSchedule` on every run (deterministic chaos replay).
* Schedules are validated at construction boundaries: events beyond the
  scenario duration or pinning unknown GPU ids raise clear errors instead of
  silently no-opping inside a serving loop.
* The live loop serves total-loss windows as zero-attainment outages instead
  of crashing, replans when capacity returns, and streams identical telemetry
  for identical seeds.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import ConfigurationError
from repro.faults import (
    ClusterFaultState,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultProcess,
    FaultSchedule,
)
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.workload.generator import generate_requests


def _loss(time, ids):
    return FaultEvent(time=time, kind=FaultKind.GPU_PREEMPTION, gpu_ids=tuple(ids))


def _recovery(time, ids):
    return FaultEvent(time=time, kind=FaultKind.RECOVERY, gpu_ids=tuple(ids))


# --------------------------------------------------------------------------- taxonomy
class TestFaultEventValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match="time"):
            _loss(-1.0, (0,))

    def test_duplicate_gpu_ids_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            FaultEvent(time=0.0, kind=FaultKind.GPU_PREEMPTION, gpu_ids=(1, 1))

    def test_capacity_loss_requires_pinned_victims(self):
        with pytest.raises(ConfigurationError, match="gpu_ids"):
            FaultEvent(time=0.0, kind=FaultKind.NODE_CRASH)

    def test_bad_link_scales_rejected(self):
        with pytest.raises(ConfigurationError, match="bandwidth_scale"):
            FaultEvent(time=0.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=0.0)

    def test_bad_straggler_slowdown_rejected(self):
        with pytest.raises(ConfigurationError, match="slowdown"):
            FaultEvent(time=0.0, kind=FaultKind.STRAGGLER, gpu_ids=(0,), slowdown=0.0)


class TestFaultScheduleValidation:
    def test_event_at_or_after_duration_rejected(self, small_hetero_cluster):
        schedule = FaultSchedule(events=(_loss(120.0, (0,)),))
        with pytest.raises(ConfigurationError, match="duration"):
            schedule.validate(120.0, small_hetero_cluster)

    def test_unknown_gpu_id_rejected(self, small_hetero_cluster):
        schedule = FaultSchedule(events=(_loss(10.0, (99,)),))
        with pytest.raises(ConfigurationError, match="roster"):
            schedule.validate(120.0, small_hetero_cluster)

    def test_valid_schedule_chains(self, small_hetero_cluster):
        schedule = FaultSchedule(events=(_loss(10.0, (0, 1)), _recovery(20.0, (0, 1))))
        assert schedule.validate(120.0, small_hetero_cluster) is schedule

    def test_construction_sorts_and_signature_is_order_independent(self):
        events = (_recovery(20.0, (0,)), _loss(10.0, (0,)), _loss(5.0, (1,)))
        forward = FaultSchedule(events=events)
        shuffled = FaultSchedule(events=events[::-1])
        assert [e.time for e in forward] == [5.0, 10.0, 20.0]
        assert forward.to_dicts() == shuffled.to_dicts()
        assert forward.signature() == shuffled.signature()

    def test_dict_round_trip_is_exact(self):
        schedule = FaultSchedule(
            events=(
                _loss(10.0, (0, 1)),
                FaultEvent(
                    time=15.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=0.5
                ),
                FaultEvent(time=18.0, kind=FaultKind.STRAGGLER, gpu_ids=(2,), slowdown=1.5),
                _recovery(30.0, (0, 1)),
            )
        )
        rebuilt = FaultSchedule.from_dicts(schedule.to_dicts())
        assert rebuilt.to_dicts() == schedule.to_dicts()
        assert rebuilt.signature() == schedule.signature()


# --------------------------------------------------------------------------- state machine
@pytest.mark.slow
class TestFaultStateProperties:
    """Hypothesis: the fault state machine is safe under arbitrary interleaving."""

    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(),
                st.sets(st.integers(min_value=0, max_value=11), min_size=1, max_size=5),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_never_double_removes_or_resurrects_unknown_ids(self, ops):
        cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
        roster = set(cluster.gpu_ids)
        state = ClusterFaultState(cluster)
        alive, removed = set(roster), set()
        time = 0.0
        for is_loss, ids in ops:
            time += 1.0
            event = _loss(time, sorted(ids)) if is_loss else _recovery(time, sorted(ids))
            delta = state.apply(event)
            if is_loss:
                expected = (set(ids) & roster) & alive
                assert set(delta.removed) == expected
                assert not delta.revived
                alive -= expected
                removed |= expected
            else:
                expected = set(ids) & removed
                assert set(delta.revived) == expected
                assert not delta.removed
                alive |= expected
                removed -= expected
            # Invariants: the model and the state agree; unknown ids never
            # appear anywhere; outage means exactly "no GPU left".
            assert set(state.alive_gpu_ids) == alive
            assert state.removed == removed
            assert state.removed <= roster
            assert state.outage == (not alive)
            current = state.current_cluster()
            if state.outage:
                assert current is None
            else:
                assert set(current.gpu_ids) == alive

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=25, deadline=None)
    def test_same_seed_compiles_bitwise_identical_schedule(self, seed):
        cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
        processes = (
            FaultProcess(kind=FaultKind.NODE_CRASH, mtbf_s=80.0, mttr_s=50.0, name="n"),
            FaultProcess(
                kind=FaultKind.GPU_PREEMPTION, mtbf_s=60.0, mttr_s=40.0, num_gpus=2, name="s"
            ),
            FaultProcess(
                kind=FaultKind.LINK_DEGRADATION,
                mtbf_s=70.0,
                mttr_s=30.0,
                bandwidth_scale=0.5,
                name="w",
            ),
            FaultProcess(
                kind=FaultKind.STRAGGLER, mtbf_s=90.0, mttr_s=45.0, slowdown=1.5, name="g"
            ),
        )
        first = FaultInjector(processes, seed=seed).compile(300.0, cluster)
        second = FaultInjector(processes, seed=seed).compile(300.0, cluster)
        assert first.to_dicts() == second.to_dicts()
        assert first.signature() == second.signature()
        # Compiled schedules are valid by construction and replay safely.
        first.validate(300.0, cluster)
        ClusterFaultState(cluster).apply_all(first)


class TestFaultStateReplay:
    def test_replaying_capacity_events_is_idempotent(self, small_hetero_cluster):
        events = (_loss(10.0, (0, 1)), _loss(12.0, (1, 2)), _recovery(20.0, (0, 1, 2)))
        state = ClusterFaultState(small_hetero_cluster)
        state.apply_all(events)
        assert not state.removed
        # A second replay of the full sequence changes nothing permanent and
        # each loss reports only newly-dead victims.
        deltas = state.apply_all(events)
        assert set(deltas[0].removed) == {0, 1}
        assert set(deltas[1].removed) == {2}
        assert not state.removed
        assert not state.degraded

    def test_link_scaling_is_absolute_not_cumulative(self, small_hetero_cluster):
        state = ClusterFaultState(small_hetero_cluster)
        half = FaultEvent(time=1.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=0.5)
        state.apply(half)
        state.apply(
            FaultEvent(time=2.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=0.5)
        )
        assert state.bandwidth_scale == 0.5  # not 0.25
        state.apply(FaultEvent(time=3.0, kind=FaultKind.LINK_RECOVERY))
        assert state.bandwidth_scale == 1.0
        assert not state.degraded


# --------------------------------------------------------------------------- live loop
@pytest.fixture()
def fault_system_factory(
    small_hetero_cluster, model_30b, conversation_workload, relaxed_slo, small_plan
):
    """Fresh deployed systems sharing one pre-built plan (no tabu search)."""

    def build():
        system = ThunderServe(
            small_hetero_cluster, model_30b, conversation_workload, 3.0, slo=relaxed_slo
        )
        system.adopt_plan(small_plan, reason="fault test")
        return system

    return build


@pytest.fixture(scope="module")
def fault_trace(conversation_workload):
    return generate_requests(conversation_workload, request_rate=4.0, duration=40.0, seed=3)


class TestLiveFaultReplay:
    def test_same_seed_reproduces_identical_telemetry(
        self, fault_system_factory, fault_trace, small_hetero_cluster
    ):
        processes = (
            FaultProcess(
                kind=FaultKind.GPU_PREEMPTION, mtbf_s=15.0, mttr_s=10.0, num_gpus=2, name="s"
            ),
            FaultProcess(
                kind=FaultKind.LINK_DEGRADATION,
                mtbf_s=20.0,
                mttr_s=10.0,
                bandwidth_scale=0.5,
                name="w",
            ),
        )
        schedule = FaultInjector(processes, seed=5).compile(40.0, small_hetero_cluster)
        assert len(schedule) > 0
        snapshots = []
        for _ in range(2):
            server = LiveServer(
                fault_system_factory(),
                config=LiveServeConfig(window_s=10.0, faults=schedule),
            )
            report = server.run(fault_trace, label="replay")
            snapshots.append(
                json.dumps(
                    {
                        "windows": [w.to_dict() for w in report.windows],
                        "fault_log": report.fault_log,
                    },
                    sort_keys=True,
                )
            )
        assert snapshots[0] == snapshots[1]

    def test_total_loss_serves_outage_windows_then_recovers(
        self, fault_system_factory, fault_trace, small_hetero_cluster
    ):
        everyone = tuple(small_hetero_cluster.gpu_ids)
        schedule = FaultSchedule(
            events=(_loss(12.0, everyone), _recovery(28.0, everyone))
        )
        server = LiveServer(
            fault_system_factory(),
            config=LiveServeConfig(window_s=10.0, faults=schedule),
        )
        report = server.run(fault_trace, label="total-loss")
        outages = [w for w in report.windows if w.outage]
        assert outages, "total loss must surface as outage windows, not a crash"
        for window in outages:
            assert window.attainment_e2e == 0.0
            assert window.num_gpus_alive == 0
            assert window.degraded
            assert window.faults
        # Capacity came back: the windows after the recovery actually serve.
        last_outage = max(w.index for w in outages)
        tail = [w for w in report.windows if w.index > last_outage and w.num_requests]
        assert tail and all(w.attainment_e2e > 0.0 for w in tail)
        stats = report.fault_stats()
        assert stats["outage_windows"] == len(outages)
        assert stats["mean_mttr_s"] == pytest.approx(16.0)

    def test_unknown_gpu_id_in_config_raises_before_serving(
        self, fault_system_factory, fault_trace
    ):
        schedule = FaultSchedule(events=(_loss(10.0, (99,)),))
        server = LiveServer(
            fault_system_factory(),
            config=LiveServeConfig(window_s=10.0, faults=schedule),
        )
        with pytest.raises(ConfigurationError, match="roster"):
            server.run(fault_trace, label="bad-schedule")

    def test_straggler_and_link_faults_sync_the_system(
        self, fault_system_factory, fault_trace
    ):
        schedule = FaultSchedule(
            events=(
                FaultEvent(
                    time=5.0, kind=FaultKind.STRAGGLER, gpu_ids=(0,), slowdown=1.5
                ),
                FaultEvent(
                    time=5.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=0.5
                ),
            )
        )
        system = fault_system_factory()
        server = LiveServer(system, config=LiveServeConfig(window_s=10.0, faults=schedule))
        report = server.run(fault_trace, label="degradations")
        assert any(w.degraded for w in report.windows)
        # The faults were synced into the serving system, not just recorded.
        assert dict(system.simulator_config.gpu_slowdowns) == {0: 1.5}
        kinds = {e.kind for e in system.events}
        assert "cluster_changed" in kinds
        assert "slowdowns_changed" in kinds


class TestLiveFaultConfigValidation:
    def test_bad_failure_mode_rejected(self):
        with pytest.raises(ValueError, match="failure_mode_order"):
            LiveServeConfig(window_s=10.0, failure_mode_order=("sideways",))
