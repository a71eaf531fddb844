"""Tests for the live adaptive serving loop.

The load-bearing contract here is *piecewise-static equivalence*: plan changes
only happen between windows, so replaying each window's sub-trace against its
recorded plan in independent batch simulations must reproduce the live run's
windowed metrics exactly.  README.md and docs/architecture.md both point at
this file for that guarantee.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core.types import SLOType
from repro.faults import FaultEvent, FaultKind, FaultSchedule, RetryPolicy
from repro.serving import live
from repro.serving.live import (
    LiveServeConfig,
    LiveServer,
    WindowTelemetry,
    plan_signature,
)
from repro.serving.slo_objectives import BreachEvent, SLOObjective
from repro.serving.system import ThunderServe
from repro.workload.generator import generate_requests
from repro.workload.trace import Trace

WINDOW_S = 4.0

def impossible_slo(snapshot):
    """An SLO policy no window can satisfy, patched over the live loop's own.

    It forces a breach in window 0 (and, being edge-triggered, *only* window
    0), which in turn forces one online rescheduling — so the equivalence run
    spans a real plan change.
    """
    return "default", [
        SLOObjective(name="availability", metric="attainment_e2e", op=">=", target=2.0)
    ]


def unvalidated(method):
    """Wrap a ``ThunderServe`` replan method to skip its shadow validation."""

    def wrapper(self, *args, **kwargs):
        kwargs["validate_on"] = None
        return method(self, *args, **kwargs)

    return wrapper


@pytest.fixture(scope="module")
def live_trace(conversation_workload):
    return generate_requests(conversation_workload, request_rate=4.0, num_requests=60, seed=7)


@pytest.fixture(scope="module")
def system_factory(small_hetero_cluster, model_30b, conversation_workload, relaxed_slo, small_plan):
    """Fresh deployed systems sharing one pre-built plan (no tabu search)."""

    def build():
        system = ThunderServe(
            small_hetero_cluster, model_30b, conversation_workload, 3.0, slo=relaxed_slo
        )
        system.adopt_plan(small_plan, reason="live-serving test")
        return system

    return build


@pytest.fixture(scope="module")
def adaptive_run(system_factory, live_trace):
    """One adaptive run with a breach-forced plan change after window 0."""
    system = system_factory()
    config = LiveServeConfig(window_s=WINDOW_S)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(live, "slo_policy", impossible_slo)
        # Validation would (correctly) reject a candidate that does not beat a
        # healthy incumbent; this test needs the plan change to happen so the
        # equivalence replay spans two plans.
        patch.setattr(
            ThunderServe, "reschedule_online", unvalidated(ThunderServe.reschedule_online)
        )
        report = LiveServer(system, config=config).run(live_trace, label="equivalence")
    return system, report


class TestPiecewiseStaticEquivalence:
    def test_windowed_metrics_match_batch_replay(
        self, adaptive_run, system_factory, live_trace
    ):
        _, report = adaptive_run
        assert len(report.windows) >= 2
        assert report.num_plan_changes >= 1

        # Walk the same window grid the live loop used and replay each window's
        # sub-trace against the plan it was served with, on a fresh system.
        window_start = live_trace[0].arrival_time
        end = live_trace[-1].arrival_time
        served = list(zip(report.windows, report.results, report.served_plans))
        while window_start <= end:
            window = live_trace.window(window_start, window_start + WINDOW_S)
            window_start += WINDOW_S
            if window.is_empty:
                continue
            telemetry, live_result, plan = served.pop(0)
            replay_system = system_factory()
            replay_system.adopt_plan(plan, reason="piecewise-static replay")
            replay = replay_system.serve(window, label="replay")
            slo = replay_system.slo
            assert replay.num_requests == telemetry.num_requests
            assert replay.num_finished == telemetry.num_finished
            assert replay.slo_attainment(slo, SLOType.E2E) == telemetry.attainment_e2e
            assert replay.slo_attainment(slo, SLOType.TTFT) == telemetry.attainment_ttft
            assert replay.slo_attainment(slo, SLOType.TPOT) == telemetry.attainment_tpot
            assert replay.completion_rate == telemetry.completion_rate
            waits = [m.queue_time for m in replay.finished]
            expected_wait = float(np.mean(waits)) if waits else 0.0
            assert telemetry.mean_queue_wait == pytest.approx(expected_wait, abs=1e-12)
            # The merged live result and the replay agree request by request.
            live_e2e = sorted((m.request.request_id, m.e2e_latency) for m in live_result.metrics)
            replay_e2e = sorted((m.request.request_id, m.e2e_latency) for m in replay.metrics)
            assert live_e2e == replay_e2e
        assert not served  # every served window was visited by the replay grid

    def test_plan_ids_track_served_plans(self, adaptive_run):
        _, report = adaptive_run
        assert [w.plan_id for w in report.windows] == [
            plan_signature(p) for p in report.served_plans
        ]


class TestBreachTriggeredRescheduling:
    def test_breach_fires_once_and_changes_plan(self, adaptive_run):
        system, report = adaptive_run
        # The impossible objective fails every window, but the edge-triggered
        # tracker fires exactly once — at the first crossing.
        assert len(report.breaches) == 1
        assert report.breaches[0].window_index == 0
        assert report.breaches[0].objective == "availability"
        assert report.windows[0].breaches == (report.breaches[0],)
        assert all(w.breaches == () for w in report.windows[1:])
        # That single breach triggered exactly one online rescheduling.
        assert report.windows[0].plan_changed
        assert report.num_plan_changes == 1
        assert system.num_plan_changes == 1

    def test_validated_rescheduling_never_adopts_non_improving_plan(
        self, system_factory, live_trace, monkeypatch
    ):
        # Same breach pressure, but with shadow validation on: the incumbent
        # serves the healthy trace fine, so no candidate can strictly beat it
        # and the loop must stand still.
        monkeypatch.setattr(live, "slo_policy", impossible_slo)
        system = system_factory()
        config = LiveServeConfig(window_s=WINDOW_S)
        before = system.require_plan()
        report = LiveServer(system, config=config).run(live_trace, label="validated")
        assert report.num_plan_changes == 0
        assert system.require_plan() is before
        assert len({w.plan_id for w in report.windows}) == 1

    def test_second_run_of_one_server_matches_a_fresh_server(
        self, system_factory, live_trace, monkeypatch
    ):
        # The impossible objective is still breached when the first run ends;
        # a second run must re-arm it and fire its breach again.
        monkeypatch.setattr(live, "slo_policy", impossible_slo)
        config = LiveServeConfig(window_s=WINDOW_S, adapt_to_workload=False)
        server = LiveServer(system_factory(), config=config)
        server.run(live_trace, label="reuse")
        again = server.run(live_trace, label="reuse")
        fresh = LiveServer(system_factory(), config=config).run(live_trace, label="reuse")
        assert len(fresh.breaches) == 1
        assert again.to_dicts() == fresh.to_dicts()


class TestAdmissionControl:
    def test_shedding_is_deterministic_and_recorded(self, system_factory, live_trace):
        def run():
            system = system_factory()
            config = LiveServeConfig(
                window_s=WINDOW_S,
                admission_max_rho=0.05,
                adapt_to_workload=False,
            )
            report = LiveServer(system, config=config).run(live_trace, label="shed")
            return system, report

        _, report_a = run()
        _, report_b = run()
        shed_a = [w.num_shed for w in report_a.windows]
        assert sum(shed_a) > 0
        assert shed_a == [w.num_shed for w in report_b.windows]
        assert report_a.fault_stats()["requests_shed"] == sum(shed_a)
        for window in report_a.windows:
            snapshot = window.snapshot()
            total = window.num_requests + window.num_shed
            assert snapshot["shed_fraction"] == pytest.approx(window.num_shed / total)

    def test_request_rate_counts_shed_arrivals(self, system_factory, live_trace):
        """The observed arrival rate covers every arrival, admitted or shed."""
        config = LiveServeConfig(
            window_s=WINDOW_S,
            admission_max_rho=0.05,
            adapt_to_workload=False,
        )
        report = LiveServer(system_factory(), config=config).run(live_trace, label="rate")
        assert sum(w.num_shed for w in report.windows) > 0
        for window in report.windows:
            assert window.request_rate * WINDOW_S == pytest.approx(
                window.num_requests + window.num_shed
            )

    def test_no_ceiling_admits_everything(self, adaptive_run, live_trace):
        _, report = adaptive_run
        assert sum(w.num_shed for w in report.windows) == 0
        assert sum(w.num_requests for w in report.windows) == len(live_trace)


class TestTelemetry:
    def test_window_telemetry_round_trip_covers_every_field(self):
        breach = BreachEvent(
            time=8.0, window_index=1, profile="degraded", objective="availability",
            metric="attainment_e2e", op=">=", target=0.9, value=0.4, context="t",
        )
        record = WindowTelemetry(
            index=1, start=4.0, end=8.0, plan_id="deadbeef", profile="degraded",
            num_requests=17, num_shed=3, num_finished=16, request_rate=4.25,
            attainment_e2e=0.4, attainment_ttft=0.6, attainment_tpot=0.9,
            mean_queue_wait=0.12, completion_rate=0.94, estimated_rho=0.7,
            estimated_attainment=0.55, plan_changed=True, breaches=(breach,),
            per_tenant_attainment={"gold": 0.5, "silver": 1.0}, outage=True,
            degraded=True, faults=("node_crash@5s gpus=[4]", "in-engine: x"),
            num_gpus_alive=7, replan_triggers=("failure", "recovery"),
            outcome_counts={"finished": 14, "shed": 3},
        )
        defaults = WindowTelemetry(
            index=0, start=0.0, end=0.0, plan_id="", profile="", num_requests=0,
            num_shed=0, num_finished=0, request_rate=0.0, attainment_e2e=0.0,
            attainment_ttft=0.0, attainment_tpot=0.0, mean_queue_wait=0.0,
            completion_rate=0.0, estimated_rho=0.0, estimated_attainment=0.0,
        )
        names = [f.name for f in dataclasses.fields(WindowTelemetry)]
        # Every field is set away from its default, so each one is exercised.
        assert all(getattr(record, n) != getattr(defaults, n) for n in names)
        data = record.to_dict()
        assert list(data) == names
        assert data["breaches"] == [breach.to_dict()]
        assert data["replan_triggers"] == ["failure", "recovery"]
        assert json.loads(json.dumps(data)) == data

    def test_window_telemetry_missing_keys_take_field_defaults(self):
        required = {
            "index": 2, "start": 8.0, "end": 12.0, "plan_id": "p", "profile": "realtime",
            "num_requests": 1, "num_shed": 0, "num_finished": 1, "request_rate": 0.25,
            "attainment_e2e": 1.0, "attainment_ttft": 1.0, "attainment_tpot": 1.0,
            "mean_queue_wait": 0.0, "completion_rate": 1.0, "estimated_rho": 0.1,
            "estimated_attainment": 1.0,
        }
        record = WindowTelemetry(**required)
        assert record.replan_triggers == () and record.num_gpus_alive == -1
        assert record.to_dict()["breaches"] == [] and record.to_dict()["outcome_counts"] == {}
        with pytest.raises(TypeError):
            WindowTelemetry(**{k: v for k, v in required.items() if k != "index"})

    def test_report_round_trip_through_to_dicts(self, adaptive_run):
        _, report = adaptive_run
        dicts = report.to_dicts()
        assert dicts == [w.to_dict() for w in report.windows]
        assert json.loads(json.dumps(dicts)) == dicts

    def test_streaming_callbacks_and_worst_window(self, adaptive_run):
        _, report = adaptive_run
        assert report.worst_window_attainment() == min(w.attainment_e2e for w in report.windows)
        assert report.merged.num_requests == sum(w.num_requests for w in report.windows)


class TestConfigAndEdgeCases:
    def test_window_length_validated(self):
        with pytest.raises(ValueError, match="window_s"):
            LiveServeConfig(window_s=0.0)

    def test_admission_ceiling_validated(self):
        with pytest.raises(ValueError, match="admission_max_rho"):
            LiveServeConfig(admission_max_rho=1.5)

    def test_empty_trace_yields_empty_report(self, system_factory):
        report = LiveServer(system_factory()).run(Trace(requests=[]), label="empty")
        assert report.windows == []
        assert report.worst_window_attainment() == 1.0
        assert report.num_plan_changes == 0

    def test_plan_signature_stable(self, small_plan):
        signature = plan_signature(small_plan)
        assert signature == plan_signature(small_plan)
        assert len(signature) == 8
        int(signature, 16)  # hex


class TestInEngineFaults:
    """Capacity faults inside a window are compiled into the engine run."""

    RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.3, jitter=0.1)

    @pytest.fixture(scope="class")
    def multi_system_factory(self, small_hetero_cluster, model_7b, conversation_workload):
        """Systems over a four-replica llama-7b plan with uniform routing.

        Two prefill and two decode replicas, so killing one prefill group
        leaves a survivor for the retry path to land on; ``routing=None``
        spreads traffic uniformly so the dying replica always holds work.
        """
        from repro.core.types import Phase
        from repro.costmodel.reference import a100_reference_latency
        from repro.scheduling.deployment import DeploymentPlan
        from repro.scheduling.lower_level import LowerLevelSolver
        from repro.scheduling.solution import UpperLevelSolution

        a40 = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("3090Ti")]
        solution = UpperLevelSolution.from_lists(
            [
                (a40[:2], Phase.PREFILL),
                (a40[2:], Phase.PREFILL),
                (ti[:2], Phase.DECODE),
                (ti[2:], Phase.DECODE),
            ]
        )
        slo = a100_reference_latency(model_7b, conversation_workload).slo_spec(8.0)
        solver = LowerLevelSolver(
            cluster=small_hetero_cluster,
            model=model_7b,
            workload=conversation_workload,
            slo=slo,
            request_rate=3.0,
        )
        solved = solver.solve(solution).plan
        assert solved is not None
        plan = DeploymentPlan(
            groups=solved.groups,
            routing=None,
            model_name=solved.model_name,
            kv_transport_bits=solved.kv_transport_bits,
        )

        def build():
            system = ThunderServe(
                small_hetero_cluster, model_7b, conversation_workload, 3.0, slo=slo
            )
            system.adopt_plan(plan, reason="in-engine fault test")
            return system

        return build

    @pytest.fixture(scope="class")
    def fault_trace(self, conversation_workload):
        return generate_requests(
            conversation_workload, request_rate=6.0, num_requests=80, seed=3
        )

    def _run(self, factory, trace, retry):
        system = factory()
        victims = system.require_plan().prefill_groups[0].gpu_ids
        schedule = FaultSchedule.from_events(
            [FaultEvent(time=6.0, kind=FaultKind.GPU_PREEMPTION, gpu_ids=tuple(victims))]
        )
        config = LiveServeConfig(
            window_s=WINDOW_S,
            adapt_to_workload=False,
            faults=schedule,
            retry_policy=retry,
        )
        report = LiveServer(system, config=config).run(trace, label="in-engine")
        return system, report

    def test_retry_recovers_attainment_drop_only_loses(
        self, multi_system_factory, fault_trace
    ):
        _, retry_report = self._run(multi_system_factory, fault_trace, self.RETRY)
        _, drop_report = self._run(
            multi_system_factory, fault_trace, RetryPolicy.drop_only()
        )
        retry_stats = retry_report.fault_stats()
        drop_stats = drop_report.fault_stats()
        # The same seeded storm preempts work either way; only the retry
        # policy decides whether that work comes back.
        assert retry_stats["requests_retried_then_finished"] > 0
        assert drop_stats["requests_retried_then_finished"] == 0
        assert drop_stats["requests_dropped_outage"] > 0
        retry_finished = (
            retry_stats["requests_finished"]
            + retry_stats["requests_retried_then_finished"]
        )
        drop_finished = (
            drop_stats["requests_finished"]
            + drop_stats["requests_retried_then_finished"]
        )
        assert retry_finished > drop_finished

    def test_single_phase_replan_falls_through_to_none(
        self, multi_system_factory, fault_trace, monkeypatch
    ):
        """A failure replan whose first mode yields a prefill-only plan is
        rejected at install time, and the loop falls through to ``"none"``."""
        from types import SimpleNamespace

        from repro.scheduling.deployment import DeploymentPlan

        system = multi_system_factory()
        victims = system.require_plan().prefill_groups[0].gpu_ids

        def prefill_only(plan, *args, **kwargs):
            return SimpleNamespace(
                plan=DeploymentPlan(
                    groups=tuple(plan.prefill_groups),
                    model_name=plan.model_name,
                    kv_transport_bits=plan.kv_transport_bits,
                )
            )

        monkeypatch.setattr(system.rescheduler, "reschedule", prefill_only)
        config = LiveServeConfig(
            window_s=WINDOW_S,
            adapt_to_workload=False,
            faults=FaultSchedule.from_events(
                [FaultEvent(time=6.0, kind=FaultKind.GPU_PREEMPTION, gpu_ids=tuple(victims))]
            ),
        )
        report = LiveServer(system, config=config).run(fault_trace, label="fallthrough")
        assert sum(w.replan_triggers.count("failure") for w in report.windows) == 1
        assert not any(w.outage for w in report.windows)
        plan = system.require_plan()
        assert plan.prefill_groups and plan.decode_groups
        assert not set(victims) & {g for group in plan.groups for g in group.gpu_ids}
        assert system.events[-1].detail.endswith("mode=none")
        assert report.fault_log[0]["replan_ok"] is True

    def test_fault_stats_deterministic_replay(self, multi_system_factory, fault_trace):
        _, first = self._run(multi_system_factory, fault_trace, self.RETRY)
        _, second = self._run(multi_system_factory, fault_trace, self.RETRY)
        assert first.fault_stats() == second.fault_stats()
        assert first.windows == second.windows

    def test_window_telemetry_and_ledger_consistent(
        self, multi_system_factory, fault_trace
    ):
        _, report = self._run(multi_system_factory, fault_trace, self.RETRY)
        # The fault window is flagged degraded and carries the in-engine note.
        noted = [
            w
            for w in report.windows
            if any(f.startswith("in-engine:") for f in w.faults)
        ]
        assert noted, "the mid-window fault must surface in window telemetry"
        assert all(w.degraded for w in noted)
        # Per-window outcome conservation: every admitted or shed request has
        # exactly one outcome.
        for window in report.windows:
            assert sum(window.outcome_counts.values()) == (
                window.num_requests + window.num_shed
            )
        # Run-level: the requests_* totals cover the whole trace, across the
        # post-fault plan change.
        stats = report.fault_stats()
        total = sum(v for k, v in stats.items() if k.startswith("requests_"))
        assert total == len(fault_trace)
        assert report.num_plan_changes > 0
        # outcome_counts survive the JSON round trip.
        dicts = report.to_dicts()
        assert json.loads(json.dumps(dicts)) == dicts
        assert [d["outcome_counts"] for d in dicts] == [w.outcome_counts for w in report.windows]
