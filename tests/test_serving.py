"""Tests for the serving runtime: the ThunderServe facade and its replan memos."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.exceptions import InvalidPlanError, SchedulingError
from repro.core.types import Phase, Request
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.hardware.network import NetworkModel
from repro.scheduling import lower_level
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.rescheduling import LightweightRescheduler
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.solution import UpperLevelSolution
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving import live
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.workload.generator import generate_requests
from repro.workload.spec import CONVERSATION_WORKLOAD
from repro.workload.trace import Trace


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
        assert all(v not in group.gpu_ids for group in plan.groups for v in victims)
        # The system can still serve traffic afterwards.
        trace = generate_requests(CONVERSATION_WORKLOAD, 2.0, num_requests=10, seed=7)
        result = deployed_system.serve(trace)
        assert result.num_finished == 10

    def test_invalid_failure_mode_rejected(self, deployed_system):
        with pytest.raises(ValueError):
            deployed_system.handle_gpu_failure([0], mode="teleport")


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


def _unvalidated(method):
    """Wrap a ``ThunderServe`` replan method to skip its shadow validation."""

    def wrapper(self, *args, **kwargs):
        kwargs["validate_on"] = None
        return method(self, *args, **kwargs)

    return wrapper


def _report_signature(report):
    """Telemetry, fault log and every window result's digest of a live run."""
    digests = [r.digest() for r in report.results]
    return json.dumps([report.to_dicts(), report.fault_log], sort_keys=True), digests


class TestFullReplanMemo:
    """``replan_capacity`` searches once per cluster state (and incumbent) per system.

    The storm test runs ``lightweight`` before ``full``, so its memo-free
    replay also checks that lightweight hits leave the report unchanged.
    """

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
        config = LiveServeConfig(window_s=10.0, faults=STORM)
        monkeypatch.setattr(live, "FAILURE_MODE_ORDER", ("lightweight", "full", "none"))
        if not validate:
            for name in ("reschedule_online", "replan_capacity"):
                monkeypatch.setattr(
                    ThunderServe, name, _unvalidated(getattr(ThunderServe, name))
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
            self._replans.clear()
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ThunderServe, "replan_capacity", forgetful)
        plain_system, plain = run()
        # ... although some recur: without the memo they are searched again.
        assert len(search_calls) > memo_searches
        assert plain == memoized
        assert plain_system.num_plan_changes == memo_system.num_plan_changes
        assert plain_system.require_plan() == memo_system.require_plan()


def test_deploy_seeds_the_full_replan_memo(
    small_hetero_cluster, model_30b, conversation_workload, search_calls, monkeypatch
):
    """A recovery back to the deployed cluster state reuses the deployment's plan.

    ``deploy()`` runs exactly the search a ``"full"`` replan runs on the same
    cluster state, so it seeds that memo entry: after a node loss and its
    recovery, the recovery replan searches nothing, and the report equals a
    run whose replans never remember a plan.
    """
    crash = FaultEvent(time=5.0, kind=FaultKind.NODE_CRASH, gpu_ids=(4, 5, 6, 7))
    rejoin = FaultEvent(time=15.0, kind=FaultKind.RECOVERY, gpu_ids=(4, 5, 6, 7))
    trace = generate_requests(CONVERSATION_WORKLOAD, request_rate=3.0, duration=40.0, seed=3)
    config = LiveServeConfig(window_s=5.0, faults=FaultSchedule.from_events([crash, rejoin]))
    pristine = small_hetero_cluster.state_key()

    def run():
        system = ThunderServe(
            small_hetero_cluster, model_30b, conversation_workload, 3.0,
            scheduler_config=MEMO_SCHEDULER,
        )
        system.deploy()
        assert search_calls == [pristine]
        report = LiveServer(system, config=config).run(trace, label="recover")
        replans = search_calls[1:]
        search_calls.clear()
        return system, _report_signature(report), replans

    memo_system, memoized, replans = run()
    assert pristine not in replans  # the recovery replan searched nothing

    original = ThunderServe.replan_capacity

    def forgetful(self, *args, **kwargs):
        self._replans.clear()
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ThunderServe, "replan_capacity", forgetful)
    plain_system, plain, plain_replans = run()
    assert pristine in plain_replans  # without the memo it searches the pristine state again
    assert plain == memoized
    assert plain_system.num_plan_changes == memo_system.num_plan_changes
    assert plain_system.require_plan() == memo_system.require_plan()


def test_boundary_replans_over_empty_windows_are_all_counted(
    small_hetero_cluster, model_30b, conversation_workload
):
    """A crash and a rejoin folded while no request arrives both reach the next window.

    Both events fall in empty windows, so the failure replan (at 6.5 s) and
    the recovery replan (at 16.5 s) are installed at boundaries no window
    reports; the window served at 28.5 s carries both triggers, and both
    event notes, in order.
    """
    system = ThunderServe(
        small_hetero_cluster, model_30b, conversation_workload, 3.0,
        scheduler_config=MEMO_SCHEDULER,
    )
    system.deploy()
    crash = FaultEvent(time=5.0, kind=FaultKind.NODE_CRASH, gpu_ids=(4, 5, 6, 7))
    rejoin = FaultEvent(time=15.0, kind=FaultKind.RECOVERY, gpu_ids=(4, 5, 6, 7))
    trace = Trace(requests=[
        Request(request_id=i, arrival_time=t, input_length=512, output_length=64)
        for i, t in enumerate((0.5, 1.0, 30.0, 31.0))
    ])
    config = LiveServeConfig(
        window_s=2.0,
        faults=FaultSchedule.from_events([crash, rejoin]),
        adapt_to_workload=False,
    )
    report = LiveServer(system, config=config).run(trace, label="quiet-storm")

    installs = [e for e in system.events if e.kind == "plan_installed"]
    assert len(installs) == 3  # the deployment, then the two boundary replans
    assert [w.replan_triggers for w in report.windows] == [(), ("failure", "recovery"), ()]
    assert report.windows[1].faults == (crash.describe(), rejoin.describe())
    assert report.num_plan_changes == system.num_plan_changes == 2
    stats = report.fault_stats()
    assert stats["num_failure_replans"] == 1.0
    assert stats["num_recovery_replans"] == 1.0


@pytest.fixture()
def lightweight_calls(monkeypatch):
    """Record (cluster state, incumbent) of each flip-only search ``reschedule`` runs."""
    calls = []
    original = LightweightRescheduler.reschedule

    def counted(self, plan, cluster, *args, **kwargs):
        calls.append((cluster.state_key(), plan))
        return original(self, plan, cluster, *args, **kwargs)

    monkeypatch.setattr(LightweightRescheduler, "reschedule", counted)
    return calls


def _flipped(plan):
    """``plan`` with every group's phase flipped and no routing."""
    flip = {Phase.PREFILL: Phase.DECODE, Phase.DECODE: Phase.PREFILL}
    return DeploymentPlan(
        groups=tuple(g.with_phase(flip[g.phase]) for g in plan.groups),
        model_name=plan.model_name,
        kv_transport_bits=plan.kv_transport_bits,
    )


class TestLightweightReplanMemo:
    """``replan_capacity(mode="lightweight")`` searches once per (cluster state, incumbent)."""

    def test_hit_equals_a_fresh_search(self, memo_system_factory, lightweight_calls):
        system = memo_system_factory()
        incumbent = system.require_plan()
        first = system.replan_capacity(mode="lightweight")
        system.adopt_plan(incumbent)
        second = system.replan_capacity(mode="lightweight")
        assert len(lightweight_calls) == 1
        assert second == first
        # A hit still installs, exactly like a miss (the adopt installs too).
        assert system.num_plan_changes == 3
        fresh = system.rescheduler.reschedule(
            incumbent, system.cluster, system.model, system.workload,
            system.request_rate, system.slo,
        )
        assert second == fresh.plan

    def test_key_is_the_cluster_state_and_the_incumbent(
        self, memo_system_factory, lightweight_calls
    ):
        system = memo_system_factory()
        incumbent = system.require_plan()
        flipped = _flipped(incumbent)
        pristine = system.cluster
        brownout = pristine.with_network(pristine.network.scaled(bandwidth_scale=0.5))
        visits = [(pristine, incumbent), (pristine, flipped), (brownout, incumbent)]
        for cluster, plan in visits + visits:
            system.set_cluster(cluster)
            system.adopt_plan(plan)
            system.replan_capacity(mode="lightweight")
        assert lightweight_calls == [(c.state_key(), p) for c, p in visits]

    def test_modes_do_not_share_entries(
        self, memo_system_factory, lightweight_calls, search_calls
    ):
        system = memo_system_factory()
        incumbent = system.require_plan()
        system.replan_capacity(mode="lightweight")
        system.adopt_plan(incumbent)
        system.replan_capacity(mode="full")
        assert len(lightweight_calls) == 1 and len(search_calls) == 1

    def test_failed_search_stores_nothing(self, memo_system_factory, monkeypatch):
        system = memo_system_factory()
        original = LightweightRescheduler.reschedule

        def failing(self, *args, **kwargs):
            raise SchedulingError("no feasible plan")

        monkeypatch.setattr(LightweightRescheduler, "reschedule", failing)
        with pytest.raises(SchedulingError):
            system.replan_capacity(mode="lightweight")
        assert system._replans == {}
        monkeypatch.setattr(LightweightRescheduler, "reschedule", original)
        assert system.replan_capacity(mode="lightweight") is not None


def test_deploys_share_no_scheduler_cache(
    small_hetero_cluster, model_30b, conversation_workload, relaxed_slo, monkeypatch
):
    """Two deploys over one cluster do the same lower-level work: no memo outlives a search."""
    names = ("solve_orchestration", "deduce_parallel_plan")
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(lower_level, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(lower_level, name, counted)
    per_deploy = []
    for _ in range(2):
        before = dict(calls)
        ThunderServe(
            small_hetero_cluster, model_30b, conversation_workload, 3.0,
            slo=relaxed_slo, scheduler_config=MEMO_SCHEDULER,
        ).deploy()
        per_deploy.append({name: calls[name] - before[name] for name in names})
    assert per_deploy[0] == per_deploy[1]
    assert all(count > 0 for count in per_deploy[0].values())


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


class TestRecoveryValidationReuse:
    """A capacity replan's validation reuses the served window when it can.

    The incumbent prefills on two A40s and decodes on the other two.  It
    serves a window without in-engine faults; then a link or a slowdown
    changes, and a validated capacity replan compares a candidate with it on
    that window.  A change that no run of the incumbent reads (a link to a
    3090Ti, a slowed 3090Ti) leaves its replay as it was served, so the
    served attainment stands in for it and only the candidate replays.  A
    change among the incumbent's own GPUs forces its replay.
    """

    @pytest.fixture()
    def plans(self, small_hetero_cluster, model_30b, conversation_workload, relaxed_slo):
        a40 = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("A40")]
        ti = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("3090Ti")]
        solver = LowerLevelSolver(
            cluster=small_hetero_cluster,
            model=model_30b,
            workload=conversation_workload,
            slo=relaxed_slo,
            request_rate=3.0,
        )
        incumbent = solver.solve(
            UpperLevelSolution.from_lists([(a40[:2], Phase.PREFILL), (a40[2:], Phase.DECODE)])
        ).plan
        candidate = solver.solve(
            UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.DECODE)])
        ).plan
        return a40, ti, incumbent, candidate

    @pytest.mark.parametrize(
        "change, reused",
        [
            ("link to an outside GPU", True),
            ("outside slowdown", True),
            ("link inside", False),
            ("inside slowdown", False),
        ],
    )
    def test_replays_the_incumbent_only_when_its_inputs_changed(
        self, memo_system_factory, shadow_calls, monkeypatch, plans, change, reused
    ):
        a40, ti, incumbent, candidate = plans
        system = memo_system_factory()
        system.adopt_plan(incumbent)
        window = generate_requests(CONVERSATION_WORKLOAD, 3.0, num_requests=30, seed=9)
        served = system.serve(window)
        if change.startswith("link"):
            i, j = (a40[0], ti[0]) if reused else (a40[0], a40[2])
            network = system.cluster.network
            bandwidth = network.bandwidth_matrix_gbps()
            bandwidth[i, j] = bandwidth[j, i] = bandwidth[i, j] / 2
            system.set_cluster(
                system.cluster.with_network(
                    NetworkModel(bandwidth, network._latency_s, network._link_class)
                )
            )
        else:
            system.apply_gpu_slowdowns({ti[0] if reused else a40[0]: 2.0})
        monkeypatch.setattr(
            system.scheduler, "schedule", lambda *args, **kwargs: SimpleNamespace(plan=candidate)
        )
        system.replan_capacity(mode="full", validate_on=window)
        assert shadow_calls == ([candidate] if reused else [incumbent, candidate])
        if reused:
            assert system._shadow_attainment(incumbent, window) == served.slo_attainment(
                system.slo
            )
