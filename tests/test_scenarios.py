"""Coverage for every named scenario in ``repro.scenarios`` and the sweep runner.

Each registered scenario is checked for: determinism under a fixed seed, trace
shape invariants (arrival monotonicity and bounds, positive lengths, unique ids)
and one end-to-end ``ThunderServe.serve()`` smoke run; the sweep runner is
exercised across the whole library, including the failure-injection path.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.types import RequestOutcome
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.scenarios import (
    ScenarioSweep,
    SpotPreemptionScenario,
    default_scenarios,
    get_scenario,
    list_scenarios,
)
from repro.scenarios.library import MultiTenantSLOTiersScenario, TenantTier
from repro.scheduling.scheduler import Scheduler, SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.system import ThunderServe
from repro.simulation.engine import SimulatorConfig
from repro.workload.spec import CONVERSATION_WORKLOAD

#: short trace length used throughout: long enough for dozens of requests,
#: short enough to keep the whole module in the fast tier of the suite
SMOKE_DURATION = 12.0


def smoke_scenarios():
    """One short-duration instance of every registered scenario."""
    return default_scenarios(duration=SMOKE_DURATION)


@pytest.fixture(scope="module")
def cloud_plan(cloud_cluster, model_30b):
    """A scheduler-built plan on the 32-GPU cloud cluster, shared by all smokes."""
    scheduler = Scheduler(
        SchedulerConfig(
            tabu=TabuSearchConfig(num_steps=6, num_neighbors=4, memory_size=5, patience=4),
            seed=0,
        )
    )
    result = scheduler.schedule(
        cloud_cluster, model_30b, CONVERSATION_WORKLOAD, request_rate=5.0
    )
    return result.plan


# --------------------------------------------------------------------- registry
def test_registry_has_at_least_six_scenarios():
    names = list_scenarios()
    assert len(names) >= 6
    assert len(set(names)) == len(names)
    for name in names:
        scenario = get_scenario(name)
        assert scenario.name == name
        assert scenario.description


def test_get_scenario_overrides_and_errors():
    scenario = get_scenario("long-context-rag", request_rate=3.5, duration=20.0)
    assert scenario.request_rate == 3.5
    assert scenario.duration == 20.0
    with pytest.raises(KeyError):
        get_scenario("no-such-scenario")


# ------------------------------------------------------------------ determinism
@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_trace_deterministic_under_fixed_seed(scenario):
    first = scenario.build_trace(seed=42)
    second = scenario.build_trace(seed=42)
    assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
    assert [(r.input_length, r.output_length, r.workload) for r in first] == [
        (r.input_length, r.output_length, r.workload) for r in second
    ]
    different = scenario.build_trace(seed=43)
    assert [r.arrival_time for r in first] != [r.arrival_time for r in different]


# -------------------------------------------------------------------- invariants
@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_trace_shape_invariants(scenario):
    trace = scenario.build_trace(seed=7)
    assert len(trace) > 0, "a smoke-length trace must contain requests"
    arrivals = [r.arrival_time for r in trace]
    assert arrivals == sorted(arrivals), "arrivals must be non-decreasing"
    assert all(0.0 <= t < scenario.duration for t in arrivals)
    assert all(r.input_length >= 1 and r.output_length >= 1 for r in trace)
    ids = [r.request_id for r in trace]
    assert len(set(ids)) == len(ids), "request ids must be unique"


def test_multi_tenant_trace_tags_every_tenant():
    scenario = get_scenario("multi-tenant", duration=30.0)
    trace = scenario.build_trace(seed=5)
    tags = {r.workload for r in trace}
    assert tags == {f"tenant:{t.tenant}" for t in scenario.tiers}
    assert scenario.slo_scale() == min(t.slo_scale for t in scenario.tiers)


def test_multi_tenant_rejects_bad_shares():
    with pytest.raises(ValueError):
        MultiTenantSLOTiersScenario(
            tiers=(
                TenantTier("a", CONVERSATION_WORKLOAD, share=0.5, slo_scale=5.0),
                TenantTier("b", CONVERSATION_WORKLOAD, share=0.2, slo_scale=5.0),
            )
        )


def test_spot_preemption_failure_schedule_sorted_and_bounded(cloud_cluster):
    scenario = SpotPreemptionScenario(duration=100.0, preemption_fractions=(0.7, 0.3))
    schedule = scenario.fault_schedule(cloud_cluster, seed=3)
    assert [e.time for e in schedule] == [30.0, 70.0]
    assert all(0 < e.time < 100.0 for e in schedule)
    assert all(e.kind is FaultKind.GPU_PREEMPTION for e in schedule)
    schedule.validate(scenario.duration, cloud_cluster)


def test_spot_preemption_pins_distinct_victims_deterministically(cloud_cluster):
    """Victims are drawn up front, in event order, never reusing a GPU."""
    scenario = SpotPreemptionScenario(
        duration=60.0, preemption_fractions=(0.2, 0.5, 0.8), gpus_per_preemption=5
    )
    schedule = scenario.fault_schedule(cloud_cluster, seed=11)
    assert schedule == scenario.fault_schedule(cloud_cluster, seed=11)
    victims = [g for event in schedule for g in event.gpu_ids]
    assert [len(e.gpu_ids) for e in schedule] == [5, 5, 5]
    assert len(set(victims)) == len(victims)
    assert set(victims) <= set(cloud_cluster.gpu_ids)


def test_spot_preemption_total_loss_omits_later_events(cloud_cluster):
    """The event that empties the cluster takes what is left; later ones vanish."""
    scenario = SpotPreemptionScenario(
        duration=60.0, preemption_fractions=(0.2, 0.5, 0.8), gpus_per_preemption=20
    )
    schedule = scenario.fault_schedule(cloud_cluster, seed=0)
    assert [len(e.gpu_ids) for e in schedule] == [20, cloud_cluster.num_gpus - 20]
    assert {g for e in schedule for g in e.gpu_ids} == set(cloud_cluster.gpu_ids)


def test_spot_preemption_count_above_cluster_rejected(cloud_cluster, model_30b, cloud_plan):
    scenario = SpotPreemptionScenario(
        duration=SMOKE_DURATION, gpus_per_preemption=cloud_cluster.num_gpus + 1
    )
    with pytest.raises(ConfigurationError, match="only has"):
        scenario.fault_schedule(cloud_cluster, seed=0)
    with pytest.raises(ConfigurationError, match="only has"):
        ScenarioSweep([scenario], seed=0).evaluate(cloud_cluster, model_30b, cloud_plan)


# ------------------------------------------------------------------- e2e smokes
@pytest.mark.integration
@pytest.mark.parametrize("scenario", smoke_scenarios(), ids=lambda s: s.name)
def test_serve_smoke_per_scenario(scenario, cloud_cluster, model_30b, cloud_plan):
    """Every scenario's trace must serve end-to-end on a real deployment plan."""
    system = ThunderServe(
        cloud_cluster,
        model_30b,
        scenario.planning_workload(),
        scenario.request_rate,
    )
    system.adopt_plan(cloud_plan)
    trace = scenario.build_trace(seed=3)
    result = system.serve(trace, label=scenario.name)
    assert result.num_requests == len(trace)
    assert result.num_finished > 0
    assert result.output_token_throughput > 0


@pytest.mark.integration
def test_scenario_sweep_end_to_end(cloud_cluster, model_30b, cloud_plan):
    """The sweep covers all scenarios, including failure injection."""
    sweep = ScenarioSweep(smoke_scenarios(), seed=0)
    outcomes = sweep.evaluate(cloud_cluster, model_30b, cloud_plan)
    assert set(outcomes) == set(list_scenarios())
    for name, outcome in outcomes.items():
        assert outcome.num_requests > 0, name
        assert outcome.num_finished > 0, name
        for value in (
            outcome.attainment_e2e, outcome.attainment_ttft, outcome.attainment_tpot
        ):
            assert 0.0 <= value <= 1.0, name
    spot = outcomes["spot-preemption"]
    assert spot.num_plan_changes == len(SpotPreemptionScenario().preemption_fractions)
    summary = ScenarioSweep.summarize(outcomes)
    assert summary["plan_changes"]["spot-preemption"] == spot.num_plan_changes
    assert summary["total_plan_changes"] == sum(o.num_plan_changes for o in outcomes.values())
    tenants = outcomes["multi-tenant"].per_tenant_attainment
    assert set(tenants) == {"gold", "silver", "bronze"}
    table = ScenarioSweep.to_table(outcomes)
    assert "spot-preemption" in table


def test_sweep_is_deterministic(cloud_cluster, model_30b, cloud_plan):
    """Same seed, same outcomes — scenario seeds are derived deterministically."""
    scenarios = [get_scenario("diurnal", duration=SMOKE_DURATION)]
    first = ScenarioSweep(scenarios, seed=9).evaluate(cloud_cluster, model_30b, cloud_plan)
    second = ScenarioSweep(scenarios, seed=9).evaluate(cloud_cluster, model_30b, cloud_plan)
    a, b = first["diurnal"], second["diurnal"]
    assert a.num_requests == b.num_requests
    assert a.attainment_e2e == b.attainment_e2e
    assert a.output_token_throughput == b.output_token_throughput


def _serve_like_sweep(sweep, scenario, cluster, model, plan, engine):
    """Serve ``scenario`` the way ``sweep`` does, on a system using ``engine``."""
    system = ThunderServe(
        cluster,
        model,
        scenario.planning_workload(),
        scenario.request_rate,
        slo=scenario.slo(model),
        simulator_config=SimulatorConfig(engine=engine),
    )
    system.adopt_plan(plan)
    trace = scenario.build_trace(seed=sweep._scenario_seed(scenario))
    schedule = scenario.fault_schedule(
        cluster, seed=sweep._derive_seed(scenario.name, "failures")
    ).validate(scenario.duration, cluster)
    if not len(schedule):
        return system.serve(trace, label=scenario.name), system, schedule
    result, _, _ = sweep._serve_with_failures(
        system, trace, schedule, scenario.name, mode=scenario.rescheduling_mode()
    )
    return result, system, schedule


def test_sweep_engines_agree_through_failure_windows(cloud_cluster, model_30b, cloud_plan):
    """Fast and reference simulator engines match on the sweep's serving paths,
    including the windowed failure-injection path (spot preemption reschedules
    between windows)."""
    scenarios = [
        get_scenario("spot-preemption", duration=SMOKE_DURATION),
        get_scenario("bursty", duration=SMOKE_DURATION),
    ]
    sweep = ScenarioSweep(scenarios, seed=4)
    for scenario in scenarios:
        runs = {
            engine: _serve_like_sweep(sweep, scenario, cloud_cluster, model_30b, cloud_plan, engine)
            for engine in ("fast", "reference")
        }
        (fast, fast_system, schedule), (ref, ref_system, _) = runs["fast"], runs["reference"]
        if scenario.name == "spot-preemption":
            assert len(schedule) > 0, "the failure path must be exercised"
            assert fast_system.plan == ref_system.plan
        assert fast.num_requests == ref.num_requests > 0, scenario.name
        assert fast.outcome_counts() == ref.outcome_counts(), scenario.name
        for ma, mb in zip(fast.metrics, ref.metrics):
            assert ma.completion_time == mb.completion_time
            assert ma.first_token_time == mb.first_token_time


def test_sweep_outcomes_independent_of_composition(cloud_cluster, model_30b, cloud_plan):
    """A scenario's outcome does not depend on the other scenarios in the sweep."""

    def key(outcome):
        fields = {k: v for k, v in vars(outcome).items() if k not in ("elapsed_s", "result")}
        rows = [
            (m.request.request_id, m.completion_time, m.first_token_time, m.outcome)
            for m in outcome.result.metrics
        ]
        return fields, rows

    spot = get_scenario("spot-preemption", duration=SMOKE_DURATION)
    diurnal = get_scenario("diurnal", duration=SMOKE_DURATION)
    alone = {}
    for s in (spot, diurnal):
        outcome = ScenarioSweep([s], seed=5).evaluate(cloud_cluster, model_30b, cloud_plan)
        alone[s.name] = key(outcome[s.name])
    for order in ([spot, diurnal], [diurnal, spot]):
        together = ScenarioSweep(order, seed=5).evaluate(cloud_cluster, model_30b, cloud_plan)
        assert {name: key(o) for name, o in together.items()} == alone


def test_sweep_propagates_scheduling_error(monkeypatch):
    """A scenario the plan cannot survive aborts the sweep with its error."""
    from repro.core.exceptions import SchedulingError

    scenarios = [
        get_scenario("diurnal", duration=SMOKE_DURATION),
        get_scenario("bursty", duration=SMOKE_DURATION),
    ]
    real_run = ScenarioSweep._run_one

    def failing_run(self, scenario, cluster, model, plan):
        if scenario.name == "bursty":
            raise SchedulingError("injected: rescheduling infeasible")
        return real_run(self, scenario, cluster, model, plan)

    monkeypatch.setattr(ScenarioSweep, "_run_one", failing_run)

    sweep = ScenarioSweep(scenarios, seed=2)
    with pytest.raises(SchedulingError, match="injected"):
        sweep.evaluate(*_tiny_serving_context())


_TINY_CONTEXT = {}


def _tiny_serving_context():
    """One shared (cluster, model, plan) for the sweep tests (built once)."""
    if not _TINY_CONTEXT:
        from repro.hardware.cluster import make_two_datacenter_cluster
        from repro.model.architecture import get_model_config

        cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
        model = get_model_config("llama-30b")
        scheduler = Scheduler(
            SchedulerConfig(
                tabu=TabuSearchConfig(num_steps=4, num_neighbors=3, memory_size=5, patience=3),
                seed=0,
            )
        )
        plan = scheduler.schedule(
            cluster, model, CONVERSATION_WORKLOAD, request_rate=3.0
        ).plan
        _TINY_CONTEXT["ctx"] = (cluster, model, plan)
    return _TINY_CONTEXT["ctx"]


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        ScenarioSweep.summarize({})


# ----------------------------------------------------------- plan-change counter
def test_plan_change_counter_zero_without_failures():
    """A scenario with no failure events reports exactly zero plan changes."""
    cluster, model, plan = _tiny_serving_context()
    scenario = get_scenario("diurnal", duration=SMOKE_DURATION)
    sweep = ScenarioSweep([scenario], seed=0)
    outcome = sweep._run_one(scenario, cluster, model, plan)
    assert outcome.num_plan_changes == 0


def test_plan_change_counter_never_negative_without_install_event(monkeypatch):
    """Counting is anchored at the adoption snapshot, not ``installs - 1``.

    A system that starts serving without a recorded ``plan_installed`` event
    (the old code subtracted a hard-coded 1 and went to -1 here) must report
    zero plan changes.
    """
    cluster, model, plan = _tiny_serving_context()

    def quiet_adopt(self, plan, reason="quiet"):
        # Install the plan without appending a ``plan_installed`` event,
        # emulating a pre-provisioned system that never went through
        # ``adopt_plan``/``deploy``.
        self.plan = plan
        self._simulator = None
        self.profiler.set_reference_from_spec(self.workload, self.request_rate)
        return plan

    monkeypatch.setattr(ThunderServe, "adopt_plan", quiet_adopt)
    scenario = get_scenario("diurnal", duration=SMOKE_DURATION)
    sweep = ScenarioSweep([scenario], seed=0)
    outcome = sweep._run_one(scenario, cluster, model, plan)
    assert outcome.num_plan_changes == 0, (
        f"plan-change counter went to {outcome.num_plan_changes} on a system "
        "with no prior install event"
    )


# ------------------------------------------------------- failure-window boundary
def _boundary_trace(times):
    """A tiny trace with one conversation-shaped request per arrival time."""
    from repro.core.types import Request
    from repro.workload.trace import Trace

    requests = [
        Request(
            request_id=i,
            arrival_time=t,
            input_length=128,
            output_length=16,
            workload="conversation",
        )
        for i, t in enumerate(times)
    ]
    return Trace(requests=requests, name="boundary")


@pytest.mark.parametrize("num_events", [1, 2])
def test_request_at_failure_time_served_exactly_once(
    num_events, cloud_cluster, model_30b, cloud_plan
):
    """A request arriving exactly at a fault event's time is served once.

    ``Trace.window`` is half-open ``[start, end)``: the pre-failure window
    excludes the boundary arrival and the post-failure window includes it.
    With two *coincident* failure events the middle window is empty and the
    request must still be served exactly once, after both events.  Each event
    preempts one GPU of a different prefill group, so the plan stays
    servable throughout.
    """
    boundary = 6.0
    trace = _boundary_trace([1.0, boundary - 0.5, boundary, boundary + 0.5, 10.0])
    system = ThunderServe(cloud_cluster, model_30b, CONVERSATION_WORKLOAD, request_rate=1.0)
    system.adopt_plan(cloud_plan)
    prefill_groups = cloud_plan.prefill_groups
    assert len(prefill_groups) > num_events, "the plan must keep a prefill group"
    victims = [group.gpu_ids[0] for group in prefill_groups[:num_events]]
    schedule = FaultSchedule.from_events(
        [FaultEvent(time=boundary, kind=FaultKind.GPU_PREEMPTION, gpu_ids=(g,)) for g in victims]
    )
    sweep = ScenarioSweep([get_scenario("diurnal", duration=SMOKE_DURATION)], seed=0)
    result, _, num_outages = sweep._serve_with_failures(
        system, trace, schedule, label="boundary"
    )
    assert result.num_requests == len(trace)
    assert num_outages == 0
    assert not set(victims) & {g for group in system.plan.groups for g in group.gpu_ids}
    served_ids = sorted(m.request.request_id for m in result.metrics)
    assert served_ids == [0, 1, 2, 3, 4], "every request served exactly once"
    assert all(m.finished for m in result.metrics)
    boundary_metrics = [m for m in result.metrics if m.request.arrival_time == boundary]
    assert len(boundary_metrics) == 1
    # The boundary request belongs to the *post*-failure window: it cannot have
    # started prefill before the failure instant.
    assert boundary_metrics[0].enqueue_time >= boundary


def test_count_based_event_can_reach_total_loss():
    """A count equal to the cluster size kills every GPU; nothing is clamped alive.

    Regression test: the random-victim path used to draw
    ``min(count, len(alive) - 1)`` victims, silently keeping one GPU alive
    and making total capacity loss unreachable from count-based events.  A
    count asking for the whole cluster must now take it down — every arrival
    after the event is a zero-attainment ``dropped_outage``.
    """
    cluster, model, plan = _tiny_serving_context()
    trace = _boundary_trace([1.0, 2.0, 6.5, 7.0])
    system = ThunderServe(cluster, model, CONVERSATION_WORKLOAD, request_rate=1.0)
    system.adopt_plan(plan)
    scenario = SpotPreemptionScenario(
        duration=SMOKE_DURATION,
        preemption_fractions=(0.5,),
        gpus_per_preemption=cluster.num_gpus,
    )
    schedule = scenario.fault_schedule(cluster, seed=0)
    assert sorted(schedule.events[0].gpu_ids) == sorted(cluster.gpu_ids)
    sweep = ScenarioSweep([scenario], seed=0)
    result, overhead_s, num_outages = sweep._serve_with_failures(
        system, trace, schedule, label="total-loss"
    )
    assert num_outages == 1
    assert overhead_s == 0.0, "nothing survived, so no replan was priced"
    assert result.num_requests == 4
    dropped = sorted(
        m.request.request_id
        for m in result.metrics
        if m.outcome is RequestOutcome.DROPPED_OUTAGE
    )
    assert dropped == [2, 3], "both post-outage arrivals are dropped"
    finished = sorted(m.request.request_id for m in result.metrics if m.finished)
    assert finished == [0, 1], "pre-outage arrivals still complete"


def test_sweep_retry_policy_none_inherits_engine_retries(
    cloud_cluster, model_30b, cloud_plan
):
    """The sweep sets no retry policy: preempted work gets the engine's default retries."""
    scenario = get_scenario("spot-preemption", duration=SMOKE_DURATION)
    counts = (
        ScenarioSweep([scenario], seed=3)
        .evaluate(cloud_cluster, model_30b, cloud_plan)[scenario.name]
        .outcome_counts
    )
    assert counts["retried_then_finished"] > 0


def test_sweep_rejects_non_capacity_fault_events():
    """The sweep's failure path serves capacity loss only; anything else is refused."""
    cluster, model, plan = _tiny_serving_context()
    system = ThunderServe(cluster, model, CONVERSATION_WORKLOAD, request_rate=1.0)
    system.adopt_plan(plan)
    schedule = FaultSchedule.from_events(
        [FaultEvent(time=6.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=0.5)]
    )
    sweep = ScenarioSweep([get_scenario("diurnal", duration=SMOKE_DURATION)], seed=0)
    with pytest.raises(ConfigurationError, match="capacity-loss"):
        sweep._serve_with_failures(system, _boundary_trace([1.0, 7.0]), schedule, label="link")
