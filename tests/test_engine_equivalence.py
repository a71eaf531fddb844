"""Seeded equivalence of the vectorized engine and the per-event reference.

The fast engine (struct-of-arrays decode state, coalesced decode epochs,
coalesced prefill epochs with precomputed KV handoffs, memoized latencies)
must be *indistinguishable* from the retained per-event reference
implementation: identical per-request metrics — bitwise, not approximately —
identical completion order and identical makespan, across random traces,
windowed (failure-style) serving, single-token outputs, horizon-truncated runs,
prompt-heavy traces on one and on two decode replicas, and every supported
prefill batch size (1, 4, 16).  Any
divergence here means the coalescing math drifted from the per-event semantics,
so the assertions are exact equality on raw floats.

The fault-timeline section extends the contract to in-engine preemption: under
a compiled :class:`~repro.faults.FaultTimeline` (replica deaths and revivals
mid-run) with a :class:`~repro.faults.RetryPolicy`, both engines must agree
bitwise on every timing column *and* on the typed outcome / attempt columns —
covering preemption during prefill, during decode, during KV transfer,
coincident with an arrival, fail → recover → fail cycles, total capacity loss,
drop-only policies, deadlines and horizon truncation — and every run must
conserve requests (each arrival maps to exactly one terminal outcome).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import Phase, Request
from repro.costmodel.reference import a100_reference_latency
from repro.faults.retry import RetryPolicy
from repro.faults.timeline import FaultTimeline, ReplicaFaultEvent
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.simulation.engine import ENGINES, ServingSimulator, SimulatorConfig
from repro.workload.generator import generate_requests
from repro.workload.spec import CONVERSATION_WORKLOAD, WorkloadSpec
from repro.workload.trace import Trace

# Property/equivalence suites are exhaustive by design; CI runs them in the
# dedicated slow job (-m "slow or integration") to keep the fast matrix quick.
pytestmark = pytest.mark.slow


CLUSTER = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
MODEL = get_model_config("llama-30b")


def _plan():
    a40 = [g.gpu_id for g in CLUSTER.gpus_of_type("A40")]
    ti = [g.gpu_id for g in CLUSTER.gpus_of_type("3090Ti")]
    solution = UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.DECODE)])
    solver = LowerLevelSolver(
        cluster=CLUSTER,
        model=MODEL,
        workload=CONVERSATION_WORKLOAD,
        slo=a100_reference_latency(MODEL, CONVERSATION_WORKLOAD).slo_spec(8.0),
        request_rate=3.0,
    )
    return solver.solve(solution).plan


PLAN = _plan()

# Multi-replica fixture for the fault-timeline suite: llama-7b fits a 4-group
# split (2 prefill, 2 decode) of the same cluster, and uniform routing (no LP
# routing attached) guarantees every replica actually carries traffic — an LP
# solution may concentrate all load on one replica, making its death vacuous.
MULTI_MODEL = get_model_config("llama-7b")


def _multi_plan():
    a40 = [g.gpu_id for g in CLUSTER.gpus_of_type("A40")]
    ti = [g.gpu_id for g in CLUSTER.gpus_of_type("3090Ti")]
    solution = UpperLevelSolution.from_lists(
        [
            (a40[: len(a40) // 2], Phase.PREFILL),
            (a40[len(a40) // 2 :], Phase.PREFILL),
            (ti[: len(ti) // 2], Phase.DECODE),
            (ti[len(ti) // 2 :], Phase.DECODE),
        ]
    )
    solver = LowerLevelSolver(
        cluster=CLUSTER,
        model=MULTI_MODEL,
        workload=CONVERSATION_WORKLOAD,
        slo=a100_reference_latency(MULTI_MODEL, CONVERSATION_WORKLOAD).slo_spec(8.0),
        request_rate=3.0,
    )
    plan = solver.solve(solution).plan
    return DeploymentPlan(
        groups=plan.groups,
        routing=None,
        model_name=plan.model_name,
        kv_transport_bits=plan.kv_transport_bits,
    )


MULTI_PLAN = _multi_plan()
MULTI_PREFILLS = tuple(g.group_id for g in MULTI_PLAN.prefill_groups)
MULTI_DECODES = tuple(g.group_id for g in MULTI_PLAN.decode_groups)

#: every timing / assignment field recorded per request
METRIC_FIELDS = (
    "enqueue_time",
    "prefill_start",
    "first_token_time",
    "kv_transfer_done",
    "completion_time",
    "prefill_replica",
    "decode_replica",
    "finished",
    "attempts",
)


#: prefill batch sizes the suite must hold at (single-request, moderate, burst)
PREFILL_BATCH_SIZES = (1, 4, 16)


def _run(
    trace, engine, seed=0, horizon=None, prefill_batch=None, plan=None,
    model=None, faults=None, retry=None,
):
    kwargs = {} if prefill_batch is None else {"max_prefill_batch_requests": prefill_batch}
    config = SimulatorConfig(seed=seed, engine=engine, max_sim_time=horizon, **kwargs)
    simulator = ServingSimulator(
        CLUSTER, plan if plan is not None else PLAN, model or MODEL, config=config
    )
    return simulator.run(trace, faults=faults, retry=retry)


def _assert_identical(fast, reference, check_makespan=True):
    assert len(fast.metrics) == len(reference.metrics)
    for a, b in zip(fast.metrics, reference.metrics):
        assert a.request.request_id == b.request.request_id
        for name in METRIC_FIELDS:
            assert getattr(a, name) == getattr(b, name), (
                f"request {a.request.request_id}: {name} "
                f"{getattr(a, name)!r} != {getattr(b, name)!r}"
            )
        assert a.resolved_outcome() == b.resolved_outcome(), (
            f"request {a.request.request_id}: outcome "
            f"{a.resolved_outcome()!r} != {b.resolved_outcome()!r}"
        )
    # Identical completion order, not just identical completion times.
    order_a = sorted(
        (m.completion_time, m.request.request_id) for m in fast.metrics if m.finished
    )
    order_b = sorted(
        (m.completion_time, m.request.request_id) for m in reference.metrics if m.finished
    )
    assert order_a == order_b
    if check_makespan:
        assert fast.makespan == reference.makespan


@given(
    median_in=st.integers(64, 1024),
    median_out=st.integers(2, 192),
    rate=st.floats(0.5, 8.0),
    seed=st.integers(0, 10_000),
    num_requests=st.integers(5, 40),
    prefill_batch=st.sampled_from(PREFILL_BATCH_SIZES),
)
@settings(max_examples=12, deadline=None)
def test_engines_identical_on_random_traces(
    median_in, median_out, rate, seed, num_requests, prefill_batch
):
    """Both engines produce bitwise-identical metrics on random workloads."""
    workload = WorkloadSpec(
        name="prop",
        median_input_length=float(median_in),
        median_output_length=float(median_out),
        input_sigma=0.3,
        output_sigma=0.5,
    )
    trace = generate_requests(workload, rate, num_requests=num_requests, seed=seed)
    _assert_identical(
        _run(trace, "fast", seed=seed, prefill_batch=prefill_batch),
        _run(trace, "reference", seed=seed, prefill_batch=prefill_batch),
    )


@pytest.mark.parametrize("prefill_batch", PREFILL_BATCH_SIZES)
@pytest.mark.parametrize("seed", [0, 7])
def test_engines_identical_with_single_token_outputs(seed, prefill_batch):
    """Single-token requests finish at prefill; mixing them in must not diverge."""
    rng = np.random.default_rng(seed)
    requests = []
    for k in range(30):
        requests.append(
            Request(
                request_id=k,
                arrival_time=float(rng.uniform(0.0, 10.0)),
                input_length=int(rng.integers(16, 512)),
                output_length=1 if k % 3 == 0 else int(rng.integers(2, 64)),
            )
        )
    trace = Trace(requests=requests, name="single-token-mix")
    _assert_identical(
        _run(trace, "fast", seed=seed, prefill_batch=prefill_batch),
        _run(trace, "reference", seed=seed, prefill_batch=prefill_batch),
    )


@pytest.mark.parametrize("prefill_batch", PREFILL_BATCH_SIZES)
@pytest.mark.parametrize("horizon", [0.5, 2.0, 8.0])
def test_engines_identical_under_horizon(horizon, prefill_batch):
    """Horizon-truncated runs record the same completions up to the cut."""
    trace = generate_requests(CONVERSATION_WORKLOAD, 6.0, num_requests=50, seed=11)
    fast = _run(trace, "fast", seed=1, horizon=horizon, prefill_batch=prefill_batch)
    reference = _run(trace, "reference", seed=1, horizon=horizon, prefill_batch=prefill_batch)
    _assert_identical(fast, reference)


#: prompt-heavy shape (RAG-like): inputs dominate, decodes are short
PROMPT_HEAVY_WORKLOAD = WorkloadSpec(
    name="prompt-heavy",
    median_input_length=2048.0,
    median_output_length=32.0,
    input_sigma=0.35,
    output_sigma=0.6,
)


@pytest.mark.parametrize("prefill_batch", PREFILL_BATCH_SIZES)
@pytest.mark.parametrize("seed", [0, 3, 9])
def test_engines_identical_on_prompt_heavy_traces(seed, prefill_batch):
    """Multi-request prefill batches produce bitwise-identical metrics.

    The prompt-heavy shape keeps the prefill replicas queued, so the fast
    engine's coalesced prefill epochs span several batches and the KV handoffs
    arrive as coalesced ``KV_BATCH`` cursors — all of which must be
    indistinguishable from the per-event engine.
    """
    trace = generate_requests(PROMPT_HEAVY_WORKLOAD, 8.0, num_requests=60, seed=seed)
    _assert_identical(
        _run(trace, "fast", seed=seed, prefill_batch=prefill_batch),
        _run(trace, "reference", seed=seed, prefill_batch=prefill_batch),
    )


@pytest.mark.parametrize("prefill_batch", (4, 16))
@pytest.mark.parametrize("rate", [12.0, 30.0])
def test_arrival_truncated_prefill_epochs_identical(prefill_batch, rate):
    """Arrivals landing mid-epoch truncate the planned tail without divergence.

    High arrival rates land many requests while prefill epochs are in flight,
    exercising the truncation rule (only a not-yet-started trailing underfull
    batch may be re-formed) plus the replan at the surviving batch boundary;
    horizon cuts layered on top must also agree.
    """
    trace = generate_requests(PROMPT_HEAVY_WORKLOAD, rate, num_requests=70, seed=21)
    _assert_identical(
        _run(trace, "fast", seed=2, prefill_batch=prefill_batch),
        _run(trace, "reference", seed=2, prefill_batch=prefill_batch),
    )
    fast = _run(trace, "fast", seed=2, prefill_batch=prefill_batch, horizon=4.0)
    reference = _run(trace, "reference", seed=2, prefill_batch=prefill_batch, horizon=4.0)
    _assert_identical(fast, reference)


def _assert_batches_split_across_decodes(result):
    """Some prefill batch handed its KV to more than one decode replica.

    Rows of one batch share their prefill replica and first-token time, so a
    batch whose rows carry different decode replicas proves the per-target
    grouping of the KV handoff was exercised.
    """
    targets = {}
    for m in result.metrics:
        if m.request.output_length > 1:
            key = (m.prefill_replica, m.first_token_time)
            targets.setdefault(key, set()).add(m.decode_replica)
    assert any(len(t) > 1 for t in targets.values())


@pytest.mark.parametrize("prefill_batch", PREFILL_BATCH_SIZES)
@pytest.mark.parametrize("seed", [0, 3, 9])
def test_multi_decode_prompt_heavy_traces_identical(seed, prefill_batch):
    """Fault-free KV handoffs split across two decode replicas stay bitwise.

    The two-prefill / two-decode plan makes every epoch group its handoffs
    per decode target and sort each group by arrival time; without a fault
    timeline nothing else exercises that grouping on several targets.
    """
    trace = generate_requests(PROMPT_HEAVY_WORKLOAD, 8.0, num_requests=60, seed=seed)
    kwargs = dict(seed=seed, prefill_batch=prefill_batch, plan=MULTI_PLAN, model=MULTI_MODEL)
    fast = _run(trace, "fast", **kwargs)
    _assert_identical(fast, _run(trace, "reference", **kwargs))
    if prefill_batch > 1:
        _assert_batches_split_across_decodes(fast)


@pytest.mark.parametrize("prefill_batch", (4, 16))
@pytest.mark.parametrize("rate", [12.0, 30.0])
def test_multi_decode_arrival_truncated_prefill_epochs_identical(prefill_batch, rate):
    """Arrival truncation of multi-batch epochs over two decode replicas."""
    trace = generate_requests(PROMPT_HEAVY_WORKLOAD, rate, num_requests=70, seed=21)
    kwargs = dict(seed=2, prefill_batch=prefill_batch, plan=MULTI_PLAN, model=MULTI_MODEL)
    fast = _run(trace, "fast", **kwargs)
    _assert_identical(fast, _run(trace, "reference", **kwargs))
    _assert_batches_split_across_decodes(fast)
    _assert_identical(
        _run(trace, "fast", horizon=4.0, **kwargs),
        _run(trace, "reference", horizon=4.0, **kwargs),
    )


def test_engines_identical_across_windows():
    """Windowed serving (the failure-scenario pattern) matches window by window.

    Also covers simulator reuse: each engine serves every window on one
    simulator instance, which must equal a freshly built simulator per window.
    """
    trace = generate_requests(CONVERSATION_WORKLOAD, 5.0, num_requests=60, seed=3)
    edges = [0.0, 4.0, 9.0, float("inf")]
    sims = {
        engine: ServingSimulator(
            CLUSTER, PLAN, MODEL, config=SimulatorConfig(seed=0, engine=engine)
        )
        for engine in ENGINES
    }
    for start, end in zip(edges[:-1], edges[1:]):
        window = trace.window(start, end)
        if window.is_empty:
            continue
        reused_fast = sims["fast"].run(window)
        reused_reference = sims["reference"].run(window)
        fresh_fast = _run(window, "fast")
        _assert_identical(reused_fast, reused_reference)
        _assert_identical(reused_fast, fresh_fast)


def test_engine_config_validated():
    assert SimulatorConfig().engine == "fast"
    with pytest.raises(ValueError):
        SimulatorConfig(engine="warp")


def test_heavy_load_blocked_admissions_identical():
    """Saturating load exercises blocked pending queues and truncated epochs."""
    workload = WorkloadSpec(
        name="heavy",
        median_input_length=1024.0,
        median_output_length=256.0,
        input_sigma=0.2,
        output_sigma=0.3,
    )
    trace = generate_requests(workload, 12.0, num_requests=60, seed=5)
    _assert_identical(_run(trace, "fast", seed=2), _run(trace, "reference", seed=2))


# --------------------------------------------------------------------------- faults
#: retry policy with non-zero jitter — zero jitter can create measure-zero ties
#: between retry times and unrelated simulation events, which the equivalence
#: contract deliberately leaves unspecified
RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.3, jitter=0.1)


def _fault_trace(seed=3, rate=6.0, num_requests=60):
    return generate_requests(CONVERSATION_WORKLOAD, rate, num_requests=num_requests, seed=seed)


def _both(trace, faults, retry=RETRY, seed=0, horizon=None, require_terminal=True):
    """Run both engines under one fault timeline; assert identity + conservation."""
    fast = _run(
        trace, "fast", seed=seed, horizon=horizon,
        plan=MULTI_PLAN, model=MULTI_MODEL, faults=faults, retry=retry,
    )
    reference = _run(
        trace, "reference", seed=seed, horizon=horizon,
        plan=MULTI_PLAN, model=MULTI_MODEL, faults=faults, retry=retry,
    )
    _assert_identical(fast, reference)
    fast.assert_outcome_conservation(require_terminal=require_terminal)
    reference.assert_outcome_conservation(require_terminal=require_terminal)
    return fast


def test_fault_prefill_death_mid_run_identical():
    """A prefill replica dying mid-run preempts queued/batched work identically."""
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=2.0, dead_prefill=(MULTI_PREFILLS[0],))]
    )
    result = _both(_fault_trace(), timeline)
    counts = result.outcome_counts()
    assert counts["retried_then_finished"] > 0  # non-vacuous: work was preempted
    assert counts["pending"] == 0


def test_fault_decode_death_mid_run_identical():
    """A decode replica dying mid-run preempts active decodes and in-flight KV.

    By the fault instant some requests have finished prefill and their KV is
    either in transfer to the dead replica or already decoding on it — both
    must restart from scratch (lost KV) on the survivor, identically.
    """
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=2.5, dead_decode=(MULTI_DECODES[0],))]
    )
    result = _both(_fault_trace(), timeline)
    counts = result.outcome_counts()
    assert counts["retried_then_finished"] > 0
    survivors = {m.decode_replica for m in result.metrics if m.attempts > 0}
    assert survivors <= {MULTI_DECODES[1]}  # retries rerouted off the dead replica


def test_fault_coincident_with_arrival_identical():
    """A fault at the exact instant of an arrival keeps the tie rule aligned.

    Fault entries win exact-time ties in both engines: the arrival must be
    routed against the post-fault alive set (or disposed if routed dead).
    """
    trace = _fault_trace(seed=9)
    t = trace[len(trace) // 2].arrival_time
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=t, dead_prefill=(MULTI_PREFILLS[1],))]
    )
    result = _both(trace, timeline)
    assert result.outcome_counts()["retried_then_finished"] > 0


def test_fault_fail_recover_fail_cycle_identical():
    """A replica that dies, revives fresh and dies again stays bitwise-aligned."""
    victim = MULTI_PREFILLS[0]
    timeline = FaultTimeline(
        events=[
            ReplicaFaultEvent(time=1.5, dead_prefill=(victim,)),
            ReplicaFaultEvent(time=3.0, revived_prefill=(victim,)),
            ReplicaFaultEvent(time=5.0, dead_prefill=(victim,)),
        ]
    )
    result = _both(_fault_trace(num_requests=80), timeline)
    assert result.outcome_counts()["retried_then_finished"] > 0


def test_fault_total_loss_drops_everything_identically():
    """Killing every replica leaves no survivor: all in-flight work drops out."""
    timeline = FaultTimeline(
        events=[
            ReplicaFaultEvent(
                time=2.0, dead_prefill=MULTI_PREFILLS, dead_decode=MULTI_DECODES
            )
        ]
    )
    result = _both(_fault_trace(), timeline)
    counts = result.outcome_counts()
    assert counts["dropped_outage"] > 0
    assert counts["retried_then_finished"] == 0  # nowhere to retry to
    assert counts["finished"] + counts["dropped_outage"] == result.num_requests


def test_fault_drop_only_policy_identical():
    """``RetryPolicy.drop_only()``: any preemption is terminal, identically."""
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=2.0, dead_prefill=(MULTI_PREFILLS[0],))]
    )
    result = _both(_fault_trace(), timeline, retry=RetryPolicy.drop_only())
    counts = result.outcome_counts()
    assert counts["dropped_outage"] > 0
    assert counts["retried_then_finished"] == 0
    assert all(m.attempts <= 1 for m in result.metrics)


def test_fault_deadline_times_out_identically():
    """A tight per-request deadline turns late retries into ``timed_out``."""
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=2.0, dead_prefill=(MULTI_PREFILLS[0],))]
    )
    # backoff 2.0s always exceeds a 1.5s deadline measured from arrival, so
    # every victim whose retry is scheduled must time out instead.
    policy = RetryPolicy(max_retries=3, backoff_base_s=2.0, jitter=0.1, deadline_s=1.5)
    result = _both(_fault_trace(), timeline, retry=policy)
    assert result.outcome_counts()["timed_out"] > 0


@pytest.mark.parametrize("horizon", [1.0, 3.0])
def test_fault_under_horizon_identical(horizon):
    """Horizon truncation layered over a fault timeline stays aligned."""
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=0.8, dead_prefill=(MULTI_PREFILLS[0],))]
    )
    _both(_fault_trace(), timeline, horizon=horizon, require_terminal=False)


def _random_timeline(rng):
    """Random death/revival storm over the multi-replica plan's groups."""
    events = []
    dead_p, dead_d = set(), set()
    t = 0.0
    for _ in range(int(rng.integers(1, 4))):
        t += float(rng.uniform(0.5, 3.0))
        kill_p = [g for g in MULTI_PREFILLS if g not in dead_p and rng.random() < 0.4]
        kill_d = [g for g in MULTI_DECODES if g not in dead_d and rng.random() < 0.3]
        revive_p = [g for g in sorted(dead_p) if rng.random() < 0.5]
        revive_d = [g for g in sorted(dead_d) if rng.random() < 0.5]
        event = ReplicaFaultEvent(
            time=t,
            dead_prefill=tuple(kill_p),
            dead_decode=tuple(kill_d),
            revived_prefill=tuple(revive_p),
            revived_decode=tuple(revive_d),
        )
        if not event.noop:
            events.append(event)
            dead_p = (dead_p | set(kill_p)) - set(revive_p)
            dead_d = (dead_d | set(kill_d)) - set(revive_d)
    return FaultTimeline(events=events)


@given(
    fault_seed=st.integers(0, 10_000),
    seed=st.integers(0, 1_000),
    rate=st.floats(2.0, 10.0),
    num_requests=st.integers(20, 60),
)
@settings(max_examples=12, deadline=None)
def test_request_conservation_under_random_fault_timelines(
    fault_seed, seed, rate, num_requests
):
    """Property: no arrival is duplicated or lost under random fault storms,
    both engines agree bitwise, and the same seed replays identically."""
    timeline = _random_timeline(np.random.default_rng(fault_seed))
    trace = generate_requests(
        CONVERSATION_WORKLOAD, rate, num_requests=num_requests, seed=seed
    )
    fast = _both(trace, timeline if timeline else None, seed=seed % 97)
    # Same seed => bitwise-identical outcome arrays on an independent replay.
    replay = _run(
        trace, "fast", seed=seed % 97,
        plan=MULTI_PLAN, model=MULTI_MODEL, faults=timeline if timeline else None,
        retry=RETRY,
    )
    assert fast.arrays is not None and replay.arrays is not None
    np.testing.assert_array_equal(fast.arrays.outcome, replay.arrays.outcome)
    np.testing.assert_array_equal(fast.arrays.attempts, replay.arrays.attempts)
    np.testing.assert_array_equal(
        fast.arrays.completion_time, replay.arrays.completion_time
    )
