"""Exact-time ties: the fast engine's event heap against the per-event oracle.

The fast engine orders its heap entries by ``(time, seq)`` with ``seq`` drawn
from one push counter, as the reference engine's ``EventQueue`` does, and a
decode replica replays its log of KV deliveries sorted stably by arrival, so
same-time deliveries keep their handoff order.  Those rules only matter when
two events share a time, so these properties generate traces full of
exact-time ties:

* repeated arrival stamps (zero gaps on a 0.25 s grid);
* shared output lengths, so finishers share a decode step;
* single-token outputs, which complete at the prefill instant;
* fault entries stamped on the arrival grid, so deaths and revivals tie with
  arrivals;
* two identical prefill replicas, whose same-instant batches hand off KV
  caches at the same instant, onto decode replicas that can be capped at
  three running requests.

Each trace is streamed through the fast engine in random chunk splits (1-row
chunks included) and must agree bitwise with the reference engine on every
metric column and on the makespan.

The same check covers the fast engine's epoch boundaries: pinned cases for
one-batch prefill epochs (single-token rows, a batch handing off to both
decode replicas, an arrival or a death at the exact completion instant), and
a property over long outputs under KV pressure, whose decode epochs run for
thousands of steps and are cut short by arrivals that do and do not fit.
Pinned cases also cover the edges of the decode replay: a death at the
instant of a logged delivery, a fault after the last heap event, a horizon
between a delivery and its admission, and a log that reaches its bound.
Last, KV deliveries that land exactly on a step boundary, mid-epoch and at
the epoch end, handed off before, after and exactly at the boundary before:
the per-event engine admits such a delivery at that boundary only when it
pops the delivery before the step.
"""

import numpy as np
import pytest
from conftest import assert_same_result
from hypothesis import given, settings, strategies as st

from repro.core.types import Phase
from repro.costmodel.latency import ReplicaCostModel
from repro.costmodel.reference import a100_reference_latency
from repro.faults.retry import RetryPolicy
from repro.faults.timeline import FaultTimeline, ReplicaFaultEvent
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.simulation import engine
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import MetricArrays
from repro.workload.spec import CONVERSATION_WORKLOAD
from repro.workload.trace import RequestArrays

CLUSTER = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
MODEL = get_model_config("llama-7b")
RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.25, jitter=0.0)
#: arrival and fault grid step (seconds); exact in binary, so stamps repeat
STAMP = 0.25


def _plan(split_prefill: bool = True) -> DeploymentPlan:
    """Two decode replicas, and two prefill replicas (or one), uniform routing."""
    a40 = [g.gpu_id for g in CLUSTER.gpus_of_type("A40")]
    ti = [g.gpu_id for g in CLUSTER.gpus_of_type("3090Ti")]
    prefill = [(a40[:2], Phase.PREFILL), (a40[2:], Phase.PREFILL)]
    if not split_prefill:
        prefill = [(a40, Phase.PREFILL)]
    solution = UpperLevelSolution.from_lists(
        [*prefill, (ti[:2], Phase.DECODE), (ti[2:], Phase.DECODE)]
    )
    plan = LowerLevelSolver(
        cluster=CLUSTER,
        model=MODEL,
        workload=CONVERSATION_WORKLOAD,
        slo=a100_reference_latency(MODEL, CONVERSATION_WORKLOAD).slo_spec(8.0),
        request_rate=3.0,
    ).solve(solution).plan
    return DeploymentPlan(
        groups=plan.groups,
        routing=None,
        model_name=plan.model_name,
        kv_transport_bits=plan.kv_transport_bits,
    )


PLAN = _plan()
#: one prefill replica, so every arrival queues on the same batch chain
SOLO_PLAN = _plan(split_prefill=False)
PREFILLS = tuple(g.group_id for g in PLAN.prefill_groups)
DECODES = tuple(g.group_id for g in PLAN.decode_groups)


@st.composite
def _timelines(draw, last_tick: int):
    """Deaths and revivals on the arrival grid, every entry a real change."""
    ticks = sorted(draw(st.sets(st.integers(0, last_tick + 8), max_size=3)))
    events, dead_p, dead_d = [], set(), set()
    for tick in ticks:
        flip_p = {g for g in PREFILLS if draw(st.booleans())}
        flip_d = {g for g in DECODES if draw(st.booleans())}
        event = ReplicaFaultEvent(
            time=tick * STAMP,
            dead_prefill=tuple(flip_p - dead_p),
            dead_decode=tuple(flip_d - dead_d),
            revived_prefill=tuple(flip_p & dead_p),
            revived_decode=tuple(flip_d & dead_d),
        )
        if not event.noop:
            events.append(event)
            dead_p ^= flip_p
            dead_d ^= flip_d
    return FaultTimeline(events=events) if events else None


def _chunk_split(draw, arrays: RequestArrays):
    """``arrays`` cut into a random sequence of chunks (1-row chunks included)."""
    n = len(arrays)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    return [arrays.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


@st.composite
def tie_cases(draw):
    """A tie-heavy trace, its chunk split, an optional timeline and a config."""
    n = draw(st.integers(1, 40))
    ticks = np.cumsum(draw(st.lists(st.sampled_from((0, 0, 0, 1, 4)), min_size=n, max_size=n)))
    ids = list(range(n))
    if draw(st.booleans()):
        ids = draw(st.permutations(ids))
    arrays = RequestArrays(
        request_id=np.asarray(ids, dtype=np.int64),
        arrival_time=ticks * STAMP,
        input_length=draw(st.lists(st.sampled_from((16, 128, 512)), min_size=n, max_size=n)),
        output_length=draw(st.lists(st.sampled_from((1, 2, 24)), min_size=n, max_size=n)),
        workload="ties",
    )
    chunks = _chunk_split(draw, arrays)
    timeline = draw(st.none() | _timelines(int(ticks[-1])))
    config = dict(
        seed=draw(st.integers(0, 50)),
        max_prefill_batch_requests=draw(st.sampled_from((1, 4, 16))),
        # 16 K-token blocks leave each decode replica three admission slots,
        # so the order of same-instant KV arrivals decides who waits.
        kv_block_size=draw(st.sampled_from((16, 16384))),
    )
    return arrays, chunks, timeline, config


def _simulator(engine: str, config: dict, plan: DeploymentPlan = PLAN) -> ServingSimulator:
    return ServingSimulator(CLUSTER, plan, MODEL, config=SimulatorConfig(engine=engine, **config))


def _assert_fast_equals_reference(
    case, plan: DeploymentPlan = PLAN, retry: RetryPolicy = RETRY
) -> MetricArrays:
    """Run ``case`` through both engines, assert bitwise equality, return the columns."""
    arrays, chunks, timeline, config = case
    fast = _simulator("fast", config, plan).run_stream(chunks, faults=timeline, retry=retry)
    reference = _simulator("reference", config, plan).run(
        arrays.to_trace(), faults=timeline, retry=retry
    )
    assert_same_result(fast, reference)
    return fast.arrays


def test_same_instant_kv_handoffs_keep_push_order():
    """Same-instant KV deliveries replay in handoff order.

    27 requests arrive at t = 0 and split over the two identical prefill
    replicas, so their batches finish, and hand KV caches off, at the same
    instants.  With three admission slots per decode replica, the pending
    queue's order decides who runs first: a log sorted by anything but a
    stable sort on arrival would queue one batch's rows behind the other's.
    """
    n = 27
    input_length = np.full(n, 16)
    input_length[[4, 7]] = 512
    arrays = RequestArrays(
        request_id=np.arange(n),
        arrival_time=np.zeros(n),
        input_length=input_length,
        output_length=[1, 1, 24, 24, 2, 1, 1, 2] + [1] * (n - 8),
        workload="ties",
    )
    config = dict(seed=29, max_prefill_batch_requests=4, kv_block_size=16384)
    _assert_fast_equals_reference((arrays, [arrays], None, config))


@given(case=tie_cases())
@settings(max_examples=20, deadline=None)
def test_tie_heavy_streams_match_reference(case):
    """Property: tie-heavy traces stream through the fast engine bitwise."""
    _assert_fast_equals_reference(case)


@pytest.mark.slow
@given(case=tie_cases())
@settings(max_examples=300, deadline=None)
def test_tie_heavy_streams_match_reference_exhaustive(case):
    """The same property over many more generated traces."""
    _assert_fast_equals_reference(case)


# ------------------------------------------------------------- prefill epochs


def _requests(arrival_time, output_length, input_length=16) -> RequestArrays:
    n = len(arrival_time)
    return RequestArrays(
        request_id=np.arange(n),
        arrival_time=np.asarray(arrival_time, dtype=np.float64),
        input_length=np.broadcast_to(np.asarray(input_length, dtype=np.int64), (n,)),
        output_length=output_length,
        workload="ties",
    )


def _fast_columns(arrays: RequestArrays, config: dict, plan: DeploymentPlan = PLAN) -> MetricArrays:
    return _simulator("fast", config, plan).run_stream([arrays]).arrays


def test_one_batch_epochs_with_single_token_rows():
    """One-batch epochs finish single-token rows at prefill, beside handoffs.

    Request 0 finds the replica idle and runs alone; requests 1-3 queue
    behind it and form one mixed batch; request 4 finds the replica idle
    again.
    """
    arrays = _requests([0.0, 0.0, 0.0, 0.0, 2.0], [1, 24, 1, 2, 1])
    config = dict(seed=3, max_prefill_batch_requests=16, kv_block_size=16)
    a = _assert_fast_equals_reference((arrays, [arrays], None, config), SOLO_PLAN)
    assert a.prefill_start[0] < a.prefill_start[1] == a.prefill_start[2] == a.prefill_start[3]
    single = a.output_length == 1
    assert np.array_equal(a.completion_time[single], a.first_token_time[single])
    assert a.finished.all()


def test_one_batch_hands_off_to_both_decode_replicas():
    """One prefill batch whose KV caches go to both decode replicas."""
    arrays = _requests([0.0] * 9, [24] * 9, input_length=[16, 512, 16, 512, 16, 512, 16, 512, 16])
    config = dict(seed=0, max_prefill_batch_requests=16, kv_block_size=16)
    a = _assert_fast_equals_reference((arrays, [arrays], None, config), SOLO_PLAN)
    assert len(set(a.prefill_start[1:].tolist())) == 1  # requests 1-8 share one batch
    assert set(a.decode_replica[1:].tolist()) == {g.group_id for g in SOLO_PLAN.decode_groups}


@pytest.mark.parametrize("boundary", ["one-batch completion", "next batch start"])
def test_arrival_exactly_at_batch_completion(boundary):
    """An arrival at the exact instant a batch completes joins the next batch.

    Request 0 runs alone and completes at ``d0``; requests 1-3 queued behind
    it form ``[1, 2]`` and the underfull ``[3]``, which starts at ``d1``.
    Request 4 arrives at exactly ``d0`` or exactly ``d1``: arrivals win
    exact-time ties, so it is queued before the completion is processed and
    the per-event engine batches it with request 3.
    """
    config = dict(seed=1, max_prefill_batch_requests=2, kv_block_size=16)
    probe = _fast_columns(_requests([0.0] * 4, [24] * 4), config, SOLO_PLAN)
    d0, d1 = float(probe.first_token_time[0]), float(probe.first_token_time[1])
    late = d0 if boundary == "one-batch completion" else d1
    arrays = _requests([0.0] * 4 + [late], [24] * 5)
    a = _assert_fast_equals_reference((arrays, [arrays], None, config), SOLO_PLAN)
    assert a.first_token_time[0] == d0 and a.prefill_start[3] == a.prefill_start[4] == d1


@pytest.mark.parametrize("phase", ["prefill", "decode"])
def test_replica_death_at_batch_completion(phase):
    """A death at a one-batch epoch's completion instant wins the tie.

    A dead prefill replica loses the batch; a dead decode target leaves the
    KV cache nowhere to land.  Either way request 0 is disposed at that
    instant and retried elsewhere.
    """
    config = dict(seed=2, max_prefill_batch_requests=16, kv_block_size=16)
    arrays = _requests([0.0, 0.5], [24, 24])
    probe = _fast_columns(arrays, config)
    done = float(probe.first_token_time[0])
    group = int(probe.prefill_replica[0] if phase == "prefill" else probe.decode_replica[0])
    dead = dict(dead_prefill=(group,)) if phase == "prefill" else dict(dead_decode=(group,))
    back = dict(revived_prefill=(group,)) if phase == "prefill" else dict(revived_decode=(group,))
    timeline = FaultTimeline(
        events=[
            ReplicaFaultEvent(time=done, **dead),
            ReplicaFaultEvent(time=done + 4.0, **back),
        ]
    )
    a = _assert_fast_equals_reference((arrays, [arrays], timeline, config))
    assert a.attempts[0] == 1 and a.finished[0]


def test_equal_time_completions_on_two_replicas_hand_off_in_push_order():
    """Batches completing at one instant on two replicas keep per-event order.

    The two identical prefill replicas run chains of one-request batches
    that drift into step: requests 32 and 36 complete their prefills on
    different replicas at the same instant and hand off to the same decode
    replica at the same instant.  The per-event engine pushes each
    ``PREFILL_DONE`` when the replica's previous batch completes, so
    whichever chain completed first there hands off first; a fast engine
    pushing every batch of an epoch at plan time would order them by plan
    time instead, and admit the other request first.
    """
    input_length = [16] * 37
    input_length[30] = input_length[31] = 128
    output_length = [1] * 37
    output_length[32] = output_length[36] = 2
    arrays = _requests([0.0] * 27 + [1.0] * 10, output_length, input_length)
    config = dict(seed=19, max_prefill_batch_requests=1, kv_block_size=16)
    a = _assert_fast_equals_reference((arrays, [arrays], None, config))
    assert a.first_token_time[32] == a.first_token_time[36]
    assert a.kv_transfer_done[32] == a.kv_transfer_done[36]
    assert a.decode_replica[32] == a.decode_replica[36]
    assert a.prefill_replica[32] != a.prefill_replica[36]


# ------------------------------------------------------ long decode epochs

#: output lengths up to well past 4096, the longest decode epoch the fast
#: engine once planned, beside short and single-token ones
LONG_OUTPUTS = (1, 2, 24, 300, 4500, 8200)


@st.composite
def long_output_cases(draw):
    """Long outputs under KV pressure, arrivals landing mid-epoch."""
    n = draw(st.integers(1, 8))
    ticks = np.cumsum(draw(st.lists(st.sampled_from((0, 1, 12, 80)), min_size=n, max_size=n)))
    arrays = RequestArrays(
        request_id=np.arange(n),
        arrival_time=ticks * STAMP,
        input_length=draw(st.lists(st.sampled_from((16, 512, 2048)), min_size=n, max_size=n)),
        output_length=draw(st.lists(st.sampled_from(LONG_OUTPUTS), min_size=n, max_size=n)),
        workload="long",
    )
    chunks = _chunk_split(draw, arrays)
    timeline = draw(st.none() | _timelines(int(ticks[-1])))
    config = dict(
        seed=draw(st.integers(0, 50)),
        max_prefill_batch_requests=draw(st.sampled_from((1, 4, 16))),
        # 16 K-token blocks leave three admission slots per decode replica;
        # 16-token blocks fit five of the longest requests.
        kv_block_size=draw(st.sampled_from((16, 16384))),
    )
    return arrays, chunks, timeline, config


def test_truncated_wakes_with_and_without_admission(monkeypatch):
    """Epochs past 4096 steps, truncated by arrivals that do and do not fit.

    Eight 5000-token answers arrive one second apart onto decode replicas
    with three admission slots.  An arrival truncates the running epoch at
    the next step boundary; while a slot is free it is admitted there and
    the epoch is re-priced, and once the slots are taken it is not, and the
    old epoch runs on as it was.  Both kinds of truncated wake must land on
    an epoch longer than 4096 steps.

    The wakes run inside the replay, so they are read off the replica's
    state around each replay: one-row chunks make the engine replay up to
    each next arrival.  A replay that applied steps (``steps_done`` grew)
    without reaching the running epoch's end (``epoch_len`` before it)
    woke only where a delivery truncated the epoch.  If the batch grew
    there, the delivery was admitted.  If it did not, the epoch ran on:
    its remaining length is the old one less the steps applied.
    """
    replays = []
    replay = ServingSimulator._decode_until

    def spy(self, replica, stop):
        before = (replica.stepping, replica.epoch_len, replica.steps_done, len(replica.heap))
        replay(self, replica, stop)
        replays.append((*before, replica.epoch_len, replica.steps_done, len(replica.heap)))

    monkeypatch.setattr(ServingSimulator, "_decode_until", spy)
    arrays = _requests([4 * STAMP * k for k in range(8)], [5000] * 8, input_length=512)
    config = dict(seed=4, max_prefill_batch_requests=16, kv_block_size=16384)
    chunks = [arrays.slice(k, k + 1) for k in range(len(arrays))]
    _assert_fast_equals_reference((arrays, chunks, None, config))
    kinds = set()
    for stepping, length, done, running, length_after, done_after, running_after in replays:
        applied = done_after - done
        if stepping and length > 4096 and 0 < applied < length:
            admitted = running_after > running
            assert admitted or length_after == length - applied
            kinds.add(admitted)
    assert kinds == {True, False}


@given(case=long_output_cases())
@settings(max_examples=6, deadline=None)
def test_long_outputs_match_reference(case):
    """Property: long outputs under KV pressure stream through bitwise."""
    _assert_fast_equals_reference(case)


@pytest.mark.slow
@given(case=long_output_cases())
@settings(max_examples=60, deadline=None)
def test_long_outputs_match_reference_exhaustive(case):
    """The same property over many more generated traces."""
    _assert_fast_equals_reference(case)


# ------------------------------------------------------------ decode replay


def _same_decode_seed(arrays: RequestArrays, config: dict, rows=(0, 1)) -> dict:
    """``config`` with the first routing seed that sends ``rows`` to one decode replica."""
    for seed in range(64):
        probe = _fast_columns(arrays, dict(config, seed=seed))
        if len(set(probe.decode_replica[list(rows)].tolist())) == 1:
            return dict(config, seed=seed)
    raise AssertionError("no seed routes the rows to one decode replica")


def test_decode_death_at_a_logged_delivery_instant():
    """A death at the exact arrival instant of a KV delivery: the fault wins.

    The delivery is still in flight, so the request is disposed with no KV
    arrival stamped; under the drop-only policy it keeps that partial stamp.
    """
    config = dict(seed=2, max_prefill_batch_requests=16, kv_block_size=16)
    arrays = _requests([0.0, 0.5], [24, 24])
    probe = _fast_columns(arrays, config)
    arrival = float(probe.kv_transfer_done[0])
    assert probe.first_token_time[0] < arrival
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=arrival, dead_decode=(int(probe.decode_replica[0]),))]
    )
    a = _assert_fast_equals_reference(
        (arrays, [arrays], timeline, config), retry=RetryPolicy.drop_only()
    )
    assert not a.finished[0] and a.first_token_time[0] > 0.0
    assert a.kv_transfer_done[0] == 0.0


def _long_answer_death(config: dict):
    """One 300-token answer, and a death of its decode replica mid-decode."""
    arrays = _requests([0.0], [300])
    probe = _fast_columns(arrays, config)
    arrival, done = float(probe.kv_transfer_done[0]), float(probe.completion_time[0])
    death = (arrival + done) / 2
    timeline = FaultTimeline(
        events=[ReplicaFaultEvent(time=death, dead_decode=(int(probe.decode_replica[0]),))]
    )
    return arrays, probe, arrival, death, timeline


def test_fault_after_the_last_heap_event_kills_a_decoding_replica():
    """A death while only a decode replica is still working is applied.

    Once the answer's KV cache has landed, no arrival, batch or retry is left
    on the heap, and the replica dies mid-decode.  The request is retried on
    the surviving decode replica and finishes there.
    """
    config = dict(seed=1, max_prefill_batch_requests=16, kv_block_size=16)
    arrays, probe, _, _, timeline = _long_answer_death(config)
    a = _assert_fast_equals_reference((arrays, [arrays], timeline, config))
    assert a.attempts[0] == 1 and a.finished[0]
    assert a.decode_replica[0] != probe.decode_replica[0]


def test_decode_death_advances_the_clock_through_fired_steps():
    """The steps that fired before a death can be the run's last events.

    The answer is dropped at the death, a second request would arrive after
    the horizon, and the horizon falls just after the death: the makespan is
    the last step boundary before the death, which only the death's replay
    reaches.
    """
    config = dict(seed=1, max_prefill_batch_requests=16, kv_block_size=16)
    _, _, arrival, death, timeline = _long_answer_death(config)
    horizon = death + 0.01
    arrays = _requests([0.0, horizon + 1.0], [300, 24])
    config = dict(config, max_sim_time=horizon)
    drop = RetryPolicy.drop_only()
    fast = _simulator("fast", config).run_stream([arrays], faults=timeline, retry=drop)
    reference = _simulator("reference", config).run(arrays.to_trace(), faults=timeline, retry=drop)
    assert_same_result(fast, reference)
    assert len(fast.arrays.request_id) == 1 and not fast.arrays.finished[0]
    assert arrival < fast.makespan < death


@pytest.mark.parametrize("at", ["arrival", "just after"])
def test_horizon_between_a_delivery_and_its_admission(at):
    """A horizon after a delivery but before the boundary that admits it.

    Request 1's KV cache lands while request 0 decodes on the same replica,
    so it waits for the next step boundary.  A horizon at (or just after)
    the delivery keeps the delivery and cuts the admission.
    """
    arrays = _requests([0.0, 1.0], [300, 24])
    config = _same_decode_seed(arrays, dict(max_prefill_batch_requests=16, kv_block_size=16))
    probe = _fast_columns(arrays, config)
    arrival = float(probe.kv_transfer_done[1])
    assert probe.kv_transfer_done[0] < arrival < probe.completion_time[0]
    horizon = arrival if at == "arrival" else float(np.nextafter(arrival, np.inf))
    a = _assert_fast_equals_reference(
        (arrays, [arrays], None, dict(config, max_sim_time=horizon))
    )
    assert a.kv_transfer_done[1] == arrival and not a.finished.any()


def test_single_chunk_run_crosses_the_log_bound(monkeypatch):
    """A one-chunk ``run`` long enough that a decode log reaches its bound.

    Nothing is ingested after the first chunk, so only the bound makes a
    replica replay before the end of the run; every log stays within it.
    """
    sizes = []
    replay = ServingSimulator._decode_until

    def spy(self, replica, stop):
        sizes.append(len(replica.log))
        replay(self, replica, stop)

    monkeypatch.setattr(ServingSimulator, "_decode_until", spy)
    n = 2 * engine._LOG_BOUND + 400
    rng = np.random.default_rng(7)
    arrays = RequestArrays(
        request_id=np.arange(n),
        arrival_time=np.cumsum(rng.choice([0.0, 0.05, 0.1], size=n)),
        input_length=rng.choice([16, 128, 512], size=n),
        output_length=rng.choice([2, 8, 24], size=n),
        workload="ties",
    )
    config = dict(seed=5, max_prefill_batch_requests=4, kv_block_size=16)
    assert_same_result(
        _simulator("fast", config).run(arrays.to_trace()),
        _simulator("reference", config).run(arrays.to_trace()),
    )
    assert max(sizes) == engine._LOG_BOUND


#: grid prices, in units of 1/32 s: arrivals, fault entries, KV transfers and
#: decode steps take even units, and prefill batches odd ones.  So KV
#: deliveries land exactly on step boundaries, and handoffs exactly on the
#: boundary before, all the time; a batch start never ties with the boundary
#: before that (see test_delivery_tied_on_three_levels).
GRID = 1 / 32


def _grid_step(batch: int, context: int) -> float:
    return 2 * GRID * (1 + (batch > 2) + (context >= 1024))


def _grid_prefill(length: int, batch: int) -> float:
    return GRID * (2 * (batch + (length > 256)) + 1)


@st.composite
def replay_cut_cases(draw):
    """A tie-heavy trace on grid prices, a log bound of 1-8 and a chunk split.

    Outputs up to 4500 tokens under three admission slots give epochs past
    4096 steps and admissions blocked on KV blocks; the timeline ties deaths
    and revivals with arrivals.
    """
    n = draw(st.integers(1, 12))
    ticks = np.cumsum(draw(st.lists(st.sampled_from((0, 0, 1, 3)), min_size=n, max_size=n)))
    arrays = RequestArrays(
        request_id=np.arange(n),
        arrival_time=ticks * STAMP,
        input_length=draw(st.lists(st.sampled_from((16, 512, 2048)), min_size=n, max_size=n)),
        output_length=draw(
            st.lists(st.sampled_from((1, 2, 3, 24, 300, 4500)), min_size=n, max_size=n)
        ),
        workload="grid",
    )
    chunks = _chunk_split(draw, arrays)
    timeline = draw(st.none() | _timelines(int(ticks[-1])))
    config = dict(
        seed=draw(st.integers(0, 50)),
        max_prefill_batch_requests=draw(st.sampled_from((1, 4, 16))),
        kv_block_size=draw(st.sampled_from((16, 16384))),
    )
    kv_s = draw(st.sampled_from((2 * GRID, 4 * GRID)))
    return draw(st.integers(1, 8)), kv_s, (arrays, chunks, timeline, config)


def _grid_prices(patch, kv_s: float, prefill=_grid_prefill) -> None:
    """Price every decode step, prefill batch and KV transfer on the grid."""
    cost = ReplicaCostModel
    patch.setattr(cost, "decode_step_latency", lambda self, batch, context: _grid_step(
        batch, context
    ))
    patch.setattr(cost, "decode_step_row", lambda self, batch, length: [
        _grid_step(batch, max(1, c)) for c in range(length)
    ])
    patch.setattr(cost, "prefill_latency", lambda self, length, batch_size=1: prefill(
        length, batch_size
    ))
    patch.setattr(cost, "prefill_latency_memo", lambda self, length, batch: prefill(
        length, batch
    ))
    patch.setattr(engine, "kv_link", lambda network, src, dst: (kv_s, float("inf")))
    patch.setattr(engine, "kv_transfer_seconds", lambda *args, **kwargs: kv_s)


def _assert_replay_cut_anywhere(bound: int, kv_s: float, case) -> None:
    """Fast == reference with the log bound at ``bound``, and == the default bound.

    Every KV transfer takes ``kv_s``.
    """
    arrays, chunks, timeline, config = case
    with pytest.MonkeyPatch.context() as patch:
        _grid_prices(patch, kv_s)
        default = _simulator("fast", config).run_stream([arrays], faults=timeline, retry=RETRY)
        patch.setattr(engine, "_LOG_BOUND", bound)
        cut = _simulator("fast", config).run_stream(chunks, faults=timeline, retry=RETRY)
        reference = _simulator("reference", config).run(
            arrays.to_trace(), faults=timeline, retry=RETRY
        )
    assert_same_result(cut, reference)
    assert_same_result(cut, default)


@given(case=replay_cut_cases())
@settings(max_examples=20, deadline=None)
def test_decode_replay_cut_anywhere(case):
    """Property: wherever the log bound and the chunks cut the replay, the result is one.

    A decode replica keeps its batch and epoch state in locals while it
    replays, and writes it back when the replay stops; a replay that stops
    at a log bound of 1, or at every chunk, must resume exactly where an
    uncut one would be.
    """
    _assert_replay_cut_anywhere(*case)


@pytest.mark.slow
@given(case=replay_cut_cases())
@settings(max_examples=300, deadline=None)
def test_decode_replay_cut_anywhere_exhaustive(case):
    """The same property over many more generated traces."""
    _assert_replay_cut_anywhere(*case)


@pytest.mark.xfail(
    strict=True,
    reason="the fast engine lets the step go first at a third-level exact tie, "
    "where the reference's push order can let the delivery go first",
)
def test_delivery_tied_on_three_levels(monkeypatch):
    """A delivery tied with a step boundary, its handoff and its batch start.

    With every price two grid units, request 4's KV cache lands on a
    boundary of request 3's epoch (0.375 s), its handoff is the boundary
    before (0.3125 s), and its prefill batch started on the epoch start
    (0.25 s).  At 0.25 s the per-event engine ran request 4's arrival,
    which started the batch and pushed its completion, before request 3's
    KV arrival, which started the epoch and pushed its first step: arrivals
    are pushed first of all.  So the completion, and then the delivery, go
    first, and request 4 is admitted at 0.375 s.  The fast engine's
    ``_delivery_first`` stops comparing at the batch start and lets the step
    go first, so request 4 is admitted one step later.
    """
    _grid_prices(monkeypatch, 2 * GRID, prefill=lambda length, batch: 2 * GRID * batch)
    arrays = _requests([0.0] * 4 + [0.25] * 3, [1, 1, 1, 24, 2, 1, 1])
    config = dict(seed=0, max_prefill_batch_requests=1, kv_block_size=16)
    a = _assert_fast_equals_reference((arrays, [arrays], None, config))
    assert a.completion_time[4] == 0.4375


# ------------------------------------------------ deliveries on a step boundary


def _landing(build, config: dict, column: str, targets) -> tuple:
    """The first of ``targets`` that the probe's ``column`` stamp can hit exactly.

    ``build(x)`` is the trace with the probe, its last row, arriving at
    ``x``.  Shifting the arrival by the remaining gap a few times brings the
    stamp within a few floats of the target, then ``nextafter`` closes the
    gap one float at a time; a target that the stamp steps over is skipped.
    Returns the trace and the target.
    """
    for target in targets:
        x = target
        for _ in range(8):
            got = float(getattr(_fast_columns(build(x), config), column)[-1])
            if got == target:
                return build(x), target
            x += target - got
        for _ in range(64):
            got = float(getattr(_fast_columns(build(x), config), column)[-1])
            if got == target:
                return build(x), target
            x = float(np.nextafter(x, np.inf if got < target else -np.inf))
    raise AssertionError("the probe hits none of the targets exactly")


@pytest.mark.parametrize("handoff", ["after", "before"])
@pytest.mark.parametrize("boundary", ["mid-epoch", "epoch end"])
def test_delivery_exactly_on_a_step_boundary(boundary, handoff):
    """A KV delivery landing exactly on a step boundary of a running batch.

    Requests 0 (300 tokens) and 1 decode together on one replica, and the
    probe's KV cache lands at the very instant of one of their steps: the
    step where request 1 finishes (the epoch end) or three steps before it.
    The per-event engine pushed that step's event at the boundary before, so
    the delivery goes first, and is admitted at this boundary, only when its
    handoff came before that boundary: a 2,048-token KV cache takes longer
    to ship than a step takes, a 16-token one does not.
    """
    config = dict(max_prefill_batch_requests=16, kv_block_size=16)
    probe_input = 16 if handoff == "after" else 2048

    def build(x: float, out1: int = 60) -> RequestArrays:
        return _requests([0.0, 0.0, x], [300, out1, 24], input_length=[16, 16, probe_input])

    config = _same_decode_seed(build(0.5), config, rows=(0, 1, 2))
    skip = 0 if boundary == "epoch end" else 3

    def step_time(out1: int) -> float:
        return float(_fast_columns(build(0.0, out1).slice(0, 2), config).completion_time[1])

    arrays, target = _landing(build, config, "kv_transfer_done", [step_time(60 - skip)])
    a = _assert_fast_equals_reference((arrays, [arrays], None, config))
    previous = step_time(59 - skip)
    assert a.kv_transfer_done[2] == target
    assert (a.first_token_time[2] > previous) == (handoff == "after")
    assert (a.completion_time[1] == target) == (boundary == "epoch end")
    assert a.completion_time[0] > target


@pytest.mark.parametrize("batch_start", ["earlier", "later"])
def test_delivery_on_a_boundary_handed_off_at_the_one_before(monkeypatch, batch_start):
    """A delivery on boundary k whose handoff is exactly boundary k - 1.

    Every decode step takes exactly the probe's KV transfer time and every
    prefill batch a fixed time, so the probe's batch can complete on
    boundary k - 1 and its KV cache then lands on boundary k.  At k - 1 the
    per-event engine pops the batch completion and the step in push order:
    the completion goes first when its batch started before boundary k - 2,
    where that step was pushed.  Only then was the delivery pushed before
    step k, and is admitted there.
    """
    config = dict(max_prefill_batch_requests=16, kv_block_size=16)

    def build(x: float) -> RequestArrays:
        return _requests([0.0, x], [300, 24], input_length=[16, 2048])

    config = _same_decode_seed(build(0.5), config)
    simulator = _simulator("fast", config)
    probe = simulator.run_stream([build(0.5)]).arrays
    alpha, beta = simulator._kv_link(int(probe.prefill_replica[1]), int(probe.decode_replica[1]))
    transfer = alpha + (simulator._kv_bytes_per_token * 2049) / beta
    prefill = 2 * transfer if batch_start == "earlier" else transfer / 2
    cost = type(simulator.decodes[int(probe.decode_replica[1])].cost)
    monkeypatch.setattr(cost, "decode_step_latency", lambda self, batch, context: transfer)
    monkeypatch.setattr(cost, "decode_step_row", lambda self, batch, length: [transfer] * length)
    monkeypatch.setattr(cost, "prefill_latency", lambda self, length, batch_size=1: prefill)
    monkeypatch.setattr(cost, "prefill_latency_memo", lambda self, length, batch: prefill)

    # Boundary k of request 0's decode is where a twin with k + 1 tokens ends.
    boundary = {
        k: float(_fast_columns(_requests([0.0], [k + 1]), config).completion_time[0])
        for k in range(9, 32)
    }
    targets = [boundary[k] for k in range(11, 31)]
    arrays, handoff = _landing(build, config, "first_token_time", targets)
    a = _assert_fast_equals_reference((arrays, [arrays], None, config))
    k = next(k for k in boundary if boundary[k] == handoff) + 1
    assert a.kv_transfer_done[1] == boundary[k]
    assert (a.prefill_start[1] < boundary[k - 2]) == (batch_start == "earlier")
