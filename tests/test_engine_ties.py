"""Exact-time ties: the fast engine's event heap against the per-event oracle.

The fast engine orders its heap entries by ``(time, seq)`` with ``seq`` drawn
from one push counter, as the reference engine's ``EventQueue`` does, and a
coalesced KV-arrival cursor that yields goes back on the heap under its
original ``seq``.  Those rules only matter when two entries share a time, so
these properties generate traces full of exact-time ties:

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
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import Phase
from repro.costmodel.reference import a100_reference_latency
from repro.faults.retry import RetryPolicy
from repro.faults.timeline import FaultTimeline, ReplicaFaultEvent
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import MetricArrays
from repro.workload.spec import CONVERSATION_WORKLOAD
from repro.workload.trace import RequestArrays

CLUSTER = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
MODEL = get_model_config("llama-7b")
RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.25, jitter=0.0)
#: arrival and fault grid step (seconds); exact in binary, so stamps repeat
STAMP = 0.25


def _plan() -> DeploymentPlan:
    """Two prefill and two decode replicas with uniform routing."""
    a40 = [g.gpu_id for g in CLUSTER.gpus_of_type("A40")]
    ti = [g.gpu_id for g in CLUSTER.gpus_of_type("3090Ti")]
    solution = UpperLevelSolution.from_lists(
        [
            (a40[:2], Phase.PREFILL),
            (a40[2:], Phase.PREFILL),
            (ti[:2], Phase.DECODE),
            (ti[2:], Phase.DECODE),
        ]
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
    cuts = sorted(draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    bounds = [0, *cuts, n]
    chunks = [arrays.slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    timeline = draw(st.none() | _timelines(int(ticks[-1])))
    config = dict(
        seed=draw(st.integers(0, 50)),
        max_prefill_batch_requests=draw(st.sampled_from((1, 4, 16))),
        # 16 K-token blocks leave each decode replica three admission slots,
        # so the order of same-instant KV arrivals decides who waits.
        kv_block_size=draw(st.sampled_from((16, 16384))),
    )
    return arrays, chunks, timeline, config


def _assert_fast_equals_reference(case) -> None:
    arrays, chunks, timeline, config = case

    def simulator(engine: str) -> ServingSimulator:
        return ServingSimulator(
            CLUSTER, PLAN, MODEL, config=SimulatorConfig(engine=engine, **config)
        )

    fast = simulator("fast").run_stream(chunks, faults=timeline, retry=RETRY)
    reference = simulator("reference").run(arrays.to_trace(), faults=timeline, retry=RETRY)
    for column in fields(MetricArrays):
        a = getattr(fast.arrays, column.name)
        b = getattr(reference.arrays, column.name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), column.name
    assert fast.makespan == reference.makespan


def test_same_instant_kv_handoffs_keep_push_order():
    """A yielding KV cursor goes back on the heap under its first ``seq``.

    27 requests arrive at t = 0 and split over the two identical prefill
    replicas, so their batches finish, and hand KV caches off, at the same
    instants.  With three admission slots per decode replica, the pending
    queue's order decides who runs first: a cursor re-pushed under a fresh
    ``seq`` would queue its later arrivals behind the other cursor's.
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
