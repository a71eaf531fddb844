"""Property-based tests for simulator conservation laws and workload generation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import OUTCOME_NAMES, Request, RequestMetrics, RequestOutcome, SLOSpec, SLOType
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.simulation.metrics import MetricArrays, SimulationResult, merge_results
from repro.workload.generator import generate_requests
from repro.workload.spec import WorkloadSpec

# Property/equivalence suites are exhaustive by design; CI runs them in the
# dedicated slow job (-m "slow or integration") to keep the fast matrix quick.
pytestmark = pytest.mark.slow



CLUSTER = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
MODEL = get_model_config("llama-30b")


def _plan():
    from repro.core.types import Phase
    from repro.costmodel.reference import a100_reference_latency
    from repro.scheduling.lower_level import LowerLevelSolver
    from repro.scheduling.solution import UpperLevelSolution
    from repro.workload.spec import CONVERSATION_WORKLOAD

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


@given(
    median_in=st.integers(64, 1024),
    median_out=st.integers(2, 128),
    rate=st.floats(0.5, 6.0),
    seed=st.integers(0, 10_000),
    num_requests=st.integers(5, 25),
)
@settings(max_examples=15, deadline=None)
def test_simulator_conservation_laws(median_in, median_out, rate, seed, num_requests):
    """Every admitted request finishes exactly once with causally-ordered timestamps."""
    workload = WorkloadSpec(
        name="prop",
        median_input_length=float(median_in),
        median_output_length=float(median_out),
        input_sigma=0.3,
        output_sigma=0.4,
    )
    trace = generate_requests(workload, rate, num_requests=num_requests, seed=seed)
    result = ServingSimulator(CLUSTER, PLAN, MODEL, config=SimulatorConfig(seed=seed)).run(trace)
    # Conservation: every request completes exactly once within the (unbounded) horizon.
    assert result.num_finished == num_requests
    ids = [m.request.request_id for m in result.metrics]
    assert len(set(ids)) == num_requests
    for metrics in result.metrics:
        assert metrics.prefill_start + 1e-9 >= metrics.request.arrival_time
        assert metrics.first_token_time >= metrics.prefill_start
        assert metrics.completion_time + 1e-9 >= metrics.first_token_time
        assert metrics.ttft >= 0 and metrics.tpot >= 0
        assert metrics.ttft <= metrics.e2e_latency + 1e-9
    assert result.makespan >= trace.duration - 1e-9


@given(
    rate=st.floats(0.5, 20.0),
    seed=st.integers(0, 10_000),
    duration=st.floats(5.0, 60.0),
)
@settings(max_examples=25, deadline=None)
def test_poisson_trace_statistics(rate, seed, duration):
    """Generated traces have sorted arrivals inside the window and roughly the nominal rate."""
    from repro.workload.spec import CODING_WORKLOAD

    trace = generate_requests(CODING_WORKLOAD, rate, duration=duration, seed=seed)
    arrivals = [r.arrival_time for r in trace]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t < duration for t in arrivals)
    expected = rate * duration
    if expected >= 30:
        # A 5-sigma window keeps the per-example false-failure probability
        # below ~1e-6 (a fixed multiplicative band is eventually falsified by
        # ordinary Poisson tails once hypothesis explores enough seeds).
        slack = 5.0 * expected**0.5
        assert expected - slack < len(trace) < expected + slack


@given(seed=st.integers(0, 100))
@settings(max_examples=10, deadline=None)
def test_attainment_monotone_in_slo_scale(seed):
    """Looser SLOs never reduce measured attainment."""
    from repro.costmodel.reference import a100_reference_latency
    from repro.workload.spec import CONVERSATION_WORKLOAD

    trace = generate_requests(CONVERSATION_WORKLOAD, 3.0, num_requests=20, seed=seed)
    result = ServingSimulator(CLUSTER, PLAN, MODEL, config=SimulatorConfig(seed=seed)).run(trace)
    reference = a100_reference_latency(MODEL, CONVERSATION_WORKLOAD)
    scales = [0.5, 1, 2, 4, 8, 16, 32]
    curve = [result.slo_attainment(reference.slo_spec(s), SLOType.E2E) for s in scales]
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert all(0.0 <= v <= 1.0 for v in curve)


@given(
    seed=st.integers(0, 10_000),
    size=st.integers(1, 64),
    max_input=st.integers(1, 8192),
    max_batch=st.integers(1, 64),
)
@settings(max_examples=20, deadline=None)
def test_prefill_grid_scalar_parity(seed, size, max_input, max_batch):
    """prefill_latency_array / _grid / _memo are the scalar model bitwise.

    Mirrors the decode-grid parity suite: the fast engine's coalesced prefill
    epochs price every batch through the shared memo, so any ULP of drift
    between its fill paths breaks the engines' bitwise-identical-metrics
    contract.
    """
    from repro.costmodel.latency import ReplicaCostModel
    from repro.parallelism.config import ReplicaPlan

    a40 = [g.gpu_id for g in CLUSTER.gpus_of_type("A40")]
    plan = ReplicaPlan.from_stage_lists([a40], [MODEL.num_layers])
    cost = ReplicaCostModel(CLUSTER, plan, MODEL)
    rng = np.random.default_rng(seed)
    inputs = rng.integers(1, max_input + 1, size=size)
    batches = rng.integers(1, max_batch + 1, size=size)
    scalar = np.array(
        [cost.prefill_latency(int(s), int(b)) for s, b in zip(inputs, batches)]
    )
    assert np.all(cost.prefill_latency_array(inputs, batches) == scalar)
    assert np.all(cost.prefill_latency_grid(inputs, batches) == scalar)
    # Warm-memo pass returns the same bits.
    assert np.all(cost.prefill_latency_grid(inputs, batches) == scalar)
    # The scalar memo shares that memo, in both fill orders: grid first (the
    # memo reads grid-filled entries), then memo first on a fresh model (the
    # grid reads memo-filled entries).
    pairs = list(zip(inputs.tolist(), batches.tolist()))
    assert np.all(np.array([cost.prefill_latency_memo(s, b) for s, b in pairs]) == scalar)
    cold = ReplicaCostModel(CLUSTER, plan, MODEL)
    assert np.all(np.array([cold.prefill_latency_memo(s, b) for s, b in pairs]) == scalar)
    assert np.all(cold.prefill_latency_grid(inputs, batches) == scalar)


@st.composite
def _epoch_sums(draw):
    """(n, s, t) with n >= 1, s >= n, t >= 0 and s + n*t < 2**53."""
    limit = 2**53 - 1
    n = draw(st.integers(1, 2**26))
    s = draw(st.integers(n, limit))
    t = draw(st.integers(0, (limit - s) // n))
    return n, s, t


@given(_epoch_sums())
@settings(max_examples=300, deadline=None)
def test_epoch_mean_context_is_floor_plus_step(sums):
    """The identity behind slice-priced decode epochs.

    The reference prices a step at ``int(np.mean(contexts))``, i.e. the
    float64 quotient ``(s + n*t) / n`` truncated; the fast engine reads
    ``s // n + t`` from a latency row.  Below 2**53 the rounding error of the
    quotient is under ``1/n``, the smallest distance from ``s/n`` to the next
    integer, so truncation never crosses it.
    """
    n, s, t = sums
    assert int((s + n * t) / n) == s // n + t


# ---------------------------------------------------------------- result columns
_STAMPS = st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False)
_REPLICAS = st.one_of(st.none(), st.integers(0, 64))


@st.composite
def _metric_lists(draw, unique_ids=True):
    """RequestMetrics lists with random stamps, flags, outcomes and replica ids."""
    n = draw(st.integers(0, 30))
    ids = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=unique_ids))
    metrics = []
    for rid in ids:
        request = Request(
            request_id=rid,
            arrival_time=draw(_STAMPS),
            input_length=draw(st.integers(1, 4096)),
            output_length=draw(st.one_of(st.just(1), st.integers(1, 512))),
            workload=draw(st.sampled_from(["generic", "coding", "tenant:a", "tenant:b"])),
        )
        metrics.append(
            RequestMetrics(
                request=request,
                enqueue_time=draw(_STAMPS),
                prefill_start=draw(_STAMPS),
                first_token_time=draw(_STAMPS),
                kv_transfer_done=draw(_STAMPS),
                completion_time=draw(_STAMPS),
                prefill_replica=draw(_REPLICAS),
                decode_replica=draw(_REPLICAS),
                finished=draw(st.booleans()),
                outcome=draw(st.sampled_from(list(RequestOutcome))),
                attempts=draw(st.integers(0, 5)),
            )
        )
    return metrics


def _result(metrics, makespan=1.0):
    return SimulationResult(
        MetricArrays.from_metrics(metrics),
        makespan=makespan,
        trace_duration=0.0,
        requests=[m.request for m in metrics],
    )


def _same(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or a == b


@given(_metric_lists())
@settings(max_examples=100, deadline=None)
def test_from_metrics_round_trips_field_for_field(metrics):
    """from_metrics -> columns -> object view gives back the same records."""
    assert _result(metrics).metrics == metrics


@given(
    _metric_lists(),
    st.floats(-1.0, 1e6, allow_nan=False),
    st.floats(0.0, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_column_aggregates_match_per_object_computation(metrics, makespan, q):
    """Every aggregate equals its naive per-object computation, bitwise."""
    result = _result(metrics, makespan)
    finished = [m for m in metrics if m.finished]
    for slo_type in SLOType:
        values = [m.value_for(slo_type) for m in finished]
        assert _same(result.mean(slo_type), float(np.mean(values)) if values else math.nan)
        assert _same(
            result.percentile(slo_type, q),
            float(np.percentile(values, q)) if values else math.nan,
        )
    for scale in (1e-3, 0.1, 1.0, 10.0, 1e3, 1e5, 1e7):
        slo = SLOSpec(ttft=scale, tpot=scale / 100, e2e=2 * scale)
        for slo_type in SLOType:
            hits = sum(1 for m in metrics if slo.is_met(m, slo_type))
            expected = hits / len(metrics) if metrics else 0.0
            assert result.slo_attainment(slo, slo_type) == expected

    summary = result.summary()
    assert summary["num_finished"] == float(len(finished))
    naive = {
        "mean_ttft": [m.ttft for m in finished],
        "mean_tpot": [m.tpot for m in finished],
        "mean_e2e": [m.e2e_latency for m in finished],
        "mean_queue": [m.queue_time for m in finished],
        "mean_prefill": [m.prefill_time for m in finished],
        "mean_kv_transfer": [m.kv_transfer_time for m in finished],
        "mean_decode": [m.decode_time for m in finished],
    }
    assert set(summary) == {"num_finished", *naive}
    for key, values in naive.items():
        assert _same(summary[key], float(np.mean(values)) if values else math.nan), key

    busy = makespan > 0 and finished
    out_tokens = sum(m.request.output_length for m in finished)
    all_tokens = sum(m.request.total_tokens for m in finished)
    assert result.output_token_throughput == (out_tokens / makespan if busy else 0.0)
    assert result.total_token_throughput == (all_tokens / makespan if busy else 0.0)
    assert result.request_throughput == (len(finished) / makespan if makespan > 0 else 0.0)

    counts = {name: 0 for name in OUTCOME_NAMES}
    for m in metrics:
        counts[m.outcome.name.lower()] += 1
    assert result.outcome_counts() == counts


@given(_metric_lists(unique_ids=False), st.data())
@settings(max_examples=100, deadline=None)
def test_merge_results_orders_interleaved_windows_by_request_id(metrics, data):
    """Windows with interleaved ids merge into one id-ordered, tag-preserving result."""
    k = data.draw(st.integers(1, 4))
    owners = data.draw(st.lists(st.integers(0, k - 1), min_size=len(metrics), max_size=len(metrics)))
    windows = [[m for m, w in zip(metrics, owners) if w == i] for i in range(k)]
    makespans = data.draw(st.lists(_STAMPS, min_size=k, max_size=k))
    merged = merge_results([_result(w, t) for w, t in zip(windows, makespans)], label="m")
    expected = sorted([m for w in windows for m in w], key=lambda m: m.request.request_id)
    assert merged.metrics == expected
    assert [r.workload for r in merged.requests] == [m.request.workload for m in expected]
    assert merged.makespan == max(makespans)
    arrivals = [m.request.arrival_time for m in expected]
    span = max(arrivals) - min(arrivals) if len(arrivals) >= 2 else 0.0
    assert merged.trace_duration == span
    assert merged.label == "m"
