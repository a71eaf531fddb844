"""The columnar ``Trace``: equal to the request-list computation, bit for bit.

A :class:`~repro.workload.trace.Trace` stores one column block plus workload
spans; request objects are built only when a caller iterates or indexes it.
These tests hold it to three contracts:

* every statistic and transform equals the plain ``Request``-list
  computation it replaced, bitwise, on tie-heavy arrivals with interleaved
  workload tags (a Hypothesis property);
* ``run(trace)`` equals ``run_stream`` over the same rows, and the result
  keeps every row's tag;
* the serving path (``to_trace``, ``window``, the live loop, ``serve``)
  builds no request object at all.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import Request
from repro.costmodel.reference import a100_reference_latency
from repro.experiments.chaos_recovery import default_fault_storm
from repro.faults import FaultInjector
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.workload.generator import PoissonArrivalGenerator
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD
from repro.workload.trace import RequestArrays, Trace, merge_traces

#: a small palette of arrival times, so equal arrivals are common
ARRIVALS = (0.0, 0.1, 0.2, 0.30000000000000004, 0.3, 1.0, 1.5, 7.25, 1e-9, 2.0 / 3.0)
TAGS = ("coding", "conversation", "tenant:a", "tenant:b")

requests_lists = st.lists(
    st.builds(
        Request,
        request_id=st.integers(0, 10**6),
        arrival_time=st.sampled_from(ARRIVALS),
        input_length=st.integers(1, 5000),
        output_length=st.integers(1, 500),
        workload=st.sampled_from(TAGS),
    ),
    max_size=40,
)
bounds = st.sampled_from(ARRIVALS + (-1.0, float("inf")))


def _bits(requests) -> list:
    """Each request's fields, with the arrival time's exact bits."""
    return [
        (r.request_id, float(r.arrival_time).hex(), r.input_length, r.output_length, r.workload)
        for r in requests
    ]


def _same_float(a: float, b: float) -> bool:
    return float(a).hex() == float(b).hex()


def _ordered(requests) -> list:
    return sorted(requests, key=lambda r: r.arrival_time)


@given(requests=requests_lists, start=bounds, end=bounds)
@settings(max_examples=200, deadline=None)
def test_statistics_and_transforms_equal_the_request_list(requests, start, end):
    trace = Trace(requests=requests, name="t")
    plain = _ordered(requests)
    assert len(trace) == len(plain)
    assert _bits(trace) == _bits(plain)
    if plain:
        assert _bits([trace[0], trace[-1]]) == _bits([plain[0], plain[-1]])

    duration = plain[-1].arrival_time - plain[0].arrival_time if len(plain) >= 2 else 0.0
    assert _same_float(trace.duration, duration)
    rate = (len(plain) - 1) / duration if len(plain) >= 2 and duration != 0 else 0.0
    assert _same_float(trace.request_rate, rate)
    for attr, stat in (("input_length", np.mean), ("output_length", np.mean)):
        expected = float(stat([getattr(r, attr) for r in plain])) if plain else 0.0
        assert _same_float(getattr(trace, f"mean_{attr}"), expected)
    for attr in ("input_length", "output_length"):
        expected = float(np.median([getattr(r, attr) for r in plain])) if plain else 0.0
        assert _same_float(getattr(trace, f"median_{attr}"), expected)
    assert int(trace.arrays.input_length.sum()) == sum(r.input_length for r in plain)
    assert int(trace.arrays.output_length.sum()) == sum(r.output_length for r in plain)

    if end >= start:
        window = trace.window(start, end)
        assert _bits(window) == _bits([r for r in plain if start <= r.arrival_time < end])
        assert window.name == f"t[{start:g},{end:g})"
    else:
        with pytest.raises(ValueError):
            trace.window(start, end)


@given(parts=st.lists(requests_lists, max_size=4))
@settings(max_examples=100, deadline=None)
def test_merge_traces_equals_the_request_list(parts):
    traces = [Trace(requests=p) for p in parts]
    pooled = _ordered(r for t in traces for r in t.requests)
    expected = [replace(r, request_id=i) for i, r in enumerate(pooled)]
    merged = merge_traces(traces, name="m")
    assert merged.name == "m"
    assert _bits(merged) == _bits(expected)


def test_shift_below_zero_is_rejected():
    """A block whose arrivals were shifted below zero fails validation."""
    a = Trace(requests=[Request(0, 1.0, 10, 10)]).arrays
    with pytest.raises(ValueError):
        RequestArrays(a.request_id, a.arrival_time - 2.0, a.input_length, a.output_length)


def test_the_object_view_is_read_only_and_cached():
    trace = PoissonArrivalGenerator(CONVERSATION_WORKLOAD, 3.0, seed=1).generate_arrays(
        10
    ).to_trace()
    assert trace.requests is trace.requests
    with pytest.raises(AttributeError):
        trace.requests.append(trace.requests[0])


# --------------------------------------------------------------------------- engine
def _interleaved_trace(n: int) -> Trace:
    """A generated trace whose rows carry four tags, interleaved."""
    arrays = PoissonArrivalGenerator(CONVERSATION_WORKLOAD, 3.0, seed=4).generate_arrays(n)
    return Trace(
        requests=[
            replace(r, workload=TAGS[(r.request_id * 7) % 5 % len(TAGS)])
            for r in arrays.to_trace().requests
        ],
        name="interleaved",
    )


@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_run_equals_run_stream_and_keeps_every_tag(
    small_hetero_cluster, small_plan, model_30b, engine
):
    trace = _interleaved_trace(150)
    assert len(trace.spans) > 20

    def simulator() -> ServingSimulator:
        config = SimulatorConfig(seed=0, engine=engine)
        return ServingSimulator(small_hetero_cluster, small_plan, model_30b, config=config)

    eager = simulator().run(trace)
    streamed = simulator().run_stream([trace.arrays])
    assert eager.digest() == streamed.digest()
    by_id = {r.request_id: r.workload for r in trace.requests}
    assert [r.workload for r in eager.requests] == [by_id[i] for i in sorted(by_id)]
    assert [m.request for m in eager.metrics] == sorted(trace.requests, key=lambda r: r.request_id)


# --------------------------------------------------------------------------- guard
def test_the_serving_path_builds_no_request_object(monkeypatch):
    """``to_trace``, ``window``, the live loop, ``serve``: no request is built.

    The live-chaos set-up in small: a two-DC deployment serves 1,200 s of a
    20,000-row coding trace in 30 s windows under the chaos storm, with
    adaptation on.  Outage windows, failure and recovery replans and SLO
    breaches with shadow replays all run, so every serving-side consumer of
    a trace does.
    """
    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0)
    model = get_model_config("llama-30b")
    slo = a100_reference_latency(model, CODING_WORKLOAD).slo_spec(16.0)
    system = ThunderServe(cluster, model, CODING_WORKLOAD, 1.0, slo=slo)
    system.deploy(seed=0)
    storm = FaultInjector(default_fault_storm(), seed=25).compile(1200.0, cluster)
    arrays = PoissonArrivalGenerator(CODING_WORKLOAD, 0.92, seed=2).generate_arrays(20_000)
    built = []
    original = Request.__post_init__

    def counted(self):
        built.append(self.request_id)
        original(self)

    monkeypatch.setattr(Request, "__post_init__", counted)
    trace = arrays.to_trace(name="guard")
    window = trace.window(0.0, 1200.0)
    config = LiveServeConfig(window_s=30.0, faults=storm)
    report = LiveServer(system, config=config).run(window, label="guard")
    replay = system.serve(trace, label="replay")

    stats = report.fault_stats()
    assert stats["outage_windows"] > 0
    assert stats["num_recovery_replans"] > 0
    assert report.breaches
    assert replay.num_requests == len(trace) == 20_000
    assert built == []
