"""Streamed simulation: ``run_stream`` vs ``run`` vs the per-event reference.

``run_stream`` feeds the fast engine fixed-size struct-of-arrays chunks
instead of a materialized trace.  The contract is strict: for any chunk size,
the streamed run produces **bitwise-identical** per-request metrics, workload
tags, makespan and trace span to the eager ``run`` on the concatenated trace —
which in turn is bitwise-identical to the per-event reference oracle.
"""

from __future__ import annotations

import sys
from dataclasses import fields

import numpy as np
import pytest
from conftest import assert_same_result

from repro.core.exceptions import SimulationError
from repro.core.types import Request
from repro.simulation.engine import ENGINES, ServingSimulator, SimulatorConfig
from repro.simulation.metrics import COLUMN_DTYPES, MetricArrays
from repro.workload.generator import DiurnalTimeWarp, PoissonArrivalGenerator
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD
from repro.workload.trace import RequestArrays

N = 120
RATE = 3.0
CHUNK_SIZES = (1, 17, 64, 3 * N)


def _generator(seed: int = 3) -> PoissonArrivalGenerator:
    return PoissonArrivalGenerator(
        spec=CONVERSATION_WORKLOAD, request_rate=RATE, seed=seed
    )


def _simulator(cluster, plan, model, engine="fast", horizon=None) -> ServingSimulator:
    config = SimulatorConfig(seed=0, engine=engine, max_sim_time=horizon)
    return ServingSimulator(cluster, plan, model, config=config)


def _tags(result) -> list:
    return [m.request.workload for m in result.metrics]


@pytest.fixture(scope="module")
def arrays() -> RequestArrays:
    return _generator().generate_arrays(N)


class TestStreamedEqualsEager:
    @pytest.mark.parametrize("chunk_size", CHUNK_SIZES)
    def test_run_stream_matches_run_bitwise(
        self, small_hetero_cluster, small_plan, model_30b, arrays, chunk_size
    ):
        eager = _simulator(small_hetero_cluster, small_plan, model_30b).run(
            arrays.to_trace()
        )
        chunks = [
            arrays.slice(lo, min(lo + chunk_size, N))
            for lo in range(0, N, chunk_size)
        ]
        streamed = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(
            chunks
        )
        assert_same_result(streamed, eager)
        assert _tags(streamed) == _tags(eager)
        assert streamed.trace_duration == eager.trace_duration

    def test_generator_chunks_match_reference_oracle(
        self, small_hetero_cluster, small_plan, model_30b
    ):
        warp = DiurnalTimeWarp(horizon=N / RATE * 1.5, period=N / RATE / 2, amplitude=0.4)
        streamed = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(
            _generator().iter_chunks(N, chunk_size=32, time_warp=warp)
        )
        trace = _generator().generate_arrays(N, time_warp=warp).to_trace()
        reference = _simulator(
            small_hetero_cluster, small_plan, model_30b, engine="reference"
        ).run(trace)
        assert_same_result(streamed, reference)

    def test_empty_chunks_are_skipped(
        self, small_hetero_cluster, small_plan, model_30b, arrays
    ):
        eager = _simulator(small_hetero_cluster, small_plan, model_30b).run(
            arrays.to_trace()
        )
        half = N // 2
        chunks = [
            arrays.slice(0, 0),
            arrays.slice(0, half),
            arrays.slice(half, half),
            arrays.slice(half, N),
        ]
        streamed = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(
            chunks
        )
        assert_same_result(streamed, eager)

    def test_label_propagates(self, small_hetero_cluster, small_plan, model_30b, arrays):
        result = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(
            [arrays], label="streamed"
        )
        assert result.label == "streamed"


class TestMultiWorkloadStream:
    def test_workload_tags_survive_spec_changes_mid_stream(
        self, small_hetero_cluster, small_plan, model_30b
    ):
        first = _generator().generate_arrays(N // 2)
        tail_gen = PoissonArrivalGenerator(
            spec=CODING_WORKLOAD, request_rate=RATE, seed=5
        )
        second = tail_gen.generate_arrays(
            N // 2,
            start_time=float(first.arrival_time[-1]),
            first_request_id=N // 2,
        )
        streamed = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(
            [first, second]
        )
        from repro.workload.trace import Trace

        eager_trace = Trace(
            requests=first.to_trace().requests + second.to_trace().requests,
            name="mixed",
        )
        eager = _simulator(small_hetero_cluster, small_plan, model_30b).run(eager_trace)
        assert_same_result(streamed, eager)
        assert _tags(streamed) == _tags(eager)
        tags = _tags(streamed)
        assert tags[: N // 2] == [CONVERSATION_WORKLOAD.name] * (N // 2)
        assert tags[N // 2 :] == [CODING_WORKLOAD.name] * (N // 2)


class TestHorizonTruncation:
    def test_streamed_horizon_matches_eager_and_reference(
        self, small_hetero_cluster, small_plan, model_30b, arrays
    ):
        horizon = float(arrays.arrival_time[N // 2])
        chunks = [arrays.slice(lo, min(lo + 16, N)) for lo in range(0, N, 16)]
        streamed = _simulator(
            small_hetero_cluster, small_plan, model_30b, horizon=horizon
        ).run_stream(chunks)
        eager = _simulator(
            small_hetero_cluster, small_plan, model_30b, horizon=horizon
        ).run(arrays.to_trace())
        reference = _simulator(
            small_hetero_cluster,
            small_plan,
            model_30b,
            engine="reference",
            horizon=horizon,
        ).run(arrays.to_trace())
        assert_same_result(streamed, eager)
        assert_same_result(streamed, reference)
        assert len(streamed.metrics) < N


class TestValidation:
    def test_out_of_order_chunks_rejected(
        self, small_hetero_cluster, small_plan, model_30b, arrays
    ):
        sim = _simulator(small_hetero_cluster, small_plan, model_30b)
        with pytest.raises(SimulationError, match="time-ordered"):
            sim.run_stream([arrays.slice(N // 2, N), arrays.slice(0, N // 2)])

    def test_run_stream_reference_engine_falls_back_to_eager(
        self, small_hetero_cluster, small_plan, model_30b, arrays
    ):
        chunks = [arrays.slice(0, N // 2), arrays.slice(N // 2, N)]
        reference = _simulator(
            small_hetero_cluster, small_plan, model_30b, engine="reference"
        ).run_stream(chunks)
        fast = _simulator(small_hetero_cluster, small_plan, model_30b).run(
            arrays.to_trace()
        )
        assert_same_result(fast, reference)


class TestNegativeArrivals:
    """A negative arrival is refused alike by both engines and both entry points."""

    @staticmethod
    def _negative_block() -> RequestArrays:
        return RequestArrays(
            request_id=np.arange(3),
            arrival_time=np.array([-0.1, 0.5, 1.0]),
            input_length=np.full(3, 64),
            output_length=np.full(3, 8),
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_and_run_stream_raise_requests_error(
        self, small_hetero_cluster, small_plan, model_30b, engine
    ):
        with pytest.raises(ValueError) as from_request:
            Request(request_id=0, arrival_time=-0.1, input_length=64, output_length=8)
        sim = _simulator(small_hetero_cluster, small_plan, model_30b, engine=engine)

        def chunks():
            yield self._negative_block()

        with pytest.raises(ValueError) as via_stream:
            sim.run_stream(chunks())
        with pytest.raises(ValueError) as via_run:
            sim.run(self._negative_block().to_trace())
        assert str(via_stream.value) == str(from_request.value)
        assert str(via_run.value) == str(from_request.value)


class TestLengthBound:
    """A length the int32 length columns cannot hold is refused, not wrapped."""

    @pytest.mark.parametrize("column", ["input_length", "output_length"])
    def test_oversized_length_raises(self, small_hetero_cluster, small_plan, model_30b, column):
        too_long = int(np.iinfo(COLUMN_DTYPES[column]).max) + 1
        lengths = {"input_length": np.full(2, 64), "output_length": np.full(2, 8)}
        lengths[column] = np.array([64, too_long])
        block = RequestArrays(
            request_id=np.arange(2), arrival_time=np.array([0.0, 0.5]), **lengths
        )
        sim = _simulator(small_hetero_cluster, small_plan, model_30b)
        with pytest.raises(SimulationError, match="request lengths must be at most"):
            sim.run_stream(iter([block]))


class TestResultArrays:
    @staticmethod
    def _assert_owned_columns(result) -> None:
        for column in fields(MetricArrays):
            values = getattr(result.arrays, column.name)
            assert values.base is None and values.flags.owndata, column.name
            assert values.flags.c_contiguous, column.name
            assert values.dtype == COLUMN_DTYPES[column.name], column.name

    @pytest.mark.parametrize("shuffle_ids", [False, True])
    def test_columns_owned_and_simulator_reusable(
        self, small_hetero_cluster, small_plan, model_30b, arrays, shuffle_ids
    ):
        """run, run_stream, run on one simulator agree bitwise on owned columns.

        The second and third runs also prove the request columns reset and
        that no result holds a buffer the next run's ingest would resize.
        """
        if shuffle_ids:
            ids = np.random.default_rng(0).permutation(arrays.request_id)
            arrays = RequestArrays(
                ids, arrays.arrival_time, arrays.input_length, arrays.output_length
            )
        sim = _simulator(small_hetero_cluster, small_plan, model_30b)
        chunks = [arrays.slice(lo, min(lo + 17, N)) for lo in range(0, N, 17)]
        results = [
            sim.run(arrays.to_trace()),
            sim.run_stream(chunks),
            sim.run(arrays.to_trace()),
        ]
        for result in results:
            self._assert_owned_columns(result)
            assert_same_result(result, results[0])

    @pytest.mark.parametrize("shuffle_ids", [False, True])
    def test_run_under_a_tracer_matches(
        self, small_hetero_cluster, small_plan, model_30b, arrays, shuffle_ids
    ):
        """A tracer (coverage, pdb, cProfile) changes nothing and breaks nothing.

        Under one, CPython binds a temporary method object holding the array
        for each C method call, so a reference-checked ``ndarray.resize`` of
        the request store would raise.  Ids in order take the in-place cut.
        """
        if shuffle_ids:
            ids = np.random.default_rng(0).permutation(arrays.request_id)
            arrays = RequestArrays(
                ids, arrays.arrival_time, arrays.input_length, arrays.output_length
            )
        chunks = [arrays.slice(lo, min(lo + 17, N)) for lo in range(0, N, 17)]
        plain = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(chunks)

        def tracer(frame, event, arg):
            return tracer

        previous = sys.gettrace()
        sys.settrace(tracer)
        try:
            traced = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(chunks)
        finally:
            sys.settrace(previous)
        self._assert_owned_columns(traced)
        assert_same_result(traced, plain)

    def test_streamed_result_metrics_sorted_by_request_id(
        self, small_hetero_cluster, small_plan, model_30b, arrays
    ):
        result = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(
            [arrays]
        )
        ids = [m.request.request_id for m in result.metrics]
        assert ids == sorted(ids)

    def test_streamed_summary_matches_eager_summary(
        self, small_hetero_cluster, small_plan, model_30b, arrays
    ):
        streamed = _simulator(small_hetero_cluster, small_plan, model_30b).run_stream(
            [arrays]
        )
        eager = _simulator(small_hetero_cluster, small_plan, model_30b).run(
            arrays.to_trace()
        )
        s, e = streamed.summary(), eager.summary()
        assert set(s) == set(e)
        for key in s:
            assert s[key] == pytest.approx(e[key], rel=0, abs=0), key
