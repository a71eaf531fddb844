"""Unit tests for workload specs, generators, traces and the online profiler."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.core.types import Request
from repro.workload.generator import PoissonArrivalGenerator, generate_requests
from repro.workload.profiler import WorkloadProfiler
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD, WorkloadSpec
from repro.workload.trace import Trace, merge_traces


def _prompt_tokens_per_response_token(spec):
    """The prefill:decode token demand ratio of a workload."""
    return spec.mean_input_length / spec.mean_output_length


class TestWorkloadSpec:
    def test_coding_is_prefill_heavy(self):
        assert _prompt_tokens_per_response_token(CODING_WORKLOAD) > 10

    def test_conversation_is_decode_heavier_than_coding(self):
        assert _prompt_tokens_per_response_token(
            CONVERSATION_WORKLOAD
        ) < _prompt_tokens_per_response_token(CODING_WORKLOAD)

    def test_paper_medians(self):
        assert CODING_WORKLOAD.median_output_length == pytest.approx(13.0)
        assert CONVERSATION_WORKLOAD.median_output_length == pytest.approx(129.0)
        assert CODING_WORKLOAD.median_input_length > 1000
        assert CONVERSATION_WORKLOAD.median_input_length > 1000

    def test_sample_lengths_within_bounds(self):
        lengths = CODING_WORKLOAD.sample_input_lengths(500, rng=0)
        assert lengths.min() >= CODING_WORKLOAD.min_input_length
        assert lengths.max() <= CODING_WORKLOAD.max_input_length

    def test_sampling_deterministic_for_seed(self):
        a = CONVERSATION_WORKLOAD.sample_output_lengths(50, rng=3)
        b = CONVERSATION_WORKLOAD.sample_output_lengths(50, rng=3)
        assert np.array_equal(a, b)

    def test_zero_sigma_gives_constant_lengths(self):
        spec = WorkloadSpec(name="fixed", median_input_length=100, median_output_length=10,
                            input_sigma=0.0, output_sigma=0.0)
        assert set(spec.sample_input_lengths(10, rng=0).tolist()) == {100}

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", median_input_length=0, median_output_length=10)


class TestGenerator:
    def test_request_count_mode(self):
        trace = generate_requests(CODING_WORKLOAD, request_rate=5.0, num_requests=100, seed=1)
        assert len(trace) == 100

    def test_duration_mode_respects_window(self):
        trace = generate_requests(CODING_WORKLOAD, request_rate=10.0, duration=20.0, seed=1)
        assert trace[-1].arrival_time < 20.0
        # Poisson with rate 10 over 20s should produce roughly 200 arrivals.
        assert 120 < len(trace) < 300

    def test_empirical_rate_close_to_nominal(self):
        trace = generate_requests(CONVERSATION_WORKLOAD, request_rate=8.0, num_requests=800, seed=2)
        assert trace.request_rate == pytest.approx(8.0, rel=0.2)

    def test_deterministic_given_seed(self):
        a = generate_requests(CODING_WORKLOAD, 5.0, num_requests=20, seed=9)
        b = generate_requests(CODING_WORKLOAD, 5.0, num_requests=20, seed=9)
        assert [r.arrival_time for r in a] == [r.arrival_time for r in b]
        assert [r.input_length for r in a] == [r.input_length for r in b]

    def test_requires_exactly_one_mode(self):
        generator = PoissonArrivalGenerator(CODING_WORKLOAD, request_rate=1.0, seed=0)
        with pytest.raises(ValueError):
            generator.generate()
        with pytest.raises(ValueError):
            generator.generate(duration=1.0, num_requests=5)

    def test_rejects_non_positive_rate(self):
        with pytest.raises(ValueError):
            PoissonArrivalGenerator(CODING_WORKLOAD, request_rate=0.0)

    def test_workload_tag_propagated(self):
        trace = generate_requests(CODING_WORKLOAD, 5.0, num_requests=5, seed=0)
        assert all(r.workload == "coding" for r in trace)


class TestTrace:
    def test_sorted_by_arrival(self):
        requests = [
            Request(request_id=0, arrival_time=3.0, input_length=10, output_length=2),
            Request(request_id=1, arrival_time=1.0, input_length=10, output_length=2),
        ]
        trace = Trace(requests=requests)
        assert trace[0].arrival_time <= trace[1].arrival_time

    def test_window_selects_half_open_interval(self):
        trace = generate_requests(CODING_WORKLOAD, 10.0, duration=10.0, seed=4)
        window = trace.window(2.0, 5.0)
        assert all(2.0 <= r.arrival_time < 5.0 for r in window)

    def test_statistics_on_empty_trace(self):
        empty = Trace(requests=[])
        assert empty.is_empty
        assert empty.request_rate == 0.0
        assert empty.mean_input_length == 0.0

    def test_total_tokens(self):
        trace = generate_requests(CODING_WORKLOAD, 5.0, num_requests=10, seed=0)
        assert trace.total_tokens == trace.total_input_tokens + trace.total_output_tokens

    def test_merge_traces_renumbers(self):
        a = generate_requests(CODING_WORKLOAD, 5.0, num_requests=5, seed=0)
        late = generate_requests(CONVERSATION_WORKLOAD, 5.0, num_requests=5, seed=1)
        b = Trace(requests=[replace(r, arrival_time=r.arrival_time + 100.0) for r in late])
        merged = merge_traces([a, b])
        assert len(merged) == 10
        assert [r.request_id for r in merged] == list(range(10))
        assert merged[-1].arrival_time >= 100.0


class TestProfiler:
    def _requests(self, n, input_len, output_len, rate=10.0, start=0.0):
        return [
            Request(request_id=i, arrival_time=start + i / rate,
                    input_length=input_len, output_length=output_len)
            for i in range(n)
        ]

    def test_current_stats(self):
        profiler = WorkloadProfiler(window_size=100)
        profiler.observe_many(self._requests(50, 1000, 20))
        stats = profiler.current_stats()
        assert stats.mean_input_length == pytest.approx(1000)
        assert stats.mean_output_length == pytest.approx(20)
        assert stats.request_rate == pytest.approx(10.0, rel=0.1)

    def test_no_shift_when_workload_stable(self):
        profiler = WorkloadProfiler(window_size=64, min_requests=16)
        profiler.observe_many(self._requests(64, 1000, 20))
        profiler.set_reference()
        profiler.observe_many(self._requests(64, 1005, 21, start=10.0))
        assert profiler.detect_shift() is None

    def test_shift_detected_on_output_length_change(self):
        profiler = WorkloadProfiler(window_size=64, min_requests=16, shift_threshold=0.5)
        profiler.observe_many(self._requests(64, 1000, 13))
        profiler.set_reference()
        profiler.observe_many(self._requests(64, 1000, 129, start=10.0))
        shift = profiler.detect_shift()
        assert shift is not None
        assert shift.output_ratio > 1.5

    def test_no_shift_before_min_requests(self):
        profiler = WorkloadProfiler(window_size=64, min_requests=32)
        profiler.observe_many(self._requests(8, 1000, 13))
        profiler.set_reference()
        profiler.observe_many(self._requests(8, 1000, 300, start=5.0))
        assert profiler.detect_shift() is None

    def test_reference_from_spec(self):
        profiler = WorkloadProfiler()
        stats = profiler.set_reference_from_spec(CODING_WORKLOAD, request_rate=9.0)
        assert stats.request_rate == 9.0
        assert profiler.reference is stats

    def test_observed_stats_convert_to_spec(self):
        profiler = WorkloadProfiler()
        profiler.observe_many(self._requests(32, 800, 50))
        spec = profiler.current_stats().as_spec()
        assert spec.median_input_length == pytest.approx(800)
        assert spec.median_output_length == pytest.approx(50)
