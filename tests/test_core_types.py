"""Unit tests for the core value types (Phase, Request, RequestMetrics, SLOSpec)."""

import pytest

from repro.core.types import Phase, Request, RequestMetrics, SLOSpec, SLOType


class TestPhase:
    def test_other_flips_prefill_to_decode(self):
        assert Phase.PREFILL.other() is Phase.DECODE

    def test_other_flips_decode_to_prefill(self):
        assert Phase.DECODE.other() is Phase.PREFILL

    def test_phase_values_are_strings(self):
        assert Phase.PREFILL.value == "prefill"
        assert Phase.DECODE.value == "decode"

    def test_phase_constructible_from_string(self):
        assert Phase("prefill") is Phase.PREFILL


class TestRequest:
    def test_total_tokens(self):
        request = Request(request_id=0, arrival_time=0.0, input_length=100, output_length=20)
        assert request.total_tokens == 120

    def test_negative_arrival_rejected(self):
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=-1.0, input_length=10, output_length=1)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=0.0, input_length=0, output_length=1)

    def test_zero_output_rejected(self):
        with pytest.raises(ValueError):
            Request(request_id=0, arrival_time=0.0, input_length=1, output_length=0)

    def test_with_arrival_returns_shifted_copy(self):
        request = Request(request_id=3, arrival_time=1.0, input_length=10, output_length=2)
        shifted = request.with_arrival(5.0)
        assert shifted.arrival_time == 5.0
        assert shifted.request_id == 3
        assert request.arrival_time == 1.0

    def test_fresh_id_monotone(self):
        first = Request.fresh_id()
        second = Request.fresh_id()
        assert second > first


def _make_metrics(**overrides):
    request = Request(request_id=1, arrival_time=10.0, input_length=100, output_length=5)
    metrics = RequestMetrics(
        request=request,
        enqueue_time=10.0,
        prefill_start=10.5,
        first_token_time=11.0,
        kv_transfer_done=11.2,
        completion_time=12.0,
        finished=True,
    )
    for key, value in overrides.items():
        setattr(metrics, key, value)
    return metrics


class TestRequestMetrics:
    def test_ttft(self):
        assert _make_metrics().ttft == pytest.approx(1.0)

    def test_queue_time(self):
        assert _make_metrics().queue_time == pytest.approx(0.5)

    def test_prefill_time(self):
        assert _make_metrics().prefill_time == pytest.approx(0.5)

    def test_kv_transfer_time(self):
        assert _make_metrics().kv_transfer_time == pytest.approx(0.2)

    def test_decode_time(self):
        assert _make_metrics().decode_time == pytest.approx(0.8)

    def test_e2e_latency(self):
        assert _make_metrics().e2e_latency == pytest.approx(2.0)

    def test_tpot_averages_over_remaining_tokens(self):
        # 5 output tokens -> 4 decode-generated tokens over 1 second.
        assert _make_metrics().tpot == pytest.approx(0.25)

    def test_tpot_zero_for_single_token_output(self):
        request = Request(request_id=2, arrival_time=0.0, input_length=10, output_length=1)
        metrics = RequestMetrics(request=request, first_token_time=1.0, completion_time=1.0, finished=True)
        assert metrics.tpot == 0.0

    def test_value_for_dispatches_by_slo_type(self):
        metrics = _make_metrics()
        assert metrics.value_for(SLOType.TTFT) == metrics.ttft
        assert metrics.value_for(SLOType.TPOT) == metrics.tpot
        assert metrics.value_for(SLOType.E2E) == metrics.e2e_latency

    def test_ttft_never_exceeds_e2e(self):
        metrics = _make_metrics()
        assert metrics.ttft <= metrics.e2e_latency


class TestSLOSpec:
    def test_rejects_non_positive_deadlines(self):
        with pytest.raises(ValueError):
            SLOSpec(ttft=0.0, tpot=0.1, e2e=1.0)

    def test_from_scale_scales_linearly(self):
        small = SLOSpec.from_scale(1.0, reference_ttft=0.5, reference_tpot=0.05, mean_output_length=10)
        large = SLOSpec.from_scale(2.0, reference_ttft=0.5, reference_tpot=0.05, mean_output_length=10)
        assert large.ttft == pytest.approx(2 * small.ttft)
        assert large.tpot == pytest.approx(2 * small.tpot)
        assert large.e2e == pytest.approx(2 * small.e2e)

    def test_from_scale_e2e_covers_prefill_plus_decode(self):
        spec = SLOSpec.from_scale(1.0, reference_ttft=0.5, reference_tpot=0.05, mean_output_length=10)
        assert spec.e2e == pytest.approx(0.5 + 0.05 * 10)

    def test_scaled_factor_must_be_positive(self):
        spec = SLOSpec(ttft=1.0, tpot=0.1, e2e=2.0)
        with pytest.raises(ValueError):
            spec.scaled(0.0)

    def test_deadline_for(self):
        spec = SLOSpec(ttft=1.0, tpot=0.1, e2e=2.0)
        assert spec.deadline_for(SLOType.TTFT) == 1.0
        assert spec.deadline_for(SLOType.TPOT) == 0.1
        assert spec.deadline_for(SLOType.E2E) == 2.0

    def test_is_met_requires_finished(self):
        spec = SLOSpec(ttft=10.0, tpot=10.0, e2e=10.0)
        metrics = _make_metrics(finished=False)
        assert not spec.is_met(metrics, SLOType.E2E)

    def test_is_met_true_when_under_deadline(self):
        spec = SLOSpec(ttft=10.0, tpot=10.0, e2e=10.0)
        assert spec.is_met(_make_metrics(), SLOType.E2E)

    def test_is_met_false_when_over_deadline(self):
        spec = SLOSpec(ttft=0.1, tpot=0.001, e2e=0.1)
        assert not spec.is_met(_make_metrics(), SLOType.TTFT)
