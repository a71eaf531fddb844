"""Tests for table formatting and the lightweight experiment modules."""

import pytest

from repro.experiments import (
    fig1_phase_prices,
    fig2_batching,
    fig11_rescheduling,
    fig13_bandwidth,
    table1_gpus,
    table2_kv_quality,
)
from repro.experiments.common import ExperimentResult, fixed_ratio_plan
from repro.utils.tables import format_table, format_value


class TestTables:
    def test_format_value_floats(self):
        assert format_value(1.23456) == "1.235"
        assert format_value(float("nan")) == "nan"
        assert format_value(float("inf")) == "inf"

    def test_format_value_passthrough(self):
        assert format_value("abc") == "abc"
        assert format_value(7) == "7"

    def test_format_table_alignment(self):
        table = format_table(["a", "long_header"], [[1, 2.5], [300, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1  # all rows padded equally

    def test_format_table_title(self):
        table = format_table(["x"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestExperimentResult:
    def test_to_table_and_column(self):
        result = ExperimentResult(name="demo", headers=["x", "y"], rows=[[1, 2], [3, 4]])
        assert "demo" in result.to_table()
        assert result.column("y") == [2, 4]

    def test_unknown_column_raises(self):
        result = ExperimentResult(name="demo", headers=["x"], rows=[[1]])
        with pytest.raises(ValueError):
            result.column("z")


class TestLightExperiments:
    def test_table1_lists_all_gpus(self):
        result = table1_gpus.run()
        assert len(result.rows) == 5
        assert "A40" in result.column("gpu")

    def test_fig1_reproduces_phase_affinity(self):
        result = fig1_phase_prices.run()
        assert result.extras["cheapest_prefill"] == "A40"
        assert result.extras["cheapest_decode"] == "3090Ti"

    def test_fig2_batching_shape(self):
        result = fig2_batching.run()
        # Prefill plateaus (small gain), decode keeps scaling (large gain).
        assert result.extras["prefill_gain"] < 1.5
        assert result.extras["decode_gain"] > 3.0

    def test_fig13_cloud_more_heterogeneous_than_inhouse(self):
        result = fig13_bandwidth.run()
        cloud_row = next(r for r in result.rows if "cloud" in r[0])
        inhouse_row = next(r for r in result.rows if "in-house" in r[0])
        assert cloud_row[4] > 5.0      # max/min heterogeneity
        assert inhouse_row[4] == pytest.approx(1.0)
        assert result.extras["cloud_matrix"].shape == (32, 32)

    def test_table2_quality_degrades_gracefully(self):
        result = table2_kv_quality.run(num_prompts=2, prompt_length=24, generate_tokens=8)
        agreements = {(row[0], row[1]): row[2] for row in result.rows}
        for (model_name, bits), agreement in agreements.items():
            assert 0.0 <= agreement <= 1.0
            if bits == 8:
                assert agreement > 0.9


class TestFig11Rescheduling:
    def test_plan_without_decode_groups_serves_nothing(
        self, small_hetero_cluster, small_plan, model_30b, small_trace, relaxed_slo
    ):
        # Dropping a failed node can take a plan's only decode group with it.
        from repro.core.types import SLOType
        from repro.scheduling.deployment import DeploymentPlan

        prefill_only = DeploymentPlan(
            groups=tuple(small_plan.prefill_groups),
            routing=None,
            model_name=small_plan.model_name,
            kv_transport_bits=small_plan.kv_transport_bits,
        )
        result = fig11_rescheduling._simulate(
            small_hetero_cluster, prefill_only, model_30b, small_trace, seed=0
        )
        assert len(result.metrics) == len(small_trace)
        assert not any(m.finished for m in result.metrics)
        assert result.slo_attainment(relaxed_slo, SLOType.E2E) == 0.0


class TestFixedRatioPlan:
    def test_ratio_reflected_in_plan(self, model_13b):
        from repro.hardware.cluster import make_homogeneous_cluster
        from repro.workload.spec import CONVERSATION_WORKLOAD

        cluster = make_homogeneous_cluster("A5000", num_gpus=8, gpus_per_node=4)
        plan, result = fixed_ratio_plan(
            cluster, model_13b, CONVERSATION_WORKLOAD, request_rate=4.0,
            num_prefill=1, num_decode=3, gpus_per_replica=2,
        )
        assert plan.prefill_decode_ratio == (1, 3)
        assert result.feasible

    def test_oversized_ratio_rejected(self, model_13b):
        from repro.hardware.cluster import make_homogeneous_cluster
        from repro.workload.spec import CODING_WORKLOAD

        cluster = make_homogeneous_cluster("A5000", num_gpus=8, gpus_per_node=4)
        with pytest.raises(ValueError):
            fixed_ratio_plan(cluster, model_13b, CODING_WORKLOAD, 4.0, 4, 4, 2)
