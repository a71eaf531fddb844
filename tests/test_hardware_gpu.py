"""Unit tests for GPU specifications and the Table 1 catalog."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.hardware.gpu import GPU, GPU_CATALOG, GPUSpec, get_gpu_spec


class TestCatalog:
    def test_contains_all_paper_gpus(self):
        for name in ("A100", "A6000", "A5000", "A40", "3090Ti"):
            assert name in GPU_CATALOG

    def test_table1_values_a100(self):
        spec = GPU_CATALOG["A100"]
        assert spec.peak_fp16_tflops == 312.0
        assert spec.memory_bandwidth_gbps == 2000.0
        assert spec.memory_gb == 80.0
        assert spec.price_per_hour == pytest.approx(1.753)

    def test_table1_values_a40(self):
        spec = GPU_CATALOG["A40"]
        assert spec.peak_fp16_tflops == pytest.approx(149.7)
        assert spec.memory_gb == 48.0

    def test_table1_values_3090ti(self):
        spec = GPU_CATALOG["3090Ti"]
        assert spec.memory_bandwidth_gbps == pytest.approx(1008.0)
        assert spec.price_per_hour == pytest.approx(0.307)

    def test_lookup_case_insensitive(self):
        assert get_gpu_spec("a40") is GPU_CATALOG["A40"]

    def test_lookup_unknown_raises(self):
        with pytest.raises(KeyError):
            get_gpu_spec("H200")

    def test_a40_has_best_flops_per_dollar(self):
        best = max(GPU_CATALOG.values(), key=lambda s: s.peak_fp16_flops / s.price_per_hour)
        assert best.name == "A40"

    def test_3090ti_has_best_bandwidth_per_dollar(self):
        best = max(
            GPU_CATALOG.values(), key=lambda s: s.memory_bandwidth_bytes / s.price_per_hour
        )
        assert best.name == "3090Ti"


class TestGPUSpec:
    def test_unit_conversions(self):
        spec = GPU_CATALOG["A100"]
        assert spec.peak_fp16_flops == pytest.approx(312e12)
        assert spec.memory_bandwidth_bytes == pytest.approx(2000e9)
        assert spec.memory_bytes == pytest.approx(80e9)

    def test_a40_more_compute_bound_friendly_than_3090ti(self):
        # Higher roofline ridge point (FLOPs per byte) = needs more FLOPs per
        # byte to saturate compute.
        def ridge(name):
            spec = GPU_CATALOG[name]
            return spec.peak_fp16_flops / spec.memory_bandwidth_bytes

        assert ridge("A40") > ridge("3090Ti")

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(name="bad", peak_fp16_tflops=0, memory_bandwidth_gbps=1, memory_gb=1, price_per_hour=1)

    def test_negative_price_rejected(self):
        with pytest.raises(ConfigurationError):
            GPUSpec(name="bad", peak_fp16_tflops=1, memory_bandwidth_gbps=1, memory_gb=1, price_per_hour=-1)


class TestGPU:
    def test_type_name(self):
        gpu = GPU(gpu_id=0, spec=GPU_CATALOG["A40"], node_id=2)
        assert gpu.type_name == "A40"
        assert gpu.node_id == 2
        assert gpu.datacenter == 0
