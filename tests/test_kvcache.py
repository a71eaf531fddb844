"""Unit tests for the paged KV cache and the transport quantization codec."""

import numpy as np
import pytest

from repro.kvcache.paged import BlockAllocationError, PagedKVCache
from repro.kvcache.quantization import compression_ratio, dequantize_groupwise, quantize_groupwise


def _relative_error(arr, bits):
    """Relative L2 error of a quantize -> dequantize round trip."""
    restored = dequantize_groupwise(quantize_groupwise(arr, bits=bits))
    return float(np.linalg.norm(arr - restored) / np.linalg.norm(arr))


class TestPagedKVCache:
    def test_blocks_needed_ceil(self):
        cache = PagedKVCache(num_blocks=10, block_size=16)
        assert cache.blocks_needed(1) == 1
        assert cache.blocks_needed(16) == 1
        assert cache.blocks_needed(17) == 2

    def test_allocate_and_free(self):
        cache = PagedKVCache(num_blocks=10, block_size=16)
        blocks = cache.allocate(seq_id=1, num_tokens=40)
        assert blocks == 3
        assert cache.num_blocks - cache.free_blocks == 3
        assert cache.free(1) == 3
        assert cache.num_blocks - cache.free_blocks == 0

    def test_double_allocate_rejected(self):
        cache = PagedKVCache(num_blocks=10)
        cache.allocate(1, 10)
        with pytest.raises(BlockAllocationError):
            cache.allocate(1, 10)

    def test_capacity_enforced(self):
        cache = PagedKVCache(num_blocks=2, block_size=16)
        assert not cache.can_allocate(64)
        with pytest.raises(BlockAllocationError):
            cache.allocate(1, 64)

    def test_free_unknown_sequence_raises(self):
        cache = PagedKVCache(num_blocks=2)
        with pytest.raises(BlockAllocationError):
            cache.free(99)

    def test_utilization(self):
        cache = PagedKVCache(num_blocks=4, block_size=16)
        cache.allocate(1, 32)
        assert cache.free_blocks == 2  # half of the 4 blocks in use

    def test_reset(self):
        cache = PagedKVCache(num_blocks=4, block_size=16)
        cache.allocate(1, 32)
        cache.reset()
        assert cache.num_blocks - cache.free_blocks == 0
        assert len(cache._sequences) == 0


class TestQuantization:
    def test_roundtrip_preserves_shape_and_dtype(self):
        arr = np.random.default_rng(0).standard_normal((12, 17)).astype(np.float32)
        qt = quantize_groupwise(arr, bits=4)
        restored = dequantize_groupwise(qt)
        assert restored.shape == arr.shape
        assert restored.dtype == np.float32

    def test_roundtrip_error_small_int8(self):
        arr = np.random.default_rng(1).standard_normal(4096).astype(np.float32)
        assert _relative_error(arr, bits=8) < 0.01

    def test_roundtrip_error_moderate_int4(self):
        arr = np.random.default_rng(2).standard_normal(4096).astype(np.float32)
        assert _relative_error(arr, bits=4) < 0.1

    def test_int8_more_accurate_than_int4(self):
        arr = np.random.default_rng(3).standard_normal(2048).astype(np.float32)
        assert _relative_error(arr, bits=8) < _relative_error(arr, bits=4)

    def test_constant_tensor_exact(self):
        arr = np.full(256, 3.25, dtype=np.float32)
        restored = dequantize_groupwise(quantize_groupwise(arr, bits=4))
        assert np.allclose(restored, arr)

    def test_extremes_preserved_per_group(self):
        rng = np.random.default_rng(4)
        arr = rng.standard_normal(64).astype(np.float32)
        qt = quantize_groupwise(arr, bits=4, group_size=64)
        restored = dequantize_groupwise(qt)
        assert restored.min() == pytest.approx(arr.min(), abs=1e-5)
        assert restored.max() == pytest.approx(arr.max(), abs=1e-5)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_groupwise(np.zeros(8), bits=5)

    def test_payload_bytes_packing_4bit(self):
        arr = np.random.default_rng(5).standard_normal(1024).astype(np.float32)
        q4 = quantize_groupwise(arr, bits=4, group_size=64)
        q8 = quantize_groupwise(arr, bits=8, group_size=64)
        assert q4.packed.nbytes == pytest.approx(q8.packed.nbytes / 2)

    def test_compression_ratio_above_3x_for_4bit(self):
        arr = np.random.default_rng(6).standard_normal(8192).astype(np.float32)
        qt = quantize_groupwise(arr, bits=4, group_size=128)
        assert compression_ratio(qt, source_dtype_bytes=2) > 3.0
