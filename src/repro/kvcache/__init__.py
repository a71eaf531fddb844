"""KV-cache management and transport quantization.

* :mod:`repro.kvcache.paged` — a PagedAttention-style block manager that tracks KV
  cache occupancy per sequence; the decode-replica simulator uses it to decide how
  many sequences can be batched.
* :mod:`repro.kvcache.quantization` — group-wise int4/int8 quantization used to
  compress KV caches *for transport only* (values are dequantized before compute,
  exactly as §4 of the paper describes), plus the codec helpers for packing.
"""

from repro.kvcache.paged import PagedKVCache, BlockAllocationError
from repro.kvcache.quantization import (
    QuantizedTensor,
    quantize_groupwise,
    dequantize_groupwise,
    compression_ratio,
)

__all__ = [
    "PagedKVCache",
    "BlockAllocationError",
    "QuantizedTensor",
    "quantize_groupwise",
    "dequantize_groupwise",
    "compression_ratio",
]
