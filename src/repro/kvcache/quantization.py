"""Group-wise KV-cache quantization for transport compression.

ThunderServe compresses KV caches before shipping them from prefill to decode
replicas: values are quantized group-wise to 4 bits (following KIVI's asymmetric
min/max scheme), packed, sent over the slow cloud link, then unpacked and
dequantized — compute on both sides always uses the full-precision values.  This
module implements that codec with NumPy and is used both by the quality
experiments (Tables 2, 6, 7) and, through its byte-size accounting, by the
KV-transfer cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


@dataclass(frozen=True)
class QuantizedTensor:
    """A group-wise quantized tensor plus the metadata needed to reconstruct it.

    Attributes
    ----------
    packed:
        Quantized codes as ``uint8``.  For 4-bit quantization two codes share one
        byte; for 8-bit each code is one byte.
    scales / zeros:
        Per-group dequantization parameters (``float32``): ``x ≈ codes * scale + zero``.
    shape:
        Original tensor shape.
    bits:
        Quantization bit width (4 or 8).
    group_size:
        Number of consecutive elements (along the flattened last axis) sharing one
        scale/zero pair.
    """

    packed: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray
    shape: Tuple[int, ...]
    bits: int
    group_size: int

    @property
    def num_elements(self) -> int:
        """Number of elements of the original tensor."""
        return int(np.prod(self.shape)) if self.shape else 1

    @property
    def payload_bytes(self) -> int:
        """Bytes actually shipped over the wire (codes + scales + zeros)."""
        return int(self.packed.nbytes + self.scales.nbytes + self.zeros.nbytes)


def _validate_bits(bits: int) -> None:
    if bits not in (4, 8):
        raise ValueError(f"bits must be 4 or 8, got {bits}")


def quantize_groupwise(
    tensor: np.ndarray, bits: int = 4, group_size: int = 64
) -> QuantizedTensor:
    """Quantize a tensor with asymmetric per-group min/max quantization.

    The tensor is flattened, padded to a multiple of ``group_size`` and split into
    groups; each group gets its own scale and zero point so outliers in one group
    do not destroy the precision of others (the key idea behind KIVI-style KV
    quantization).
    """
    _validate_bits(bits)
    if group_size < 1:
        raise ValueError("group_size must be >= 1")
    arr = np.asarray(tensor, dtype=np.float32)
    flat = arr.reshape(-1)
    n = flat.size
    padded_len = -(-max(n, 1) // group_size) * group_size
    # Pad with the last real value (not zeros) so padding never widens a group's
    # [min, max] range and therefore never degrades the precision of real data.
    fill = flat[-1] if n > 0 else 0.0
    padded = np.full(padded_len, fill, dtype=np.float32)
    padded[:n] = flat
    groups = padded.reshape(-1, group_size)

    g_min = groups.min(axis=1, keepdims=True)
    g_max = groups.max(axis=1, keepdims=True)
    qmax = float(2**bits - 1)
    scale = (g_max - g_min) / qmax
    scale = np.where(scale == 0, 1.0, scale)
    codes = np.clip(np.round((groups - g_min) / scale), 0, qmax).astype(np.uint8)

    codes_flat = codes.reshape(-1)
    if bits == 4:
        if codes_flat.size % 2 == 1:  # pragma: no cover - padded length is even for group_size>=2
            codes_flat = np.concatenate([codes_flat, np.zeros(1, dtype=np.uint8)])
        packed = (codes_flat[0::2] << 4) | codes_flat[1::2]
    else:
        packed = codes_flat

    return QuantizedTensor(
        packed=packed,
        scales=scale.astype(np.float32).reshape(-1),
        zeros=g_min.astype(np.float32).reshape(-1),
        shape=tuple(arr.shape),
        bits=bits,
        group_size=group_size,
    )


def dequantize_groupwise(qt: QuantizedTensor) -> np.ndarray:
    """Reconstruct the (approximate) original tensor from a :class:`QuantizedTensor`."""
    _validate_bits(qt.bits)
    if qt.bits == 4:
        high = (qt.packed >> 4) & 0x0F
        low = qt.packed & 0x0F
        codes = np.empty(qt.packed.size * 2, dtype=np.uint8)
        codes[0::2] = high
        codes[1::2] = low
    else:
        codes = qt.packed
    groups = codes.reshape(-1, qt.group_size).astype(np.float32)
    values = groups * qt.scales[:, None] + qt.zeros[:, None]
    flat = values.reshape(-1)[: qt.num_elements]
    return flat.reshape(qt.shape).astype(np.float32)


def compression_ratio(qt: QuantizedTensor, source_dtype_bytes: int = 2) -> float:
    """Ratio of original bytes to transported bytes (higher is better).

    A 16-bit cache quantized to 4 bits approaches 4x as the group size grows (the
    per-group scales and zeros add a small overhead).
    """
    original = qt.num_elements * source_dtype_bytes
    if qt.payload_bytes == 0:
        return float("inf")
    return original / qt.payload_bytes


__all__ = [
    "QuantizedTensor",
    "quantize_groupwise",
    "dequantize_groupwise",
    "compression_ratio",
]
