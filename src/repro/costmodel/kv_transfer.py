"""KV-cache transfer cost between prefill and decode replicas (Equation 1).

After the prefill replica computes a request's KV cache it must ship the cache to
the decode replica.  The volume is ``2 * layers * kv_hidden * tokens`` elements per
sequence; transport precision (16-bit natively, 4-bit with ThunderServe's one-shot
compression) scales the byte count.  The transfer runs over the single best link
between the two replicas' GPU sets, modelled with the alpha-beta formula.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.costmodel.alpha_beta import transfer_seconds
from repro.hardware.network import NetworkModel
from repro.model.architecture import ModelConfig
from repro.model.memory import kv_cache_bytes_per_token


def kv_transfer_bytes(model: ModelConfig, num_tokens: int, bits: int = 16) -> float:
    """Bytes of KV cache transferred for one sequence of ``num_tokens`` tokens."""
    if num_tokens < 0:
        raise ValueError("num_tokens must be >= 0")
    return kv_cache_bytes_per_token(model, bits=bits) * num_tokens


def kv_link(
    network: NetworkModel, src_gpu_ids: Sequence[int], dst_gpu_ids: Sequence[int]
) -> Optional[Tuple[float, float]]:
    """``(alpha, beta)`` of the link a KV handoff between two GPU sets takes.

    The handoff runs over the fastest single link between the sets
    (:meth:`NetworkModel.best_link_between`); ``alpha`` is its latency in
    seconds and ``beta`` its bandwidth in bytes/s.  Sets that share a GPU
    need no link and give ``None``.
    """
    src = list(src_gpu_ids)
    dst = list(dst_gpu_ids)
    if set(src) & set(dst):
        return None
    i, j, _bw = network.best_link_between(src, dst)
    return network.latency_s(i, j), network.bandwidth_bytes(i, j)


def kv_transfer_seconds(
    network: NetworkModel,
    src_gpu_ids: Sequence[int],
    dst_gpu_ids: Sequence[int],
    model: ModelConfig,
    num_tokens: int,
    bits: int = 16,
) -> float:
    """Time to ship one request's KV cache from a prefill to a decode replica.

    ``bits`` is the transport precision (4 with compression enabled, 16
    without).  Co-located replicas (sharing a GPU) transfer for free.
    """
    link = kv_link(network, src_gpu_ids, dst_gpu_ids)
    if link is None:
        return 0.0
    alpha, beta = link
    return transfer_seconds(alpha, beta, kv_transfer_bytes(model, num_tokens, bits))


def kv_transfer_fraction(
    transfer_seconds_value: float,
    prefill_seconds: float,
    decode_seconds: float,
) -> float:
    """Fraction of the end-to-end request time spent on KV transfer.

    The paper reports that 4-bit compression shrinks this fraction from 16–30 % to
    4–9 % on 40 Gbps links.
    """
    total = transfer_seconds_value + prefill_seconds + decode_seconds
    if total <= 0:
        return 0.0
    return transfer_seconds_value / total


__all__ = ["kv_transfer_bytes", "kv_link", "kv_transfer_seconds", "kv_transfer_fraction"]
