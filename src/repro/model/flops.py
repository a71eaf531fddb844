"""Per-phase FLOPs and memory-traffic accounting.

The roofline cost model estimates phase latency as the maximum of compute time
(FLOPs / effective FLOPS) and memory time (bytes moved / bandwidth).  This module
provides the two numerators:

* prefill over ``s`` prompt tokens is dominated by dense GEMMs: roughly
  ``2 * params * s`` FLOPs plus quadratic attention ``O(s^2 * h)``;
* decode emits one token at a time, so per token it performs ``2 * params`` FLOPs
  but must stream the entire parameter set plus the growing KV cache from memory —
  which is why decode is memory-bandwidth bound.
"""

from __future__ import annotations

from repro.model.architecture import ModelConfig
from repro.model.memory import kv_cache_bytes_per_token, parameter_bytes


def attention_flops(model: ModelConfig, seq_len: int, context_len: int, num_layers: int | None = None) -> float:
    """FLOPs of the attention score/value computation for ``seq_len`` query tokens.

    ``context_len`` is the number of key/value positions attended to (equal to
    ``seq_len`` during prefill; the running context length during decode).
    """
    if seq_len < 0 or context_len < 0:
        raise ValueError("sequence lengths must be >= 0")
    layers = model.num_layers if num_layers is None else num_layers
    # QK^T and softmax*V each cost 2 * s * ctx * h per layer.
    return float(layers * 4.0 * seq_len * context_len * model.hidden_size)


def mlp_flops(model: ModelConfig, seq_len: int, num_layers: int | None = None) -> float:
    """FLOPs of the projection + feed-forward GEMMs for ``seq_len`` tokens."""
    if seq_len < 0:
        raise ValueError("seq_len must be >= 0")
    layers = model.num_layers if num_layers is None else num_layers
    h = model.hidden_size
    kv = model.kv_hidden_size
    f = model.ffn_size
    per_token = 2.0 * (h * h + 2 * h * kv + h * h) + 2.0 * (3 * h * f)
    return float(layers * per_token * seq_len)


def prefill_flops(model: ModelConfig, input_length: int, num_layers: int | None = None) -> float:
    """Total FLOPs of the prefill phase over a prompt of ``input_length`` tokens."""
    return mlp_flops(model, input_length, num_layers) + attention_flops(
        model, input_length, input_length, num_layers
    )


def decode_flops_per_token(model: ModelConfig, context_length: int, num_layers: int | None = None) -> float:
    """FLOPs to generate one token given ``context_length`` tokens of KV cache."""
    return mlp_flops(model, 1, num_layers) + attention_flops(model, 1, context_length, num_layers)


def prefill_memory_bytes(
    model: ModelConfig,
    input_length: int,
    batch_size: int = 1,
    num_layers: int | None = None,
) -> float:
    """Approximate bytes moved from device memory during prefill.

    Weights are read once per batch (they are reused across the many tokens of the
    prompt), plus the activations / KV cache written for the batch.
    """
    layers = model.num_layers if num_layers is None else num_layers
    frac = layers / model.num_layers
    weights = parameter_bytes(model) * frac
    kv_written = kv_cache_bytes_per_token(model, num_layers=layers) * input_length * batch_size
    activations = 2.0 * model.hidden_size * model.dtype_bytes * input_length * batch_size * layers
    return float(weights + kv_written + activations)


def decode_memory_bytes_per_token(
    model: ModelConfig,
    context_length: int,
    batch_size: int = 1,
    num_layers: int | None = None,
) -> float:
    """Bytes moved from device memory to generate one token for every sequence in a batch.

    Every decode step must stream the resident weight shard once (shared across the
    batch) and each sequence's KV cache (``context_length`` tokens).  This is the
    quantity that makes decode memory-bound and batching essential.
    """
    layers = model.num_layers if num_layers is None else num_layers
    frac = layers / model.num_layers
    weights = parameter_bytes(model) * frac
    kv_read = kv_cache_bytes_per_token(model, num_layers=layers) * context_length * batch_size
    return float(weights + kv_read)


__all__ = [
    "attention_flops",
    "mlp_flops",
    "prefill_flops",
    "decode_flops_per_token",
    "prefill_memory_bytes",
    "decode_memory_bytes_per_token",
]
