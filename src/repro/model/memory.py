"""Parameter and KV-cache memory accounting.

The scheduler needs two memory quantities per model:

* the total parameter footprint (to eliminate serving groups that cannot even hold
  one model copy — the early feasibility check in §3.2), and
* the per-token KV-cache footprint (to size decode batches and to compute the
  KV-transfer volume of Equation 1).
"""

from __future__ import annotations

from repro.model.architecture import ModelConfig


def parameter_count(model: ModelConfig) -> float:
    """Approximate number of parameters of the model.

    Counts, per transformer block: QKV and output projections
    (``2*h*h + 2*h*kv_h``), the feed-forward matrices (gate/up/down for LLaMA-style
    FFNs: ``3*h*f``), and the per-layer norm weights; plus the token embedding and
    LM head.
    """
    h = model.hidden_size
    kv = model.kv_hidden_size
    f = model.ffn_size
    attn = h * h + 2 * h * kv + h * h  # Q, K, V, O projections
    ffn = 3 * h * f                    # gate, up, down
    norms = 2 * h
    per_layer = attn + ffn + norms
    embeddings = 2 * model.vocab_size * h  # token embedding + LM head
    return float(model.num_layers * per_layer + embeddings + h)


def parameter_bytes(model: ModelConfig) -> float:
    """Total parameter memory footprint in bytes (at the model dtype)."""
    return parameter_count(model) * model.dtype_bytes


def weight_bytes_per_layer(model: ModelConfig) -> float:
    """Parameter bytes of a single transformer block (excludes embeddings).

    Used by the non-uniform pipeline layer partitioner, which balances stage memory
    and compute across GPUs with different capacities.
    """
    h = model.hidden_size
    kv = model.kv_hidden_size
    f = model.ffn_size
    per_layer = (h * h + 2 * h * kv + h * h) + 3 * h * f + 2 * h
    return float(per_layer * model.dtype_bytes)


def kv_cache_bytes_per_token(model: ModelConfig, bits: int = 16, num_layers: int | None = None) -> float:
    """KV-cache bytes stored per token.

    Each layer stores a key and a value vector of width ``kv_hidden_size``;
    ``bits`` controls the storage precision (16 for serving, 4/8 for transport
    quantization).  ``num_layers`` restricts the count to a pipeline-stage subset.
    """
    if bits not in (4, 8, 16):
        raise ValueError(f"bits must be 4, 8 or 16, got {bits}")
    layers = model.num_layers if num_layers is None else num_layers
    if layers < 0:
        raise ValueError("num_layers must be >= 0")
    bytes_per_element = bits / 8.0
    return float(2 * layers * model.kv_hidden_size * bytes_per_element)


__all__ = [
    "parameter_count",
    "parameter_bytes",
    "weight_bytes_per_layer",
    "kv_cache_bytes_per_token",
]
