"""Transformer model architecture configurations and analytic accounting.

* :mod:`repro.model.architecture` — named model configurations (LLaMA 7B/13B/30B,
  OPT variants) with layer count, hidden size, head counts and vocabulary size.
* :mod:`repro.model.memory` — parameter and KV-cache memory accounting, used by the
  deployment-plan feasibility checks and the paged KV cache manager.
* :mod:`repro.model.flops` — first-principles per-phase FLOPs and memory-traffic
  accounting.  The roofline latency model prices work on its own path; these
  functions are kept apart from it as the independent pricing of a planned
  envelope check on simulated runs.
"""

from repro.model.architecture import ModelConfig, MODEL_CATALOG, get_model_config
from repro.model.memory import (
    parameter_count,
    parameter_bytes,
    kv_cache_bytes_per_token,
    weight_bytes_per_layer,
)
from repro.model.flops import (
    prefill_flops,
    decode_flops_per_token,
    attention_flops,
    mlp_flops,
    prefill_memory_bytes,
    decode_memory_bytes_per_token,
)

__all__ = [
    "ModelConfig",
    "MODEL_CATALOG",
    "get_model_config",
    "parameter_count",
    "parameter_bytes",
    "kv_cache_bytes_per_token",
    "weight_bytes_per_layer",
    "prefill_flops",
    "decode_flops_per_token",
    "attention_flops",
    "mlp_flops",
    "prefill_memory_bytes",
    "decode_memory_bytes_per_token",
]
