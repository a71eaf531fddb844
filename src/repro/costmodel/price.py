"""Per-request phase prices (Figure 1).

Figure 1 of the paper motivates heterogeneous phase splitting by showing that the
*dollar* cost of a prefill is lowest on compute-dense GPUs (A40) while the dollar
cost of a decode is lowest on bandwidth-dense GPUs (3090Ti).  The price of a phase
is simply its roofline execution time multiplied by the GPU's hourly rate.
"""

from __future__ import annotations

from repro.core.types import Phase
from repro.costmodel.latency import CostModelParams, DEFAULT_PARAMS, single_gpu_phase_latency
from repro.hardware.gpu import GPUSpec, get_gpu_spec
from repro.model.architecture import ModelConfig


def phase_price_per_request(
    gpu: str | GPUSpec,
    model: ModelConfig,
    phase: Phase | str,
    input_length: int = 512,
    output_length: int = 16,
    params: CostModelParams = DEFAULT_PARAMS,
) -> float:
    """Dollar cost of one request's prefill or decode phase on one GPU type."""
    spec = gpu if isinstance(gpu, GPUSpec) else get_gpu_spec(gpu)
    phase_enum = phase if isinstance(phase, Phase) else Phase(phase)
    seconds = single_gpu_phase_latency(
        spec, model, phase_enum,
        input_length=input_length, output_length=output_length, params=params,
    )
    return seconds * spec.price_per_hour / 3600.0


__all__ = ["phase_price_per_request"]
