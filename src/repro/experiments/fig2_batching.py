"""Figure 2: the effect of batching on the prefill and decode phases.

LLaMA-7B, sequences of 1024 tokens, batch sizes 1-6.  Prefill throughput plateaus
almost immediately (the GPU is already saturated by one 1024-token prompt) while
decode throughput keeps climbing with the batch size — the asymmetry that makes
latency-optimal prefill replicas and throughput-optimal decode replicas the right
objectives.
"""

from __future__ import annotations

from typing import Sequence

from repro.costmodel.latency import DEFAULT_PARAMS, ReplicaCostModel
from repro.experiments.common import ExperimentResult, default_model
from repro.hardware.cluster import make_homogeneous_cluster
from repro.parallelism.config import ReplicaPlan


def run(
    model_name: str = "llama-7b",
    gpu_type: str = "A5000",
    sequence_length: int = 1024,
    batch_sizes: Sequence[int] = (1, 2, 3, 4, 5, 6),
) -> ExperimentResult:
    """Throughput (tokens/s) vs batch size for both phases on a single GPU."""
    model = default_model(model_name)
    cluster = make_homogeneous_cluster(gpu_type, num_gpus=1, gpus_per_node=1)
    gpu_id = cluster.gpu_ids[0]
    plan = ReplicaPlan.from_stage_lists([[gpu_id]], [model.num_layers])
    cost = ReplicaCostModel(cluster, plan, model, DEFAULT_PARAMS)

    rows = []
    for batch in batch_sizes:
        prefill_latency = cost.prefill_latency(sequence_length, batch_size=batch)
        prefill_tokens_per_s = sequence_length * batch / prefill_latency
        decode_step = cost.decode_step_latency(batch, sequence_length)
        decode_tokens_per_s = batch / decode_step
        rows.append([batch, prefill_tokens_per_s, decode_tokens_per_s])

    prefill_gain = rows[-1][1] / rows[0][1]
    decode_gain = rows[-1][2] / rows[0][2]
    return ExperimentResult(
        name=f"Figure 2: batching effect ({model_name}, seq {sequence_length}, {gpu_type})",
        headers=["batch_size", "prefill_tokens_per_s", "decode_tokens_per_s"],
        rows=rows,
        notes=(
            f"batch 1->{batch_sizes[-1]} gain: prefill x{prefill_gain:.2f} (plateau), "
            f"decode x{decode_gain:.2f} (keeps scaling)"
        ),
        extras={"prefill_gain": prefill_gain, "decode_gain": decode_gain},
    )


__all__ = ["run"]
