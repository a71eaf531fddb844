"""Table 8 / Figure 18: 16-bit vs 4-bit KV-cache transport end-to-end.

Table 8 repeats the Appendix-H two-instance case study with transport compression
switched off (16-bit) and on (4-bit).  Figure 18 sweeps the batched token size on
a 2xA5000 / LLaMA-7B pair (40 Gbps link) and reports the KV-communication time and
the end-to-end processing time for 4-, 8- and 16-bit transport.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Sequence

from repro.core.types import Phase
from repro.costmodel.kv_transfer import kv_transfer_seconds
from repro.costmodel.latency import DEFAULT_PARAMS, ReplicaCostModel
from repro.experiments.common import ExperimentResult, default_model, quick_scheduler
from repro.experiments.table5_network_case import CASE_WORKLOAD
from repro.hardware.cluster import make_homogeneous_cluster, make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.parallelism.enumeration import deduce_parallel_plan
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.workload.generator import generate_requests


def run(
    model_name: str = "llama-30b",
    request_rate: float = 6.0,
    trace_duration: float = 25.0,
    bit_widths: Sequence[int] = (16, 4),
    batched_token_sizes: Sequence[int] = (1024, 2048, 3072, 4096),
    seed: int = 0,
    scheduler_steps: int = 12,
) -> ExperimentResult:
    """End-to-end 16 vs 4-bit comparison plus the Figure 18 token-size sweep."""
    model = default_model(model_name)
    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=seed)  # 40 Gbps case
    trace = generate_requests(CASE_WORKLOAD, request_rate, duration=trace_duration, seed=seed + 701)

    rows: List[List] = []
    throughputs = {}
    for bits in bit_widths:
        scheduler = quick_scheduler(seed=seed, steps=scheduler_steps, kv_bits=bits)
        schedule = scheduler.schedule(cluster, model, CASE_WORKLOAD, request_rate)
        plan = schedule.plan
        if plan.kv_transport_bits != bits:
            plan = replace(plan, kv_transport_bits=bits)
        result = ServingSimulator(cluster, plan, model, config=SimulatorConfig(seed=seed)).run(
            trace, label=f"{bits}-bit"
        )
        summary = result.summary()
        throughputs[bits] = result.total_token_throughput
        rows.append(
            [
                "table8",
                f"{bits}-bit",
                0,
                summary["mean_prefill"] * 1e3,
                summary["mean_kv_transfer"] * 1e3,
                summary["mean_decode"] * 1e3,
                summary["mean_e2e"] * 1e3,
                result.total_token_throughput,
            ]
        )

    # Figure 18: KV-communication time vs batched token size on 2xA5000 / LLaMA-7B.
    small_model = get_model_config("llama-7b")
    pair_cluster = make_homogeneous_cluster("A5000", num_gpus=2, gpus_per_node=1, seed=seed)
    # Force the inter-node link to 40 Gbps (5 GB/s) to match the paper's testbed.
    src, dst = pair_cluster.gpu_ids[0], pair_cluster.gpu_ids[1]
    plan_src = deduce_parallel_plan(pair_cluster, [src], Phase.PREFILL, small_model, CASE_WORKLOAD)
    cost_src = ReplicaCostModel(pair_cluster, plan_src, small_model, DEFAULT_PARAMS)
    plan_dst = deduce_parallel_plan(pair_cluster, [dst], Phase.DECODE, small_model, CASE_WORKLOAD)
    cost_dst = ReplicaCostModel(pair_cluster, plan_dst, small_model, DEFAULT_PARAMS)
    for tokens in batched_token_sizes:
        for bits in (4, 8, 16):
            kv_time = kv_transfer_seconds(
                pair_cluster.network, [src], [dst], small_model,
                num_tokens=tokens, bits=bits,
            )
            prefill = cost_src.prefill_latency(tokens)
            decode = cost_dst.decode_latency(1, tokens, 16)
            rows.append(
                [
                    "fig18",
                    f"{bits}-bit",
                    tokens,
                    prefill * 1e3,
                    kv_time * 1e3,
                    decode * 1e3,
                    (prefill + kv_time + decode) * 1e3,
                    float("nan"),
                ]
            )

    gain = (
        throughputs.get(4, float("nan")) / throughputs.get(16, float("nan"))
        if throughputs.get(16, 0) else float("nan")
    )
    return ExperimentResult(
        name="Table 8 / Figure 18: KV transport precision (16-bit vs 4-bit)",
        headers=[
            "part",
            "precision",
            "batched_tokens",
            "prefill_ms",
            "kv_comm_ms",
            "decode_ms",
            "e2e_ms",
            "tokens_per_s",
        ],
        rows=rows,
        notes=f"4-bit vs 16-bit end-to-end throughput gain: x{gain:.2f} (paper: x1.34)",
        extras={"throughputs": throughputs},
    )


__all__ = ["run"]
