"""Quickstart: schedule and serve LLaMA-30B on the heterogeneous cloud cluster.

This walks through the whole ThunderServe pipeline in one script:

1. build the 32-GPU heterogeneous cloud environment of the paper (§5.1),
2. run the two-level scheduling algorithm (tabu search + parallel-configuration
   deduction + orchestration LP) for the conversation workload,
3. replay a Poisson request trace against the resulting deployment plan with the
   discrete-event simulator,
4. report throughput, latency breakdown and SLO attainment, and
5. stress the same plan across the whole ``repro.scenarios`` library (diurnal
   cycles, bursts, long-context RAG, agentic mixes, multi-tenant SLO tiers and
   spot preemptions) with a :class:`ScenarioSweep`.

Run with:  python examples/quickstart.py
"""

from repro.core.types import SLOType
from repro.hardware.cluster import make_cloud_cluster
from repro.model.architecture import get_model_config
from repro.scenarios import ScenarioSweep, default_scenarios
from repro.scheduling.scheduler import SchedulerConfig
from repro.scheduling.tabu import TabuSearchConfig
from repro.serving.system import ThunderServe
from repro.utils.tables import format_table
from repro.workload.generator import generate_requests
from repro.workload.spec import CONVERSATION_WORKLOAD


def main() -> None:
    cluster = make_cloud_cluster(seed=0)
    model = get_model_config("llama-30b")
    workload = CONVERSATION_WORKLOAD
    request_rate = 6.0  # requests per second

    print(f"Cluster : {cluster.describe()}  (${cluster.price_per_hour:.2f}/hour)")
    print(f"Model   : {model.name} ({model.num_layers} layers, hidden {model.hidden_size})")
    print(f"Workload: {workload.name} (mean prompt {workload.mean_input_length:.0f} tokens, "
          f"mean response {workload.mean_output_length:.0f} tokens) at {request_rate} req/s")

    # A small tabu budget keeps the example fast; the full Algorithm-1 budget is
    # N_step=100, N_nghb=10 (see SchedulerConfig defaults).
    system = ThunderServe(
        cluster,
        model,
        workload,
        request_rate,
        scheduler_config=SchedulerConfig(
            tabu=TabuSearchConfig(num_steps=15, num_neighbors=6, patience=8),
            seed=0,
        ),
    )
    plan = system.deploy()

    gpu_names = {g.gpu_id: g.type_name for g in cluster.gpus}
    print("\nDeployment plan discovered by the scheduler:")
    print(plan.describe(gpu_names))

    trace = generate_requests(workload, request_rate, duration=60.0, seed=1)
    result = system.serve(trace)

    print(f"\nServed {result.num_finished}/{result.num_requests} requests "
          f"in {result.makespan:.1f}s of simulated time")
    print(f"Throughput: {result.total_token_throughput:.0f} tokens/s total, "
          f"{result.output_token_throughput:.0f} generated tokens/s")
    summary = result.summary()
    print(f"Mean latency breakdown: queue {summary['mean_queue']*1e3:.0f} ms | "
          f"prefill {summary['mean_prefill']*1e3:.0f} ms | "
          f"KV transfer {summary['mean_kv_transfer']*1e3:.0f} ms | "
          f"decode {summary['mean_decode']*1e3:.0f} ms")

    scales = [1, 2, 4, 6, 8, 12]
    rows = []
    for scale in scales:
        spec = system.reference.slo_spec(scale)
        rows.append([
            scale,
            result.slo_attainment(spec, SLOType.TTFT),
            result.slo_attainment(spec, SLOType.TPOT),
            result.slo_attainment(spec, SLOType.E2E),
        ])
    print("\n" + format_table(
        ["slo_scale", "ttft_attainment", "tpot_attainment", "e2e_attainment"], rows,
        title="SLO attainment vs SLO scale",
    ))

    # ------------------------------------------------------------- scenario sweep
    # The same plan, stressed across every named scenario in repro.scenarios.
    # Each scenario is served on its own ThunderServe instance; the
    # spot-preemption scenario additionally exercises lightweight rescheduling.
    sweep = ScenarioSweep(default_scenarios(duration=30.0), seed=0)
    outcomes = sweep.evaluate(cluster, model, plan)
    print("\n" + ScenarioSweep.to_table(outcomes))
    tenants = outcomes["multi-tenant"].per_tenant_attainment
    print("Per-tenant E2E attainment at each tier's own SLO: "
          + ", ".join(f"{t}={a:.2f}" for t, a in tenants.items()))


if __name__ == "__main__":
    main()
