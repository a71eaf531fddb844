"""Gated benchmark: request-level fault semantics of the in-engine retry path.

This gate protects the request-outcome taxonomy rather than a wall-clock
number.  It drives the same seeded capacity storm through the serving stack
twice — once under a bounded-retry :class:`~repro.faults.RetryPolicy` and once
under :meth:`~repro.faults.RetryPolicy.drop_only` — and checks the properties
the reliability claims rest on:

* **Retry recovers what drop-only loses** — under the identical compiled
  fault timeline, the retry run completes strictly more requests (and at
  least one ``retried_then_finished`` outcome exists), while the drop-only
  run records the preempted work as ``dropped_outage``.
* **Deterministic replay** — two live runs with the same seed produce
  identical :meth:`~repro.serving.live.LiveServeReport.fault_stats` and a
  bitwise-identical per-window telemetry stream.
* **Outcome conservation at streaming scale** — a large chunked trace
  (1M requests in full mode) streamed through the fast engine under a
  kill/revive fault timeline passes
  :meth:`~repro.simulation.metrics.SimulationResult.assert_outcome_conservation`:
  every arrival maps to exactly one terminal outcome, with no request
  duplicated or lost across preemptions and retries.

Set ``REPRO_BENCH_REDUCED=1`` for the CI smoke configuration (same shape,
smaller traces).  Results are written to ``BENCH_request_reliability.json``
(override with ``REPRO_BENCH_JSON``); ``benchmarks/check_regression.py``
compares ``retry_attainment`` with the committed baseline.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_request_reliability.py -s
"""

from __future__ import annotations

import json
import os
import time

from repro.core.types import Phase, SLOType
from repro.costmodel.reference import a100_reference_latency
from repro.faults import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    FaultTimeline,
    ReplicaFaultEvent,
    RetryPolicy,
)
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.deployment import DeploymentPlan
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.serving.live import LiveServeConfig, LiveServer
from repro.serving.system import ThunderServe
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.workload.generator import PoissonArrivalGenerator, generate_requests
from repro.workload.spec import CONVERSATION_WORKLOAD, WorkloadSpec

REDUCED = bool(int(os.environ.get("REPRO_BENCH_REDUCED", "0")))
#: live-storm trace size: long enough for the fault to strike mid-stream work
NUM_LIVE = 900 if REDUCED else 3_600
LIVE_RATE = 6.0
WINDOW_S = 4.0
#: streaming-conservation trace size (the full mode meets the 1M-scale bar)
NUM_STREAM = 50_000 if REDUCED else 1_000_000
STREAM_RATE = 60.0
GENERATOR_SEED = 42
SIMULATOR_SEED = 0

#: bounded retries with deterministic seeded jitter — the policy under test
RETRY = RetryPolicy(max_retries=3, backoff_base_s=0.3, jitter=0.1)

#: prefill-heavy workload for the streaming leg: short responses keep the
#: event count per request small, so a million requests stream in seconds
STREAM_WORKLOAD = WorkloadSpec(
    name="reliability-stream",
    median_input_length=900,
    median_output_length=1,
    input_sigma=0.35,
    output_sigma=0.35,
    max_output_length=16,
)


def _fixture():
    """Four-replica llama-7b plan with uniform routing on the two-DC cluster.

    Two prefill and two decode replicas: killing one group of either phase
    leaves a survivor for the retry path to land on, and ``routing=None``
    spreads traffic uniformly so the dying replica always holds work.
    """
    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
    model = get_model_config("llama-7b")
    a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
    ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
    solution = UpperLevelSolution.from_lists(
        [
            (a40[:2], Phase.PREFILL),
            (a40[2:], Phase.PREFILL),
            (ti[:2], Phase.DECODE),
            (ti[2:], Phase.DECODE),
        ]
    )
    slo = a100_reference_latency(model, CONVERSATION_WORKLOAD).slo_spec(8.0)
    solver = LowerLevelSolver(
        cluster=cluster,
        model=model,
        workload=CONVERSATION_WORKLOAD,
        slo=slo,
        request_rate=3.0,
    )
    solved = solver.solve(solution).plan
    assert solved is not None
    plan = DeploymentPlan(
        groups=solved.groups,
        routing=None,
        model_name=solved.model_name,
        kv_transport_bits=solved.kv_transport_bits,
    )
    return cluster, model, plan, slo


def _live_storm(cluster, model, plan, slo, retry):
    """One live run under the seeded storm; returns (system, report)."""
    system = ThunderServe(cluster, model, CONVERSATION_WORKLOAD, LIVE_RATE, slo=slo)
    system.adopt_plan(plan, reason="reliability benchmark")
    span = NUM_LIVE / LIVE_RATE
    victims = tuple(plan.prefill_groups[0].gpu_ids)
    schedule = FaultSchedule.from_events(
        [
            FaultEvent(
                time=0.3 * span, kind=FaultKind.GPU_PREEMPTION, gpu_ids=victims
            ),
            FaultEvent(time=0.6 * span, kind=FaultKind.RECOVERY, gpu_ids=victims),
        ]
    )
    config = LiveServeConfig(
        window_s=WINDOW_S,
        reschedule_on_breach=False,
        reschedule_on_shift=False,
        faults=schedule,
        retry_policy=retry,
    )
    trace = generate_requests(
        CONVERSATION_WORKLOAD, LIVE_RATE, num_requests=NUM_LIVE, seed=7
    )
    report = LiveServer(system, config=config).run(trace, label="reliability")
    return system, report


def _stream_timeline(plan, span):
    """Kill/revive cycles over the stream: one group of each phase at a time."""
    prefills = [g.group_id for g in plan.prefill_groups]
    decodes = [g.group_id for g in plan.decode_groups]
    return FaultTimeline(
        events=[
            ReplicaFaultEvent(time=0.15 * span, dead_prefill=(prefills[0],)),
            ReplicaFaultEvent(time=0.30 * span, revived_prefill=(prefills[0],)),
            ReplicaFaultEvent(time=0.45 * span, dead_decode=(decodes[1],)),
            ReplicaFaultEvent(time=0.60 * span, revived_decode=(decodes[1],)),
            ReplicaFaultEvent(time=0.75 * span, dead_prefill=(prefills[1],)),
            ReplicaFaultEvent(time=0.85 * span, revived_prefill=(prefills[1],)),
        ]
    )


def test_request_reliability_gate():
    t0 = time.perf_counter()
    cluster, model, plan, slo = _fixture()
    mode = "reduced" if REDUCED else "full"

    # -- retry vs drop-only under the same seeded storm ------------------
    _, retry_report = _live_storm(cluster, model, plan, slo, RETRY)
    _, drop_report = _live_storm(cluster, model, plan, slo, RetryPolicy.drop_only())
    retry_stats = retry_report.fault_stats()
    drop_stats = drop_report.fault_stats()

    def completed(stats):
        return stats["requests_finished"] + stats["requests_retried_then_finished"]

    retry_attainment = retry_report.merged.slo_attainment(slo, SLOType.E2E)
    drop_attainment = drop_report.merged.slo_attainment(slo, SLOType.E2E)

    # -- deterministic replay --------------------------------------------
    _, replay_report = _live_storm(cluster, model, plan, slo, RETRY)
    deterministic = (
        retry_report.fault_stats() == replay_report.fault_stats()
        and [w.to_dict() for w in retry_report.windows]
        == [w.to_dict() for w in replay_report.windows]
    )

    # -- outcome conservation at streaming scale -------------------------
    span = NUM_STREAM / STREAM_RATE
    generator = PoissonArrivalGenerator(
        spec=STREAM_WORKLOAD, request_rate=STREAM_RATE, seed=GENERATOR_SEED
    )
    sim = ServingSimulator(
        cluster, plan, model, config=SimulatorConfig(seed=SIMULATOR_SEED, engine="fast")
    )
    t_stream0 = time.perf_counter()
    stream_result = sim.run_stream(
        generator.iter_chunks(NUM_STREAM),
        label="reliability-stream",
        faults=_stream_timeline(plan, span),
        retry=RetryPolicy(max_retries=2, backoff_base_s=0.5, jitter=0.1, deadline_s=120.0),
    )
    t_stream = time.perf_counter() - t_stream0
    conservation_error = ""
    try:
        stream_counts = stream_result.assert_outcome_conservation(require_terminal=True)
    except Exception as exc:  # noqa: BLE001 - the gate records any break
        conservation_error = str(exc)
        stream_counts = stream_result.outcome_counts()
    elapsed = time.perf_counter() - t0

    print(
        f"\nrequest reliability gate ({mode}): storm of {NUM_LIVE} requests, "
        f"deterministic replay {deterministic}\n"
        f"  retry:     {completed(retry_stats):.0f} completed "
        f"({retry_stats['requests_retried_then_finished']:.0f} after retry), "
        f"E2E attainment {retry_attainment:.3f}\n"
        f"  drop-only: {completed(drop_stats):.0f} completed "
        f"({drop_stats['requests_dropped_outage']:.0f} dropped), "
        f"E2E attainment {drop_attainment:.3f}\n"
        f"  stream: {NUM_STREAM} requests in {t_stream:.2f}s "
        f"({NUM_STREAM / t_stream:,.0f} req/s), outcomes {stream_counts}, "
        f"conservation error {conservation_error!r}\n"
        f"  elapsed {elapsed:.1f}s"
    )

    payload = {
        "benchmark": "bench_request_reliability",
        "mode": mode,
        "num_live_requests": NUM_LIVE,
        "retry_completed": int(completed(retry_stats)),
        "retry_recovered": int(retry_stats["requests_retried_then_finished"]),
        "retry_dropped": int(retry_stats["requests_dropped_outage"]),
        "retry_attainment": round(float(retry_attainment), 4),
        "drop_completed": int(completed(drop_stats)),
        "drop_dropped": int(drop_stats["requests_dropped_outage"]),
        "drop_attainment": round(float(drop_attainment), 4),
        "deterministic_replay": deterministic,
        "stream_num_requests": NUM_STREAM,
        "stream_outcomes": {k: int(v) for k, v in stream_counts.items()},
        "stream_conserved": conservation_error == "",
        "stream_conservation_error": conservation_error,
        "stream_t_s": round(t_stream, 3),
        "stream_requests_per_s": round(NUM_STREAM / t_stream, 1),
        "elapsed_s": round(elapsed, 2),
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_request_reliability.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"  wrote {out_path}")

    assert payload["retry_recovered"] > 0, (
        "the storm preempted no work that was later retried to completion"
    )
    assert payload["drop_dropped"] > 0, (
        "the drop-only arm recorded no dropped_outage outcomes"
    )
    assert payload["retry_completed"] > payload["drop_completed"], (
        f"retry completed {payload['retry_completed']} requests, no more than "
        f"drop-only's {payload['drop_completed']} under the same storm"
    )
    assert payload["retry_attainment"] >= payload["drop_attainment"], (
        "retry attainment fell below drop-only under the identical storm"
    )
    assert deterministic, (
        "same-seed storm replay diverged: fault_stats or telemetry stream "
        "is not identical across two runs"
    )
    assert payload["stream_conserved"], (
        f"outcome conservation broke at streaming scale: {conservation_error}"
    )
    total = sum(payload["stream_outcomes"].values())
    assert total == NUM_STREAM, (
        f"stream outcomes sum to {total}, expected {NUM_STREAM}"
    )
