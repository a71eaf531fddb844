"""Micro-benchmark: coalesced prefill pipeline vs. the per-event reference engine.

Measures the headline claim of the prefill-pipeline PR: on a prompt-heavy trace
(heavy inputs, short decodes — the RAG/agentic-burst regime) the fast engine
(coalesced prefill epochs priced by the memoized ``prefill_latency_memo``,
precomputed KV-transfer handoffs logged per decode replica) beats the retained
per-event reference engine by >= 4x wall-clock while producing a
**bitwise-identical** result: every metric column and the makespan, compared
through :meth:`~repro.simulation.metrics.SimulationResult.digest`.

The default ("full") configuration replays >= 2k requests with >= 512 prompt
tokens each; set ``REPRO_BENCH_REDUCED=1`` for the CI smoke configuration (same
shape, ~10x smaller).  Results — speedup plus agreement stats — are written to
``BENCH_prefill.json`` (override the path with ``REPRO_BENCH_PREFILL_JSON``) so
the perf trajectory is tracked across PRs alongside ``BENCH_simcore.json``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_prefill_core.py -s
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.types import Phase, Request
from repro.costmodel.reference import a100_reference_latency
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.workload.spec import CONVERSATION_WORKLOAD
from repro.workload.trace import Trace

REDUCED = bool(int(os.environ.get("REPRO_BENCH_REDUCED", "0")))
#: full mode meets the acceptance bar (>= 2k requests, >= 1k prompt tokens);
#: reduced mode keeps the same shape for CI smoke runs
NUM_REQUESTS = 240 if REDUCED else 2048
#: the RAG_WORKLOAD shape (several retrieved passages per prompt): prompts are
#: ~20x longer than responses, so the trace is decisively prefill-dominated
MIN_INPUT_TOKENS = 1024
MAX_INPUT_TOKENS = 4096
MIN_OUTPUT_TOKENS = 64
MAX_OUTPUT_TOKENS = 160
#: high enough that prefill queues form and multi-request batches actually fill
REQUEST_RATE = 4.0
#: prompt bursts are served in large coalesced batches
PREFILL_BATCH_REQUESTS = 16
SPEEDUP_BAR = 2.0 if REDUCED else 4.0
#: each engine is timed over this many fresh simulators, alternating, and its
#: fastest run kept: a single reduced fast run takes ~10 ms, too short to time once
TIMED_RUNS = 5 if REDUCED else 3


def _fixture():
    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
    model = get_model_config("llama-30b")
    a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
    ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
    solution = UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.DECODE)])
    solver = LowerLevelSolver(
        cluster=cluster,
        model=model,
        workload=CONVERSATION_WORKLOAD,
        slo=a100_reference_latency(model, CONVERSATION_WORKLOAD).slo_spec(8.0),
        request_rate=REQUEST_RATE,
    )
    result = solver.solve(solution)
    assert result.feasible and result.plan is not None
    return cluster, model, result.plan


def _prompt_heavy_trace(num_requests: int, seed: int = 0) -> Trace:
    """Poisson arrivals with heavy prompts and short decodes (the prefill-bound regime)."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / REQUEST_RATE, size=num_requests)
    arrivals = np.cumsum(gaps)
    requests = [
        Request(
            request_id=k,
            arrival_time=float(arrivals[k]),
            input_length=int(rng.integers(MIN_INPUT_TOKENS, MAX_INPUT_TOKENS + 1)),
            output_length=int(rng.integers(MIN_OUTPUT_TOKENS, MAX_OUTPUT_TOKENS + 1)),
        )
        for k in range(num_requests)
    ]
    return Trace(requests=requests, name="prompt-heavy")


def test_prefill_core_speedup():
    cluster, model, plan = _fixture()
    trace = _prompt_heavy_trace(NUM_REQUESTS)

    def run(engine: str):
        sim = ServingSimulator(
            cluster,
            plan,
            model,
            config=SimulatorConfig(
                seed=0,
                engine=engine,
                max_prefill_batch_requests=PREFILL_BATCH_REQUESTS,
            ),
        )
        t0 = time.perf_counter()
        result = sim.run(trace)
        return result, time.perf_counter() - t0

    # Every run starts from a fresh simulator (cold memo caches) and returns
    # the same metrics.  The engines alternate, so a shift in machine speed
    # during the bench reaches both best times alike.
    results, times = {}, {"fast": [], "reference": []}
    for _ in range(TIMED_RUNS):
        for engine, elapsed in times.items():
            result, t = run(engine)
            results.setdefault(engine, result)
            elapsed.append(t)
    fast, reference = results["fast"], results["reference"]
    t_fast, t_reference = min(times["fast"]), min(times["reference"])

    identical = fast.digest() == reference.digest()
    speedup = t_reference / t_fast
    prefill_tokens = sum(r.input_length for r in trace)
    mode = "reduced" if REDUCED else "full"
    print(
        f"\nprefill pipeline ({mode}): {len(trace)} requests, {prefill_tokens} prompt tokens, "
        f"batch cap {PREFILL_BATCH_REQUESTS}\n"
        f"  reference engine: {t_reference:.3f}s   fast engine: {t_fast:.3f}s"
        f"   -> {speedup:.1f}x\n"
        f"  finished: fast {fast.num_finished} / reference {reference.num_finished}"
        f"   bitwise-identical metrics: {identical}"
    )

    payload = {
        "benchmark": "bench_prefill_core",
        "mode": mode,
        "num_requests": len(trace),
        "prefill_tokens": int(prefill_tokens),
        "max_prefill_batch_requests": PREFILL_BATCH_REQUESTS,
        "t_fast_s": round(t_fast, 4),
        "t_reference_s": round(t_reference, 4),
        "speedup": round(speedup, 2),
        "speedup_bar": SPEEDUP_BAR,
        "identical_metrics": identical,
        "num_finished_fast": fast.num_finished,
        "num_finished_reference": reference.num_finished,
    }
    out_path = os.environ.get("REPRO_BENCH_PREFILL_JSON", "BENCH_prefill.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"  wrote {out_path}")

    assert identical, "fast engine diverged from the reference engine"
    assert fast.num_finished == len(trace), "the prompt-heavy trace must fully drain"
    assert speedup >= SPEEDUP_BAR, (
        f"fast engine only {speedup:.2f}x faster (bar: {SPEEDUP_BAR}x)"
    )
