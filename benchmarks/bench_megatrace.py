"""Macro-benchmark: one million streamed requests through the fast engine.

Measures the headline claim of the streaming-core PR: the struct-of-arrays
request lifecycle plus chunked trace generation let the fast engine replay a
**1,000,000-request diurnal trace in single-digit seconds** on a laptop-class
core, in bounded memory, while staying bitwise-faithful to the per-event
reference engine.

The trace is deliberately prefill-heavy (the regime the vectorized epoch
planner targets): ~900-token median prompts, mostly single-token responses,
Poisson arrivals at 60 req/s warped through a :class:`DiurnalTimeWarp` so the
instantaneous rate swings +/- 40% over four day/night cycles.  The fixture
cluster is provisioned for ~1.5 req/s, so the peak hours run far into
overload — exactly where per-request event loops melt and coalesced epochs
shine.

Because replaying 1M requests through the per-event oracle would take hours,
full-trace bitwise comparison is replaced by a **subsampled-window spot
check**: a contiguous 2,000-request window is re-extracted from the middle of
the stream (chunked generation is chunk-size invariant, so the bytes are the
trace's bytes) and replayed as a standalone trace through both engines, which
must agree bitwise on every per-request metric.

Set ``REPRO_BENCH_REDUCED=1`` for the CI smoke configuration (50k requests,
same shape).  Results are written to ``BENCH_megatrace.json`` (override with
``REPRO_BENCH_JSON``).  The spot check and full drain are asserted here;
``check_regression.py`` compares ``requests_per_s`` with the committed
baseline.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_megatrace.py -s
"""

from __future__ import annotations

import json
import os
import resource
import time

from bench_simulator_core import METRIC_FIELDS, _fixture, _metrics_identical
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.workload.generator import DiurnalTimeWarp, PoissonArrivalGenerator
from repro.workload.spec import WorkloadSpec
from repro.workload.trace import RequestArrays

REDUCED = bool(int(os.environ.get("REPRO_BENCH_REDUCED", "0")))
#: full mode meets the acceptance bar (1M requests, single-digit seconds);
#: reduced mode keeps the same shape for CI smoke runs
NUM_REQUESTS = 50_000 if REDUCED else 1_000_000
#: wall-clock bar for the fast-engine replay, asserted in full mode only
#: (reduced CI runs share noisy runners, where absolute time is advisory)
WALL_BAR_S = 10.0
REQUEST_RATE = 60.0
GENERATOR_SEED = 42
SIMULATOR_SEED = 0
SPOT_WINDOW = 2_000

#: prefill-heavy workload: long prompts, overwhelmingly single-token responses
MEGATRACE_WORKLOAD = WorkloadSpec(
    name="megatrace",
    median_input_length=900,
    median_output_length=1,
    input_sigma=0.35,
    output_sigma=0.35,
    max_output_length=16,
)

__all__ = ["MEGATRACE_WORKLOAD", "make_generator", "make_warp"]


def make_generator() -> PoissonArrivalGenerator:
    """Fresh generator pinned to the benchmark's seed (streams restart)."""
    return PoissonArrivalGenerator(
        spec=MEGATRACE_WORKLOAD, request_rate=REQUEST_RATE, seed=GENERATOR_SEED
    )


def make_warp(num_requests: int) -> DiurnalTimeWarp:
    """Diurnal warp with four intensity cycles across the whole trace."""
    span = num_requests / REQUEST_RATE
    return DiurnalTimeWarp(horizon=span * 1.1, period=span / 4.0, amplitude=0.4)


def _make_simulator(cluster, model, plan) -> ServingSimulator:
    return ServingSimulator(
        cluster, plan, model, config=SimulatorConfig(seed=SIMULATOR_SEED, engine="fast")
    )


def _extract_window(start_row: int, num_rows: int, num_requests: int) -> RequestArrays:
    """Re-extract rows ``[start_row, start_row + num_rows)`` of the stream.

    Chunked generation is chunk-size invariant, so slicing a fresh stream with
    the same seed and warp reproduces the exact bytes the benchmark run saw.
    """
    warp = make_warp(num_requests)
    blocks, seen = [], 0
    for chunk in make_generator().iter_chunks(num_requests, time_warp=warp):
        lo = max(0, start_row - seen)
        hi = min(len(chunk), start_row + num_rows - seen)
        if lo < hi:
            blocks.append(chunk.slice(lo, hi))
        seen += len(chunk)
        if seen >= start_row + num_rows:
            break
    return RequestArrays.concat(blocks)


def test_megatrace_streaming():
    cluster, model, plan = _fixture()
    mode = "reduced" if REDUCED else "full"

    # -- streamed replay of the full trace -------------------------------
    # Warm-up on a small stream charges numpy/memo import costs up front.
    warm = make_generator()
    _make_simulator(cluster, model, plan).run_stream(
        warm.iter_chunks(2_000, time_warp=make_warp(2_000))
    )

    warp = make_warp(NUM_REQUESTS)
    stream = make_generator().iter_chunks(NUM_REQUESTS, time_warp=warp)
    sim = _make_simulator(cluster, model, plan)
    t0 = time.perf_counter()
    result = sim.run_stream(stream, label="megatrace")
    t_fast = time.perf_counter() - t0
    requests_per_s = NUM_REQUESTS / t_fast
    drained = result.num_finished == NUM_REQUESTS
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- subsampled-window bitwise spot check vs the reference oracle ----
    start_row = NUM_REQUESTS // 2
    window = _extract_window(start_row, SPOT_WINDOW, NUM_REQUESTS).to_trace(
        name="megatrace-window"
    )
    spot_fast = _make_simulator(cluster, model, plan).run(window)
    reference = ServingSimulator(
        cluster,
        plan,
        model,
        config=SimulatorConfig(seed=SIMULATOR_SEED, engine="reference"),
    )
    t0 = time.perf_counter()
    spot_reference = reference.run(window)
    t_reference_window = time.perf_counter() - t0
    spot_identical = _metrics_identical(spot_fast, spot_reference)

    print(
        f"\nmegatrace ({mode}): {NUM_REQUESTS} requests streamed in {t_fast:.2f}s"
        f" -> {requests_per_s:,.0f} req/s\n"
        f"  finished: {result.num_finished}   makespan: {result.makespan:,.0f}s"
        f"   trace span: {result.trace_duration:,.0f}s"
        f"   peak RSS: {peak_rss_mb:.0f} MB\n"
        f"  spot window: rows [{start_row}, {start_row + SPOT_WINDOW})"
        f"   reference oracle: {t_reference_window:.2f}s"
        f"   bitwise-identical metrics: {spot_identical}"
    )

    payload = {
        "benchmark": "bench_megatrace",
        "mode": mode,
        "num_requests": NUM_REQUESTS,
        "request_rate": REQUEST_RATE,
        "t_fast_s": round(t_fast, 4),
        "requests_per_s": round(requests_per_s, 1),
        "wall_bar_s": WALL_BAR_S,
        "num_finished_fast": result.num_finished,
        "drained": drained,
        "makespan_s": round(result.makespan, 2),
        "trace_duration_s": round(result.trace_duration, 2),
        "peak_rss_mb": round(peak_rss_mb, 1),
        "spot_window_start": start_row,
        "spot_window_size": SPOT_WINDOW,
        "spot_identical": spot_identical,
        "metric_fields": list(METRIC_FIELDS),
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_megatrace.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"  wrote {out_path}")

    assert spot_identical, (
        "fast engine diverged from the reference oracle on the spot window"
    )
    assert drained, f"megatrace did not drain: {result.num_finished}/{NUM_REQUESTS}"
    if not REDUCED:
        assert t_fast < WALL_BAR_S, (
            f"1M-request replay took {t_fast:.2f}s (bar: {WALL_BAR_S:.0f}s)"
        )
