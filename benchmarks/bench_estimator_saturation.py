"""Gated benchmark: estimator-vs-simulator agreement across a utilisation ramp.

The analytic :class:`SLOEstimator` ranks every candidate plan the tabu search
visits, so its honesty *at saturation* is what keeps the scheduler from
shipping overloaded deployments.  This benchmark drives the fixture fleet
(A40 prefill -> 3090Ti decode, prefill-heavy coding workload) through a
prefill-utilisation ramp — rho 0.7 / 0.85 / 0.95 of the padded-batch capacity —
plus an outright overloaded point (rho 1.3), and checks:

* per-point |estimated - simulated| E2E attainment within ``POINT_TOLERANCE``;
* mean gap across the ramp within ``MEAN_TOLERANCE``;
* the overloaded point estimates **exactly zero** attainment (the M/G/1 wait
  diverges at rho >= 1; no silent clamp may flatter the plan).

Simulated attainment at each rho is averaged over several Poisson seeds: a
near-critical queue is bursty, and a single realisation can sit far from the
steady-state mean the estimator predicts.

The default ("full") configuration uses 600 s traces and 4 seeds per point with
the agreement-harness tolerances; set ``REPRO_BENCH_REDUCED=1`` for the CI
smoke configuration (300 s, 2 seeds — noisier sim means, hence slightly looser
tolerances).  Results are written to ``BENCH_estimator_saturation.json``
(override with ``REPRO_BENCH_JSON``) and gated against a committed baseline by
``benchmarks/check_regression.py``.

Run with:  PYTHONPATH=src python -m pytest benchmarks/bench_estimator_saturation.py -s
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.core.types import Phase, SLOType
from repro.costmodel.reference import a100_reference_latency
from repro.hardware.cluster import make_two_datacenter_cluster
from repro.model.architecture import get_model_config
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.simulation.engine import ServingSimulator, SimulatorConfig
from repro.workload.generator import generate_requests
from repro.workload.spec import CODING_WORKLOAD

REDUCED = bool(int(os.environ.get("REPRO_BENCH_REDUCED", "0")))
#: prefill utilisations of the ramp (fractions of the padded-batch capacity)
RHOS = (0.7, 0.85, 0.95)
#: overloaded operating point: demand 30% beyond prefill capacity
OVERLOAD_RHO = 1.3
#: SLO scales evaluated at every rho (multiples of the A100 reference latency)
SLO_SCALES = (4.0, 8.0, 12.0)
TRACE_DURATION_S = 300.0 if REDUCED else 600.0
SEEDS = (11, 123) if REDUCED else (11, 123, 456, 789)
#: full mode holds the agreement-harness tolerances; reduced mode averages half
#: the seeds over half the horizon, so its sim means sit further from steady
#: state and the bars are slightly looser
POINT_TOLERANCE = 0.20 if REDUCED else 0.15
MEAN_TOLERANCE = 0.10 if REDUCED else 0.08


def _fixture():
    cluster = make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)
    model = get_model_config("llama-30b")
    a40 = [g.gpu_id for g in cluster.gpus_of_type("A40")]
    ti = [g.gpu_id for g in cluster.gpus_of_type("3090Ti")]
    solution = UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.DECODE)])
    return cluster, model, solution


def _solve(cluster, model, solution, reference, rate, scale):
    solver = LowerLevelSolver(
        cluster=cluster,
        model=model,
        workload=CODING_WORKLOAD,
        slo=reference.slo_spec(scale),
        request_rate=rate,
    )
    result = solver.solve(solution)
    assert result.feasible and result.plan is not None
    return solver, result


def test_estimator_saturation_agreement():
    cluster, model, solution = _fixture()
    reference = a100_reference_latency(model, CODING_WORKLOAD)

    # Capacity anchor: the request rate at which the single prefill replica's
    # implied utilisation (padded-batch service time) reaches 1.0.
    probe, probe_result = _solve(cluster, model, solution, reference, 1.0, 8.0)
    prefill_group = next(
        g for g in probe_result.plan.groups if g.phase is Phase.PREFILL
    )
    capacity_rps = 1.0 / probe.estimator.replica_performance(
        prefill_group
    ).prefill_service_s

    t0 = time.perf_counter()
    points = []
    for rho in RHOS:
        rate = rho * capacity_rps
        _, planned = _solve(cluster, model, solution, reference, rate, 8.0)
        runs = []
        for seed in SEEDS:
            trace = generate_requests(
                CODING_WORKLOAD, rate, duration=TRACE_DURATION_S, seed=seed
            )
            runs.append(
                ServingSimulator(
                    cluster, planned.plan, model, config=SimulatorConfig(seed=0)
                ).run(trace)
            )
        for scale in SLO_SCALES:
            slo = reference.slo_spec(scale)
            _, result = _solve(cluster, model, solution, reference, rate, scale)
            estimated = result.estimated_attainment
            simulated = float(
                np.mean([r.slo_attainment(slo, SLOType.E2E) for r in runs])
            )
            points.append(
                {
                    "rho": rho,
                    "slo_scale": scale,
                    "estimated": round(estimated, 4),
                    "simulated": round(simulated, 4),
                    "gap": round(abs(estimated - simulated), 4),
                }
            )

    # Overloaded point: the estimate must be exactly zero; the simulator still
    # serves the sliver of early arrivals before its queue diverges.
    overload_rate = OVERLOAD_RHO * capacity_rps
    _, overload_result = _solve(
        cluster, model, solution, reference, overload_rate, SLO_SCALES[0]
    )
    overload_estimated = overload_result.estimated_attainment
    overload_trace = generate_requests(
        CODING_WORKLOAD, overload_rate, duration=TRACE_DURATION_S, seed=SEEDS[0]
    )
    overload_sim = ServingSimulator(
        cluster, overload_result.plan, model, config=SimulatorConfig(seed=0)
    ).run(overload_trace)
    overload_simulated = overload_sim.slo_attainment(
        reference.slo_spec(SLO_SCALES[0]), SLOType.E2E
    )
    elapsed = time.perf_counter() - t0

    gaps = [p["gap"] for p in points]
    max_gap = float(np.max(gaps))
    mean_gap = float(np.mean(gaps))
    mode = "reduced" if REDUCED else "full"
    print(
        f"\nestimator saturation ramp ({mode}): capacity {capacity_rps:.2f} rps, "
        f"{len(points)} ramp points, {len(SEEDS)} seeds x {TRACE_DURATION_S:.0f}s\n"
        f"  max gap {max_gap:.3f} (bar {POINT_TOLERANCE})   "
        f"mean gap {mean_gap:.3f} (bar {MEAN_TOLERANCE})\n"
        f"  overload rho {OVERLOAD_RHO}: estimated {overload_estimated:.3f} "
        f"simulated {overload_simulated:.3f}   elapsed {elapsed:.1f}s"
    )
    for p in points:
        print(
            f"    rho={p['rho']:<5} scale={p['slo_scale']:<5} "
            f"est={p['estimated']:.3f} sim={p['simulated']:.3f} gap={p['gap']:.3f}"
        )

    payload = {
        "benchmark": "bench_estimator_saturation",
        "mode": mode,
        "workload": CODING_WORKLOAD.name,
        "capacity_rps": round(capacity_rps, 4),
        "trace_duration_s": TRACE_DURATION_S,
        "seeds": list(SEEDS),
        "points": points,
        "max_gap": round(max_gap, 4),
        "mean_gap": round(mean_gap, 4),
        "point_tolerance": POINT_TOLERANCE,
        "mean_tolerance": MEAN_TOLERANCE,
        "overload_rho": OVERLOAD_RHO,
        "overload_estimated": overload_estimated,
        "overload_simulated": round(float(overload_simulated), 4),
        "overload_estimate_zero": overload_estimated == 0.0,
        "elapsed_s": round(elapsed, 2),
    }
    out_path = os.environ.get("REPRO_BENCH_JSON", "BENCH_estimator_saturation.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"  wrote {out_path}")

    assert overload_estimated == 0.0, (
        f"overloaded plan (rho {OVERLOAD_RHO}) estimated "
        f"{overload_estimated:.3f}, must be exactly 0"
    )
    assert max_gap <= POINT_TOLERANCE, (
        f"worst ramp point gap {max_gap:.3f} exceeds {POINT_TOLERANCE}"
    )
    assert mean_gap <= MEAN_TOLERANCE, (
        f"mean ramp gap {mean_gap:.3f} exceeds {MEAN_TOLERANCE}"
    )
