"""Committed engine digests: "bitwise unchanged" checked against the last commit.

Three cases serve frozen deployment plans (``tests/golden/engine.json``) with
the fast engine, each on the inputs of one perfbench workload (seed 1):

* ``prefill-stream``: the workload's full trace, streamed in perfbench's
  chunks;
* ``decode-stream-cloud``: likewise, on the 32-GPU cloud plan;
* ``live-chaos``: the first 3,600 s of the workload's trace in one run, under
  perfbench's frozen fault storm (``STORM_SEED``) compiled once by
  :func:`~repro.faults.timeline.compile_fault_timeline` against the two-DC
  plan.

Two more cases serve the baselines' co-located engine
(:class:`~repro.simulation.colocated.ColocatedSimulator`) on frozen replica
plans and routing weights, each on the first ``COLOCATED_ROWS`` requests of one
perfbench trace (seed 1), materialized with
:meth:`~repro.workload.trace.RequestArrays.to_trace` as the claims' baselines
receive theirs:

* ``hexgen``: the HexGen baseline's replicas on the 32-GPU cloud cluster,
  ``decode-stream-cloud``'s conversation trace;
* ``vllm``: the vLLM baseline's tensor-parallel replicas on the in-house
  8 x A100 server, ``prefill-stream``'s coding trace.

Each case checks two SHA-256 digests against the committed ones: the trace's
own (its request columns and workload tag) and the result's
(:meth:`~repro.simulation.metrics.SimulationResult.digest`).  A moved trace
digest means workload generation changed; a moved result digest over an
unchanged trace means the engine did.  The trace depends on numpy's
``Generator`` streams, so the digests also pin the numpy version's draws.

The plans come from one ``ThunderServe.deploy(seed=0)`` each, on the
``prefill-stream`` (``two-dc``) and ``decode-stream-cloud`` (``cloud``)
workloads, and the co-located deployments from one ``build()`` of each
baseline (seed 0).  All are stored through this module's JSON codec, so the
digests do not depend on which of several tied optima the LP solver picks.

A change that moves bits on purpose reruns this module as a script,
``PYTHONPATH=src python tests/test_golden_digests.py``, which rewrites the
digests from the frozen plans and prints each moved one; the change lists each
moved digest and its cause.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.types import Phase
from repro.experiments.chaos_recovery import default_fault_storm
from repro.hardware.cluster import make_inhouse_cluster
from repro.faults import FaultInjector
from repro.faults.timeline import compile_fault_timeline
from repro.parallelism.config import ReplicaPlan
from repro.scheduling.deployment import DeploymentPlan, RoutingPolicy, ServingGroup
from repro.simulation.colocated import ColocatedSimulator
from repro.workload.trace import RequestArrays

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "engine.json"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
#: perfbench seed whose traces the cases serve
SEED = 1
#: the frozen plan each case serves
CASES = {"prefill-stream": "two-dc", "decode-stream-cloud": "cloud", "live-chaos": "two-dc"}
#: each co-located case's perfbench workload (its trace) and whether it runs
#: on the in-house 8 x A100 server instead of the workload's own cluster
COLOCATED = {"hexgen": ("decode-stream-cloud", False), "vllm": ("prefill-stream", True)}
#: leading requests of the trace each co-located case serves
COLOCATED_ROWS = 1000
#: routing seed of the co-located engine (the baselines' default)
COLOCATED_SEED = 0
#: request columns the trace digest covers
TRACE_COLUMNS = ("request_id", "arrival_time", "input_length", "output_length")


def _load_workloads():
    # perfbench is not a package; load the module by path, off sys.path.  Its
    # dataclasses look their module up in sys.modules while they are built.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# --------------------------------------------------------------------------- codec
def stages_to_list(plan: ReplicaPlan) -> list:
    """JSON form of a replica plan: ``[gpu_ids, num_layers]`` per stage."""
    return [[list(s.gpu_ids), s.num_layers] for s in plan.stages]


def stages_from_list(stages: list) -> ReplicaPlan:
    """The replica plan :func:`stages_to_list` wrote."""
    return ReplicaPlan.from_stage_lists(*zip(*stages))


def plan_to_dict(plan: DeploymentPlan) -> dict:
    """JSON form of a plan: every field, floats as Python writes them (exact)."""
    routing = plan.routing
    return {
        "model_name": plan.model_name,
        "kv_transport_bits": plan.kv_transport_bits,
        "groups": [
            {
                "group_id": g.group_id,
                "gpu_ids": list(g.gpu_ids),
                "phase": g.phase.value,
                "stages": None if g.plan is None else stages_to_list(g.plan),
            }
            for g in plan.groups
        ],
        "routing": None
        if routing is None
        else {
            "prefill_group_ids": list(routing.prefill_group_ids),
            "decode_group_ids": list(routing.decode_group_ids),
            "prefill_weights": list(routing.prefill_weights),
            "dispatch": [list(row) for row in routing.dispatch],
        },
    }


def plan_from_dict(data: dict) -> DeploymentPlan:
    """The plan :func:`plan_to_dict` wrote."""
    routing = data["routing"]
    return DeploymentPlan(
        groups=tuple(
            ServingGroup(
                group_id=g["group_id"],
                gpu_ids=tuple(g["gpu_ids"]),
                phase=Phase(g["phase"]),
                plan=None if g["stages"] is None else stages_from_list(g["stages"]),
            )
            for g in data["groups"]
        ),
        routing=None
        if routing is None
        else RoutingPolicy(
            prefill_group_ids=tuple(routing["prefill_group_ids"]),
            decode_group_ids=tuple(routing["decode_group_ids"]),
            prefill_weights=tuple(routing["prefill_weights"]),
            dispatch=tuple(tuple(row) for row in routing["dispatch"]),
        ),
        model_name=data["model_name"],
        kv_transport_bits=data["kv_transport_bits"],
    )


def colocated_to_dict(replica_plans, routing_weights) -> dict:
    """JSON form of a co-located deployment: replica plans and routing weights.

    ``routing_weights`` is ``None`` when the engine weights replicas by their
    decode capacity itself (the vLLM baseline).
    """
    return {
        "replicas": [stages_to_list(plan) for plan in replica_plans],
        "routing_weights": None if routing_weights is None else list(routing_weights),
    }


def colocated_from_dict(data: dict) -> tuple:
    """The ``(replica_plans, routing_weights)`` :func:`colocated_to_dict` wrote."""
    return [stages_from_list(stages) for stages in data["replicas"]], data["routing_weights"]


# --------------------------------------------------------------------------- cases
def trace_digest(arrays: RequestArrays) -> str:
    """SHA-256 hex digest of a trace: its workload tag, then each request column."""
    sha = hashlib.sha256(arrays.workload.encode())
    for name in TRACE_COLUMNS:
        column = getattr(arrays, name)
        sha.update(name.encode())
        sha.update(column.dtype.str.encode())
        sha.update(column.tobytes())
    return sha.hexdigest()


def serve(workloads, case: str, plan: DeploymentPlan) -> tuple:
    """Serve ``case`` on ``plan``; return its trace digest and its result."""
    setup = workloads.setup(case)
    w = setup.workload
    simulator = setup.simulator(setup.new_system(), plan)
    generator = setup.generator(SEED)
    if not w.live_horizon_s:
        chunks = list(generator.iter_chunks(w.num_requests, chunk_size=workloads.CHUNK_ROWS))
        result = simulator.run_stream(chunks, label=w.name)
        return trace_digest(RequestArrays.concat(chunks)), result
    arrays = generator.generate_arrays(w.num_requests)
    arrays = arrays.slice(0, int(np.searchsorted(arrays.arrival_time, w.live_horizon_s)))
    storm = FaultInjector(default_fault_storm(), seed=workloads.STORM_SEED).compile(
        w.live_horizon_s, setup.cluster
    )
    timeline = compile_fault_timeline(storm, plan)
    result = simulator.run_stream([arrays], label=w.name, faults=timeline)
    return trace_digest(arrays), result


def serve_colocated(workloads, case: str, deployment: dict) -> tuple:
    """Serve co-located ``case`` on its frozen deployment; return its trace digest and result."""
    name, inhouse = COLOCATED[case]
    setup = workloads.setup(name)
    arrays = setup.generator(SEED).generate_arrays(COLOCATED_ROWS)
    replica_plans, routing_weights = colocated_from_dict(deployment)
    simulator = ColocatedSimulator(
        make_inhouse_cluster() if inhouse else setup.cluster,
        replica_plans,
        setup.model,
        seed=COLOCATED_SEED,
        routing_weights=routing_weights,
    )
    result = simulator.run(arrays.to_trace(name=name), label=case)
    return trace_digest(arrays), result


def all_cases(workloads, golden: dict):
    """Yield ``(case, trace digest, result)`` for every case, from the frozen plans."""
    for case, key in CASES.items():
        yield (case, *serve(workloads, case, plan_from_dict(golden["plans"][key])))
    for case in COLOCATED:
        yield (case, *serve_colocated(workloads, case, golden["colocated"][case]))


# --------------------------------------------------------------------------- tests
@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def workloads():
    return _load_workloads()


def test_codec_round_trips_the_frozen_plans(golden):
    for data in golden["plans"].values():
        assert plan_to_dict(plan_from_dict(data)) == data


def test_codec_round_trips_the_frozen_colocated_deployments(golden):
    for data in golden["colocated"].values():
        assert colocated_to_dict(*colocated_from_dict(data)) == data


@pytest.mark.parametrize("case", sorted(CASES) + sorted(COLOCATED))
def test_engine_digest_matches_the_committed_one(golden, workloads, case):
    if case in CASES:
        trace, result = serve(workloads, case, plan_from_dict(golden["plans"][CASES[case]]))
    else:
        trace, result = serve_colocated(workloads, case, golden["colocated"][case])
    expected = golden["digests"][case]
    assert trace == expected["trace"], f"{case}: the trace moved (workload generation)"
    assert result.digest() == expected["result"], (
        f"{case}: the result moved over an unchanged trace (the engine)"
    )


# --------------------------------------------------------------------------- script
def main() -> None:
    """Rewrite the committed digests from the frozen plans."""
    workloads = _load_workloads()
    golden = json.loads(GOLDEN.read_text())
    old, golden["digests"] = golden["digests"], {}
    for case, trace, result in all_cases(workloads, golden):
        golden["digests"][case] = {"trace": trace, "result": result.digest()}
        for layer, digest in golden["digests"][case].items():
            before = old.get(case, {}).get(layer)
            note = "  (new)" if before is None else "  (moved)" if before != digest else ""
            print(f"{case:20s} {layer:6s} {digest}{note}")
    GOLDEN.write_text(json.dumps(golden, indent=2) + "\n")


if __name__ == "__main__":
    main()
