"""Shared fixtures for the test suite.

Heavier objects (clusters, deployment plans) are session-scoped: they are
immutable value objects in this codebase, so sharing them across tests is safe and
keeps the suite fast.

:func:`assert_same_result` is the suite's one bitwise comparison of two
simulation results; test modules import it with ``from conftest import
assert_same_result``.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.types import Phase
from repro.hardware.cluster import (
    make_cloud_cluster,
    make_homogeneous_cluster,
    make_inhouse_cluster,
    make_two_datacenter_cluster,
)
from repro.model.architecture import ModelConfig, get_model_config
from repro.scheduling.lower_level import LowerLevelSolver
from repro.scheduling.solution import UpperLevelSolution
from repro.simulation.metrics import MetricArrays
from repro.workload.generator import generate_requests
from repro.workload.spec import CODING_WORKLOAD, CONVERSATION_WORKLOAD


# --------------------------------------------------------------------------- results
def assert_same_result(a, b) -> None:
    """Assert two simulation results are bitwise equal: their digests agree.

    On a mismatch the message names the makespan or the first metric column
    that differs, and the first differing row.
    """
    if a.digest() == b.digest():
        return
    if a.makespan != b.makespan:
        raise AssertionError(f"makespan {a.makespan!r} != {b.makespan!r}")
    for f in fields(MetricArrays):
        x, y = getattr(a.arrays, f.name), getattr(b.arrays, f.name)
        if x.dtype != y.dtype or x.shape != y.shape:
            raise AssertionError(f"{f.name}: {x.dtype}{x.shape} != {y.dtype}{y.shape}")
        differ = np.flatnonzero(x != y)
        if differ.size:
            i = int(differ[0])
            raise AssertionError(f"{f.name} first differs at row {i}: {x[i]!r} != {y[i]!r}")
    raise AssertionError(f"digests differ: {a.digest()} != {b.digest()}")


# --------------------------------------------------------------------------- models
@pytest.fixture(scope="session")
def model_7b() -> ModelConfig:
    """LLaMA-7B architecture."""
    return get_model_config("llama-7b")


@pytest.fixture(scope="session")
def model_13b() -> ModelConfig:
    """LLaMA-13B architecture."""
    return get_model_config("llama-13b")


@pytest.fixture(scope="session")
def model_30b() -> ModelConfig:
    """LLaMA-30B architecture (the paper's evaluation model)."""
    return get_model_config("llama-30b")


@pytest.fixture(scope="session")
def tiny_model() -> ModelConfig:
    """A deliberately small architecture so single GPUs can hold many replicas."""
    return ModelConfig(
        name="tiny-1b",
        num_layers=8,
        hidden_size=1024,
        num_heads=8,
        num_kv_heads=8,
        ffn_size=2816,
        vocab_size=32000,
    )


# --------------------------------------------------------------------------- clusters
@pytest.fixture(scope="session")
def cloud_cluster():
    """The paper's 32-GPU heterogeneous cloud environment."""
    return make_cloud_cluster(seed=0)


@pytest.fixture(scope="session")
def inhouse_cluster():
    """The paper's 8xA100 in-house environment."""
    return make_inhouse_cluster()


@pytest.fixture(scope="session")
def small_hetero_cluster():
    """A small heterogeneous cluster (4xA40 + 4x3090Ti) for fast scheduling tests."""
    return make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0)


@pytest.fixture(scope="session")
def a5000_cluster():
    """8 homogeneous A5000 GPUs across two nodes."""
    return make_homogeneous_cluster("A5000", num_gpus=8, gpus_per_node=4, seed=0)


# --------------------------------------------------------------------------- workloads
@pytest.fixture(scope="session")
def coding_workload():
    """The coding workload spec."""
    return CODING_WORKLOAD


@pytest.fixture(scope="session")
def conversation_workload():
    """The conversation workload spec."""
    return CONVERSATION_WORKLOAD


@pytest.fixture(scope="session")
def small_trace(conversation_workload):
    """A short conversation trace for simulator tests."""
    return generate_requests(conversation_workload, request_rate=4.0, num_requests=40, seed=11)


# --------------------------------------------------------------------------- plans
@pytest.fixture(scope="session")
def relaxed_slo(model_30b, conversation_workload):
    """A generous SLO so plans built in fixtures are comfortably feasible."""
    from repro.costmodel.reference import a100_reference_latency

    return a100_reference_latency(model_30b, conversation_workload).slo_spec(8.0)


@pytest.fixture(scope="session")
def small_plan(small_hetero_cluster, model_30b, conversation_workload, relaxed_slo):
    """A concrete two-replica deployment plan (A40 prefill -> 3090Ti decode)."""
    a40 = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("A40")]
    ti = [g.gpu_id for g in small_hetero_cluster.gpus_of_type("3090Ti")]
    solution = UpperLevelSolution.from_lists([(a40, Phase.PREFILL), (ti, Phase.DECODE)])
    solver = LowerLevelSolver(
        cluster=small_hetero_cluster,
        model=model_30b,
        workload=conversation_workload,
        slo=relaxed_slo,
        request_rate=3.0,
    )
    result = solver.solve(solution)
    assert result.feasible and result.plan is not None
    return result.plan
