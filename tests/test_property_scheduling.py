"""Property-based tests for scheduling invariants (partitions, moves, orchestration, paging)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.types import Phase
from repro.hardware.cluster import make_cloud_cluster, make_two_datacenter_cluster
from repro.kvcache.paged import BlockAllocationError, PagedKVCache
from repro.model.architecture import get_model_config
from repro.parallelism.partition import partition_layers, stage_max_layers
from repro.core.rng import ensure_rng
from repro.scheduling.neighbors import (
    _KNOWN_MOVES,
    _MovePlan,
    _apply_flip,
    _feasible,
    construct_neighbors,
)
from repro.scheduling.orchestration import solve_orchestration
from repro.scheduling.solution import UpperLevelSolution

# Property/equivalence suites are exhaustive by design; CI runs them in the
# dedicated slow job (-m "slow or integration") to keep the fast matrix quick.
pytestmark = pytest.mark.slow



CLUSTER = make_cloud_cluster(seed=0)
TWO_DC = make_two_datacenter_cluster(seed=0)
MODEL_30B = get_model_config("llama-30b")
MODEL_13B = get_model_config("llama-13b")


# --------------------------------------------------------------------------- partitions
@given(
    num_a40=st.integers(min_value=1, max_value=4),
    num_a6000=st.integers(min_value=1, max_value=4),
    phase=st.sampled_from([Phase.PREFILL, Phase.DECODE]),
)
@settings(max_examples=40, deadline=None)
def test_partition_layers_invariants(num_a40, num_a6000, phase):
    """Layer splits always sum to the model layer count and respect memory caps."""
    a40 = [g.gpu_id for g in CLUSTER.gpus_of_type("A40")][:num_a40]
    a6000 = [g.gpu_id for g in CLUSTER.gpus_of_type("A6000")][:num_a6000]
    stages = [a40, a6000]
    caps = [stage_max_layers(CLUSTER, s, MODEL_13B) for s in stages]
    if sum(caps) < MODEL_13B.num_layers or min(caps) < 1:
        return  # infeasible group; partitioning is expected to raise elsewhere
    split = partition_layers(CLUSTER, stages, MODEL_13B, phase)
    assert sum(split) == MODEL_13B.num_layers
    assert all(1 <= s <= cap for s, cap in zip(split, caps))


# --------------------------------------------------------------------------- neighbour moves
@st.composite
def solutions(draw):
    """Random feasible-ish partitions of the 32 cloud GPUs into 4-GPU groups."""
    ids = list(CLUSTER.gpu_ids)
    num_groups = draw(st.sampled_from([4, 8]))
    group_size = len(ids) // num_groups
    phases = [draw(st.sampled_from([Phase.PREFILL, Phase.DECODE])) for _ in range(num_groups)]
    groups = [
        (ids[i * group_size : (i + 1) * group_size], phases[i]) for i in range(num_groups)
    ]
    return UpperLevelSolution.from_lists(groups)


@given(solution=solutions(), seed=st.integers(0, 1000), count=st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_neighbors_preserve_gpu_partition(solution, seed, count):
    """Every neighbourhood move keeps the GPU set partitioned (no loss, no overlap)."""
    neighbors = construct_neighbors(solution, CLUSTER, MODEL_30B, num_neighbors=count, rng=seed)
    for neighbor in neighbors:
        all_ids = [g for group in neighbor.groups for g in group.gpu_ids]
        assert len(all_ids) == len(set(all_ids))
        assert set(all_ids) == {g for group in solution.groups for g in group.gpu_ids}


def _reference_neighbors(solution, cluster, model, num_neighbors, seed, moves, exclude_keys):
    """construct_neighbors as a plain loop that builds every attempt."""
    allowed = list(moves) if moves else list(_KNOWN_MOVES)
    plan = _MovePlan(ensure_rng(seed), allowed, 8 * num_neighbors, solution, cluster)
    seen = {solution.key(), *exclude_keys}
    neighbors = []
    for kind in plan.kinds:
        if len(neighbors) >= num_neighbors:
            break
        move = plan.resolve(kind)
        if move is None:
            continue
        candidate = plan.build(move)
        if candidate.key() in seen or not _feasible(cluster, model, candidate, 0.3):
            continue
        seen.add(candidate.key())
        neighbors.append(candidate)
    return neighbors


@st.composite
def partitions(draw):
    """Random partitions of the two-DC or the cloud cluster, any group sizes."""
    cluster, model = draw(st.sampled_from([(TWO_DC, MODEL_13B), (CLUSTER, MODEL_30B)]))
    ids = draw(st.permutations(list(cluster.gpu_ids)))
    num_groups = draw(st.integers(2, min(8, len(ids))))
    cut_points = st.sets(
        st.integers(1, len(ids) - 1), min_size=num_groups - 1, max_size=num_groups - 1
    )
    cuts = sorted(draw(cut_points))
    bounds = [0, *cuts, len(ids)]
    groups = [
        (ids[lo:hi], draw(st.sampled_from([Phase.PREFILL, Phase.DECODE])))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return cluster, model, UpperLevelSolution.from_lists(groups)


@given(
    case=partitions(),
    seed=st.integers(0, 10_000),
    count=st.integers(1, 12),
    moves=st.one_of(
        st.none(),
        st.just(["flip"]),
        st.lists(st.sampled_from(_KNOWN_MOVES), min_size=1, max_size=4, unique=True),
    ),
    excluded_flips=st.lists(st.integers(0, 7), max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_neighbors_match_build_every_attempt_reference(case, seed, count, moves, excluded_flips):
    """Skipping repeated moves unbuilt returns exactly the reference candidates, in order."""
    cluster, model, solution = case
    exclude = [
        _apply_flip(solution, i % solution.num_groups).key() for i in excluded_flips
    ]
    fast = construct_neighbors(
        solution, cluster, model, num_neighbors=count, rng=seed, moves=moves, exclude_keys=exclude
    )
    reference = _reference_neighbors(solution, cluster, model, count, seed, moves, exclude)
    assert [n.groups for n in fast] == [n.groups for n in reference]


# --------------------------------------------------------------------------- orchestration
@given(
    m=st.integers(1, 5),
    n=st.integers(1, 5),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=50, deadline=None)
def test_orchestration_lp_produces_valid_routing(m, n, seed):
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, 1.0, size=(m, n))
    prefill_caps = rng.uniform(0.1, 1.0, size=m)
    decode_caps = rng.uniform(0.1, 1.0, size=n)
    result = solve_orchestration(d, prefill_caps, decode_caps)
    # Routed mass respects capacities and never exceeds 1.
    assert result.z.min() >= -1e-9
    assert result.served_fraction <= 1.0 + 1e-6
    assert np.all(result.z.sum(axis=1) <= prefill_caps + 1e-6)
    assert np.all(result.z.sum(axis=0) <= decode_caps + 1e-6)
    # The recovered (X, Y) form proper distributions.
    assert result.x.sum() == pytest.approx(1.0)
    assert np.allclose(result.y.sum(axis=1), 1.0)
    # Objective is consistent and bounded by the served mass.
    assert result.objective == pytest.approx(float((result.z * d).sum()), abs=1e-9)
    assert result.objective <= result.served_fraction + 1e-9


@given(m=st.integers(1, 4), n=st.integers(1, 4), seed=st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_orchestration_objective_never_below_uniform(m, n, seed):
    """The LP should never do worse than uniform routing under the same capacities."""
    rng = np.random.default_rng(seed)
    d = rng.uniform(0.0, 1.0, size=(m, n))
    result = solve_orchestration(d, [1.0] * m, [1.0] * n)
    uniform_objective = float((np.full((m, n), 1.0 / (m * n)) * d).sum())
    assert result.objective >= uniform_objective - 1e-9


# --------------------------------------------------------------------------- paged KV cache
@given(
    ops=st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(0, 5), st.integers(1, 200)),
        min_size=1,
        max_size=60,
    ),
    num_blocks=st.integers(1, 64),
    block_size=st.sampled_from([4, 16, 32]),
)
@settings(max_examples=50, deadline=None)
def test_paged_cache_accounting_invariants(ops, num_blocks, block_size):
    """Used blocks never exceed capacity or go negative under arbitrary operation mixes."""
    cache = PagedKVCache(num_blocks=num_blocks, block_size=block_size)
    live = set()
    for op, seq_id, tokens in ops:
        try:
            if op == "alloc" and seq_id not in live:
                cache.allocate(seq_id, tokens)
                live.add(seq_id)
            elif op == "free" and seq_id in live:
                cache.free(seq_id)
                live.discard(seq_id)
        except BlockAllocationError:
            pass
        assert 0 <= cache.num_blocks - cache.free_blocks <= cache.num_blocks
        assert len(cache._sequences) == len(live)
    for seq_id in list(live):
        cache.free(seq_id)
    assert cache.free_blocks == cache.num_blocks
