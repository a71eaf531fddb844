"""Hierarchical-clustering initialisation of the tabu search (§3.2).

A good initial solution matters: the paper clusters GPUs by their inter-connection
bandwidth matrix so that the initial serving groups avoid ultra-low-bandwidth links
(e.g. cross-node or cross-datacenter Ethernet), then designates each group's phase
randomly.  We use SciPy's agglomerative clustering on the dissimilarity matrix
``1 / bandwidth`` with average linkage.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from repro.core.rng import RNGLike, ensure_rng
from repro.core.types import Phase
from repro.hardware.cluster import Cluster
from repro.model.architecture import ModelConfig
from repro.model.memory import parameter_bytes
from repro.parallelism.partition import group_can_hold_model
from repro.scheduling.solution import UpperLevelSolution


def minimum_group_size(cluster: Cluster, model: ModelConfig, kv_reserve_fraction: float = 0.3) -> int:
    """Smallest group size (in GPUs) that can hold the model on the weakest GPU type.

    Used both to pick the initial number of clusters and by the neighbour
    constructor's early feasibility checks.
    """
    min_memory = min(g.spec.memory_bytes for g in cluster.gpus)
    per_gpu_usable = min_memory * (1.0 - kv_reserve_fraction)
    return max(1, math.ceil(parameter_bytes(model) / per_gpu_usable))


def initial_groups_by_clustering(
    cluster: Cluster,
    model: ModelConfig,
    target_num_groups: Optional[int] = None,
    seed: RNGLike = 0,
    kv_reserve_fraction: float = 0.3,
) -> UpperLevelSolution:
    """Build the tabu-search initial solution.

    GPUs are agglomeratively clustered on ``1 / bandwidth`` so that each initial
    group is well connected; clusters that cannot hold one model copy are merged
    into their best-connected neighbour.  Phases are designated randomly (the paper
    randomises them too — the tabu search quickly fixes the balance).
    """
    rng = ensure_rng(seed)
    gpu_ids = cluster.gpu_ids
    n = len(gpu_ids)
    if target_num_groups is None:
        # Aim for groups just large enough to hold the model comfortably.
        min_size = minimum_group_size(cluster, model, kv_reserve_fraction)
        target_num_groups = max(1, n // max(1, min_size))
    target_num_groups = max(1, min(target_num_groups, n))

    if target_num_groups == 1 or n == 1:
        labels = np.ones(n, dtype=int)
    else:
        dist_full = cluster.network.distance_matrix()
        idx = np.asarray(gpu_ids)
        dist = dist_full[np.ix_(idx, idx)]
        # squareform requires an exactly symmetric, zero-diagonal matrix.
        dist = (dist + dist.T) / 2.0
        np.fill_diagonal(dist, 0.0)
        condensed = squareform(dist, checks=False)
        z = linkage(condensed, method="average")
        labels = fcluster(z, t=target_num_groups, criterion="maxclust")

    groups: List[set[int]] = []
    for label in sorted(set(labels)):
        members = {gpu_ids[i] for i in range(n) if labels[i] == label}
        groups.append(members)

    groups = _merge_infeasible_groups(cluster, model, groups, kv_reserve_fraction)

    assignments = []
    for members in groups:
        phase = Phase.PREFILL if rng.random() < 0.5 else Phase.DECODE
        assignments.append((members, phase))
    solution = UpperLevelSolution.from_lists(assignments)
    return _ensure_both_phases(solution, rng)


def _merge_infeasible_groups(
    cluster: Cluster,
    model: ModelConfig,
    groups: List[set[int]],
    kv_reserve_fraction: float,
) -> List[set[int]]:
    """Merge groups that cannot hold the model into their best-connected neighbour."""
    groups = [set(g) for g in groups if g]
    changed = True
    while changed and len(groups) > 1:
        changed = False
        for i, members in enumerate(groups):
            if group_can_hold_model(cluster, members, model, kv_reserve_fraction):
                continue
            # Merge with the group offering the highest mean bandwidth.
            others = [j for j in range(len(groups)) if j != i]
            best_j = max(
                others,
                key=lambda j: cluster.network.mean_bandwidth_between(members, groups[j]),
            )
            groups[best_j] = groups[best_j] | members
            groups.pop(i)
            changed = True
            break
    return groups


def _ensure_both_phases(solution: UpperLevelSolution, rng: np.random.Generator) -> UpperLevelSolution:
    """Flip one group if every group ended up with the same phase designation."""
    if solution.num_groups < 2:
        return solution
    if solution.num_prefill == 0 or solution.num_decode == 0:
        idx = int(rng.integers(0, solution.num_groups))
        group = solution.groups[idx]
        return solution.replace_group(idx, group.with_phase(group.phase.other()))
    return solution


__all__ = ["minimum_group_size", "initial_groups_by_clustering"]
