"""Hierarchical-clustering initialisation of the tabu search (§3.2).

A good initial solution matters: the paper clusters GPUs by their inter-connection
bandwidth matrix so that the initial serving groups avoid ultra-low-bandwidth links
(e.g. cross-node or cross-datacenter Ethernet), then designates each group's phase
randomly.  We cluster on the dissimilarity matrix ``1 / bandwidth`` with
average linkage (UPGMA) and cut the tree into at most the target number of
clusters.  :func:`average_linkage` and :func:`fcluster_maxclust` are in-tree
ports of scipy's ``linkage(method="average")`` (its nearest-neighbour-chain
algorithm) and ``fcluster(criterion="maxclust")`` that return the same tree and
the same labels, ties included, so the initial groups — and with them every
plan — are the ones scipy's clustering gives, without loading
``scipy.cluster`` and ``scipy.spatial`` (~0.3 s of imports) into a resident
scheduler.  A property test compares both with scipy.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

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


def gpu_distances(cluster: Cluster) -> np.ndarray:
    """``1 / bandwidth`` between the available GPUs, in ``cluster.gpu_ids`` order.

    Made exactly symmetric with a zero diagonal, the matrix linkage reads.
    """
    idx = np.asarray(cluster.gpu_ids)
    dist = cluster.network.distance_matrix()[np.ix_(idx, idx)]
    dist = (dist + dist.T) / 2.0
    np.fill_diagonal(dist, 0.0)
    return dist


def average_linkage(dist: np.ndarray) -> np.ndarray:
    """Average-linkage (UPGMA) tree of a symmetric ``(n, n)`` distance matrix.

    Returns scipy's linkage matrix: row k merges clusters ``Z[k, 0] < Z[k, 1]``
    at height ``Z[k, 2]`` into cluster ``n + k`` of ``Z[k, 3]`` points.  The
    nearest-neighbour chain follows scipy's ``nn_chain`` step for step, so ties
    resolve the same way: a chain starts at the lowest live cluster, each link
    scans the live clusters in index order with a strict ``<`` starting from
    the chain's previous element, and mutual neighbours ``x < y`` merge into
    slot ``y``.  The merges are then stably sorted by height and relabelled
    with a union-find, as scipy does.
    """
    if not np.isfinite(dist).all():
        raise ValueError("linkage needs finite distances")
    n = dist.shape[0]
    d = dist.tolist()
    size = [1] * n
    chain: List[int] = []
    merges: List[Tuple[int, int, float]] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(next(i for i in range(n) if size[i]))
        while True:
            x = chain[-1]
            if len(chain) > 1:
                y = chain[-2]
                best = d[x][y]
            else:
                best = math.inf
            row = d[x]
            for i in range(n):
                if size[i] and i != x and row[i] < best:
                    best = row[i]
                    y = i
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)
        del chain[-2:]
        if x > y:
            x, y = y, x
        nx, ny = size[x], size[y]
        merges.append((x, y, best))
        size[x] = 0
        size[y] = nx + ny
        dx, dy = d[x], d[y]
        for i in range(n):
            if size[i] and i != y:
                dy[i] = d[i][y] = (nx * dx[i] + ny * dy[i]) / (nx + ny)

    parent = list(range(2 * n - 1))
    count = [1] * (2 * n - 1)

    def root(a: int) -> int:
        r = a
        while parent[r] != r:
            r = parent[r]
        while parent[a] != r:
            parent[a], a = r, parent[a]
        return r

    z = np.empty((n - 1, 4))
    for k, (x, y, height) in enumerate(sorted(merges, key=lambda merge: merge[2])):
        rx, ry = root(x), root(y)
        parent[rx] = parent[ry] = n + k
        count[n + k] = count[rx] + count[ry]
        z[k] = (min(rx, ry), max(rx, ry), height, count[n + k])
    return z


def fcluster_maxclust(z: np.ndarray, t: int) -> np.ndarray:
    """Flat cluster labels (1-based) cutting tree ``z`` into at most ``t`` clusters.

    scipy's ``fcluster(z, t, criterion="maxclust")``: with ``t >= n`` every
    point is its own cluster, numbered in index order.  Otherwise the cut is
    the smallest subtree-maximum height that leaves at most ``t`` clusters,
    and clusters are numbered in the order a depth-first walk from the root
    meets them — at each node the merged children first (left, then right),
    then the single points (left, then right).
    """
    n = z.shape[0] + 1
    if t >= n:
        return np.arange(1, n + 1, dtype=np.int32)
    left = z[:, 0].astype(int).tolist()
    right = z[:, 1].astype(int).tolist()
    # top[k]: the highest merge inside subtree n + k (children precede parents).
    top = z[:, 2].tolist()
    for k in range(n - 1):
        for child in (left[k], right[k]):
            if child >= n and top[child - n] > top[k]:
                top[k] = top[child - n]

    def num_clusters(cut: float) -> int:
        found, stack = 0, [2 * n - 2]
        while stack:
            node = stack.pop()
            if node < n or top[node - n] <= cut:
                found += 1
            else:
                stack += (left[node - n], right[node - n])
        return found

    cut = min(h for h in set(top) if num_clusters(h) <= t)
    labels = np.zeros(n, dtype=np.int32)
    numbered = 0

    def walk(node: int, inside: bool) -> None:
        nonlocal numbered
        k = node - n
        if not inside and top[k] <= cut:
            numbered += 1
            inside = True
        for child in (left[k], right[k]):
            if child >= n:
                walk(child, inside)
        for child in (left[k], right[k]):
            if child < n:
                if not inside:
                    numbered += 1
                labels[child] = numbered

    walk(2 * n - 2, False)
    return labels


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
        labels = fcluster_maxclust(average_linkage(gpu_distances(cluster)), target_num_groups)

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


__all__ = [
    "average_linkage",
    "fcluster_maxclust",
    "gpu_distances",
    "initial_groups_by_clustering",
    "minimum_group_size",
]
