"""Pipeline communication routing (Appendix B, step 2).

When a serving group spans multiple nodes, consecutive pipeline stages exchange
activations over whatever link connects them, and in cloud environments those links
vary wildly.  The paper orders the pipeline stages with a bitmask dynamic program
that finds the stage ordering maximising the available bandwidth along the
pipeline path (equivalently, minimising the cross-stage communication cost).

We implement the DP as a Held-Karp-style path search over stage subsets that
maximises the *bottleneck* bandwidth of the path (the slowest hop dominates
pipeline communication cost) and breaks ties by the larger sum of hop bandwidths.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.hardware.network import NetworkModel


def stage_link_bandwidth(
    network: NetworkModel, stage_a: Sequence[int], stage_b: Sequence[int]
) -> float:
    """Effective bandwidth (GB/s) between two stages.

    Activations move point-to-point between the corresponding tensor-parallel
    ranks, so the effective inter-stage bandwidth is the mean of the best pairwise
    links — we use the mean bandwidth between the two GPU sets, which is exact for
    equal TP degrees on symmetric topologies and a good proxy otherwise.
    """
    return network.mean_bandwidth_between(stage_a, stage_b)


def bottleneck_bandwidth(
    network: NetworkModel, ordered_stages: Sequence[Sequence[int]]
) -> float:
    """Bandwidth of the slowest hop along an ordered pipeline (GB/s).

    A single-stage pipeline has no hops and returns ``inf``.
    """
    if len(ordered_stages) <= 1:
        return float("inf")
    hops = [
        stage_link_bandwidth(network, ordered_stages[i], ordered_stages[i + 1])
        for i in range(len(ordered_stages) - 1)
    ]
    return float(min(hops))


def optimal_stage_order(
    network: NetworkModel, stages: Sequence[Sequence[int]]
) -> List[int]:
    """Order pipeline stages to maximise the bottleneck inter-stage bandwidth.

    Parameters
    ----------
    network:
        The cluster network model.
    stages:
        Unordered list of stage GPU-id groups.

    Returns
    -------
    A permutation of ``range(len(stages))`` giving the optimal visiting order.
    For up to ~12 stages the exact bitmask DP is used; this is far beyond the
    pipeline depths that arise in practice (PP <= 8 in the paper).
    """
    n = len(stages)
    if n <= 1:
        return list(range(n))
    if n > 12:
        # The exact DP is exponential in the stage count; beyond 12 stages fall
        # back to a greedy nearest-neighbour ordering (such deep pipelines only
        # appear as transient tabu-search candidates, never in final plans).
        return _greedy_stage_order(network, stages)

    # Pairwise stage bandwidths as plain float rows.
    bw = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            b = float(stage_link_bandwidth(network, stages[i], stages[j]))
            bw[i][j] = bw[j][i] = b

    # State (mask, last) lives at index ``mask * n + last``: the best path
    # visiting ``mask`` and ending at ``last`` has bottleneck ``neck[k]`` and
    # hop sum ``total[k]``.  We maximise bottleneck first, then total
    # bandwidth; -1 marks an unreached state (bandwidths are non-negative).
    size = 1 << n
    neck = [-1.0] * (size * n)
    total = [-1.0] * (size * n)
    parent = [-1] * (size * n)
    for i in range(n):
        neck[(1 << i) * n + i] = float("inf")
        total[(1 << i) * n + i] = 0.0

    bits = [1 << i for i in range(n)]
    for mask in range(size):
        base = mask * n
        # (next stage, index of the state it extends to) for every unvisited stage
        free = [
            (nxt, (mask | bits[nxt]) * n + nxt) for nxt in range(n) if not mask & bits[nxt]
        ]
        for last in range(n):
            bottleneck = neck[base + last]
            if bottleneck < 0.0:
                continue
            path_sum = total[base + last]
            hops = bw[last]
            for nxt, key in free:
                hop = hops[nxt]
                new_neck = hop if hop < bottleneck else bottleneck
                new_total = path_sum + hop
                old_neck = neck[key]
                if new_neck > old_neck or (new_neck == old_neck and new_total > total[key]):
                    neck[key] = new_neck
                    total[key] = new_total
                    parent[key] = last

    full = (size - 1) * n
    end = max(range(n), key=lambda i: (neck[full + i], total[full + i]))
    # Reconstruct the path.
    order = [end]
    mask = size - 1
    while len(order) < n:
        prev = parent[mask * n + order[-1]]
        mask ^= 1 << order[-1]
        order.append(prev)
    order.reverse()
    return order


def _greedy_stage_order(
    network: NetworkModel, stages: Sequence[Sequence[int]]
) -> List[int]:
    """Nearest-neighbour heuristic ordering used for very deep pipelines."""
    n = len(stages)
    remaining = set(range(1, n))
    order = [0]
    while remaining:
        last = order[-1]
        nxt = max(
            remaining,
            key=lambda j: stage_link_bandwidth(network, stages[last], stages[j]),
        )
        order.append(nxt)
        remaining.discard(nxt)
    return order


__all__ = ["stage_link_bandwidth", "bottleneck_bandwidth", "optimal_stage_order"]
