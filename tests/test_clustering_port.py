"""The in-tree average linkage and maxclust cut equal scipy's, ties included.

``repro.scheduling.clustering`` ports scipy's ``linkage(method="average")``
and ``fcluster(criterion="maxclust")`` so the scheduler never imports
``scipy.cluster``.  The tabu search starts from the groups they give, so every
plan depends on them matching bit for bit: the linkage matrix (all four
columns) and the labels for every cluster count ``t``.  scipy is the oracle,
on generated tie-heavy matrices and on every cluster factory's bandwidth
matrix, healthy, after losing GPUs and under a brownout.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from repro.hardware.cluster import (
    make_cloud_cluster,
    make_homogeneous_cluster,
    make_inhouse_cluster,
    make_two_datacenter_cluster,
)
from repro.hardware.network import LinkClass
from repro.scheduling.clustering import average_linkage, fcluster_maxclust, gpu_distances


def assert_matches_scipy(dist: np.ndarray) -> None:
    """Z and the labels of every ``t`` (past ``n`` too) equal scipy's bitwise."""
    z = average_linkage(dist)
    oracle = linkage(squareform(dist, checks=False), method="average")
    assert z.tobytes() == oracle.tobytes()
    for t in range(1, dist.shape[0] + 2):
        labels = fcluster_maxclust(z, t)
        assert labels.tobytes() == fcluster(oracle, t=t, criterion="maxclust").tobytes(), t


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 33),
    palette=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 7.0]), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_tie_heavy_matrices_match_scipy(n, palette, seed):
    """Symmetric matrices over a few distinct values: chains, merges and cuts all tie."""
    values = np.random.default_rng(seed).choice(palette, size=(n, n))
    dist = np.triu(values, 1)
    assert_matches_scipy(dist + dist.T)


def _factories():
    yield make_cloud_cluster(seed=0)
    yield make_cloud_cluster(seed=3)
    yield make_inhouse_cluster(num_gpus=8)
    yield make_homogeneous_cluster("A5000", 12, gpus_per_node=2)
    yield make_two_datacenter_cluster(seed=0)
    yield make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=1)


CLUSTERS = list(_factories())


@pytest.mark.parametrize("cluster", CLUSTERS, ids=lambda c: c.name)
def test_cluster_factories_match_scipy(cluster):
    """Healthy, minus a third of the GPUs, and with inter-node and WAN links at 5%."""
    assert_matches_scipy(gpu_distances(cluster))
    assert_matches_scipy(gpu_distances(cluster.without_gpus(cluster.gpu_ids[1::3])))
    browned = cluster.with_network(
        cluster.network.scaled(
            bandwidth_scale=0.05,
            link_classes=[LinkClass.INTER_NODE, LinkClass.INTER_DATACENTER],
        )
    )
    assert_matches_scipy(gpu_distances(browned))


def test_non_finite_distances_are_rejected():
    """scipy refuses infinite distances; so does the port."""
    dist = np.array([[0.0, np.inf], [np.inf, 0.0]])
    with pytest.raises(ValueError):
        average_linkage(dist)
