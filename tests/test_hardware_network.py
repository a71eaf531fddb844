"""Unit tests for the network (alpha-beta) model."""

import numpy as np
import pytest

from repro.core.exceptions import ConfigurationError
from repro.hardware.network import LinkClass, NetworkConfig, NetworkModel
from repro.hardware.node import Node


@pytest.fixture(scope="module")
def two_node_network():
    nodes = [
        Node(node_id=0, gpu_type="A40", num_gpus=2, intra_bandwidth_gbps=28.0),
        Node(node_id=1, gpu_type="3090Ti", num_gpus=2, intra_bandwidth_gbps=22.0, datacenter=1),
    ]
    return NetworkModel.from_nodes(nodes, seed=0), nodes


class TestNetworkConstruction:
    def test_num_gpus(self, two_node_network):
        network, _ = two_node_network
        assert network.num_gpus == 4

    def test_intra_node_bandwidth(self, two_node_network):
        network, _ = two_node_network
        assert network.bandwidth_matrix_gbps()[0, 1] == pytest.approx(28.0)
        assert network._link_class[0, 1] is LinkClass.INTRA_NODE

    def test_cross_datacenter_links_are_slowest(self, two_node_network):
        network, _ = two_node_network
        assert network._link_class[0, 2] is LinkClass.INTER_DATACENTER
        assert network.bandwidth_matrix_gbps()[0, 2] < network.bandwidth_matrix_gbps()[0, 1]

    def test_matrix_symmetry(self, two_node_network):
        network, _ = two_node_network
        matrix = network.bandwidth_matrix_gbps()
        assert np.allclose(matrix, matrix.T)

    def test_self_link(self, two_node_network):
        network, _ = two_node_network
        assert network._link_class[3, 3] is LinkClass.SELF
        assert network.latency_s(3, 3) == 0.0

    def test_asymmetric_matrix_rejected(self):
        bandwidth = np.array([[1e6, 2.0], [3.0, 1e6]])
        latency = np.zeros((2, 2))
        link = np.full((2, 2), LinkClass.INTRA_NODE, dtype=object)
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth, latency, link)

    def test_zero_bandwidth_rejected(self):
        bandwidth = np.array([[1e6, 0.0], [0.0, 1e6]])
        latency = np.zeros((2, 2))
        link = np.full((2, 2), LinkClass.INTRA_NODE, dtype=object)
        with pytest.raises(ConfigurationError):
            NetworkModel(bandwidth, latency, link)


class TestAggregates:
    def test_min_bandwidth_within_single_gpu_is_infinite(self, two_node_network):
        network, _ = two_node_network
        assert network.min_bandwidth_within([0]) == float("inf")

    def test_min_bandwidth_within_node(self, two_node_network):
        network, _ = two_node_network
        assert network.min_bandwidth_within([0, 1]) == pytest.approx(28.0)

    def test_min_bandwidth_across_datacenters(self, two_node_network):
        network, _ = two_node_network
        assert network.min_bandwidth_within([0, 2]) < 1.0

    def test_best_link_between(self, two_node_network):
        network, _ = two_node_network
        i, j, bandwidth = network.best_link_between([0, 1], [2, 3])
        assert i in (0, 1) and j in (2, 3)
        assert bandwidth == pytest.approx(network.bandwidth_matrix_gbps()[i, j])

    def test_mean_bandwidth_requires_nonempty(self, two_node_network):
        network, _ = two_node_network
        with pytest.raises(ValueError):
            network.mean_bandwidth_between([], [1])

    def test_distance_matrix_inverse_of_bandwidth(self, two_node_network):
        network, _ = two_node_network
        dist = network.distance_matrix()
        assert dist[0, 2] == pytest.approx(1.0 / network.bandwidth_matrix_gbps()[0, 2])
        assert np.all(np.diag(dist) == 0)


class TestNetworkConfig:
    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(inter_node_min_gbps=5.0, inter_node_max_gbps=1.0)

    def test_deterministic_given_seed(self):
        nodes = [
            Node(node_id=0, gpu_type="A40", num_gpus=2),
            Node(node_id=1, gpu_type="A40", num_gpus=2),
        ]
        a = NetworkModel.from_nodes(nodes, seed=3).bandwidth_matrix_gbps()
        b = NetworkModel.from_nodes(nodes, seed=3).bandwidth_matrix_gbps()
        assert np.allclose(a, b)
