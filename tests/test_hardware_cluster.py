"""Unit tests for cluster construction and the paper's hardware environments."""

import pytest

from repro.core.exceptions import ConfigurationError
from repro.hardware.cluster import (
    Cluster,
    make_cloud_cluster,
    make_homogeneous_cluster,
    make_two_datacenter_cluster,
)


def _crashed_then_revived(cluster, removed, revived):
    """The fault state of ``cluster`` after ``removed`` crash and ``revived`` recover.

    Capacity comes back through :class:`~repro.faults.ClusterFaultState`, the
    path the live loop takes: it rebuilds the view from the pristine roster.
    """
    from repro.faults import ClusterFaultState, FaultEvent, FaultKind

    state = ClusterFaultState(cluster)
    state.apply(FaultEvent(time=1.0, kind=FaultKind.NODE_CRASH, gpu_ids=tuple(removed)))
    state.apply(FaultEvent(time=2.0, kind=FaultKind.RECOVERY, gpu_ids=tuple(revived)))
    return state


class TestCloudCluster:
    def test_total_gpu_count(self, cloud_cluster):
        assert cloud_cluster.num_gpus == 32

    def test_type_counts_match_paper(self, cloud_cluster):
        counts = cloud_cluster.type_counts()
        assert counts == {"A6000": 8, "A5000": 8, "A40": 8, "3090Ti": 8}

    def test_node_count(self, cloud_cluster):
        assert len(cloud_cluster.nodes) == 7

    def test_price_close_to_paper_budget(self, cloud_cluster):
        # Table-1 prices give $11.33/hour for the 32 rented GPUs; the paper quotes
        # $13.54/hour for the same instances (actual Vast.ai rates are higher than
        # the per-GPU list prices).  Either way it stays below the in-house budget.
        assert 10.0 < cloud_cluster.price_per_hour < 14.5

    def test_deterministic_given_seed(self):
        a = make_cloud_cluster(seed=5)
        b = make_cloud_cluster(seed=5)
        assert a.network.bandwidth_matrix_gbps() == pytest.approx(b.network.bandwidth_matrix_gbps())

    def test_gpu_lookup(self, cloud_cluster):
        gpu = cloud_cluster.gpu(0)
        assert gpu.gpu_id == 0

    def test_unknown_gpu_lookup_raises(self, cloud_cluster):
        with pytest.raises(KeyError):
            cloud_cluster.gpu(999)


class TestInhouseCluster:
    def test_eight_a100(self, inhouse_cluster):
        assert inhouse_cluster.type_counts() == {"A100": 8}

    def test_price_matches_paper(self, inhouse_cluster):
        assert inhouse_cluster.price_per_hour == pytest.approx(14.024)

    def test_uniform_fast_interconnect(self, inhouse_cluster):
        ids = inhouse_cluster.gpu_ids
        assert inhouse_cluster.network.min_bandwidth_within(ids) >= 200.0

    def test_budget_parity_with_cloud(self, cloud_cluster, inhouse_cluster):
        ratio = cloud_cluster.price_per_hour / inhouse_cluster.price_per_hour
        assert 0.7 < ratio < 1.1


class TestHomogeneousCluster:
    def test_size_and_type(self):
        cluster = make_homogeneous_cluster("A5000", num_gpus=12, gpus_per_node=4)
        assert cluster.num_gpus == 12
        assert cluster.type_counts() == {"A5000": 12}
        assert len(cluster.nodes) == 3

    def test_partial_last_node(self):
        cluster = make_homogeneous_cluster("A5000", num_gpus=6, gpus_per_node=4)
        assert cluster.num_gpus == 6
        assert len(cluster.nodes) == 2

    def test_invalid_gpu_type_rejected(self):
        with pytest.raises(KeyError):
            make_homogeneous_cluster("NotAGPU", num_gpus=4)

    def test_invalid_size_rejected(self):
        with pytest.raises(ConfigurationError):
            make_homogeneous_cluster("A5000", num_gpus=0)


class TestTwoDatacenterCluster:
    def test_composition(self, small_hetero_cluster):
        assert small_hetero_cluster.type_counts() == {"A40": 4, "3090Ti": 4}

    def test_inter_dc_bandwidth_configurable(self):
        slow = make_two_datacenter_cluster(inter_dc_gbps=0.625)
        a40 = [g.gpu_id for g in slow.gpus_of_type("A40")]
        ti = [g.gpu_id for g in slow.gpus_of_type("3090Ti")]
        assert slow.network.mean_bandwidth_between(a40, ti) == pytest.approx(0.625)


class TestClusterMutation:
    def test_without_gpus_preserves_ids(self, cloud_cluster):
        removed = cloud_cluster.gpu_ids[:4]
        smaller = cloud_cluster.without_gpus(removed)
        assert smaller.num_gpus == 28
        assert set(removed) & set(smaller.gpu_ids) == set()
        # Remaining ids are unchanged (stable addressing for deployment plans).
        assert set(smaller.gpu_ids) <= set(cloud_cluster.gpu_ids)

    def test_without_unknown_gpu_raises(self, cloud_cluster):
        with pytest.raises(KeyError):
            cloud_cluster.without_gpus([1234])

    def test_cannot_empty_cluster(self, small_hetero_cluster):
        with pytest.raises(ConfigurationError):
            small_hetero_cluster.without_gpus(small_hetero_cluster.gpu_ids)

    def test_with_gpus_restores_removed_capacity(self, cloud_cluster):
        """A recovery revives removed GPUs from the roster with their original identity."""
        removed = cloud_cluster.gpu_ids[:4]
        state = _crashed_then_revived(cloud_cluster, removed, removed)
        restored = state.current_cluster()
        assert restored.num_gpus == cloud_cluster.num_gpus
        assert restored.gpu_ids == cloud_cluster.gpu_ids
        for gpu_id in removed:
            assert restored.gpu(gpu_id).type_name == cloud_cluster.gpu(gpu_id).type_name
            assert restored.gpu(gpu_id).node_id == cloud_cluster.gpu(gpu_id).node_id

    def test_with_gpus_partial_rejoin(self, cloud_cluster):
        removed = cloud_cluster.gpu_ids[:4]
        partial = _crashed_then_revived(cloud_cluster, removed, removed[:2]).current_cluster()
        assert partial.num_gpus == cloud_cluster.num_gpus - 2
        assert set(removed[:2]) <= set(partial.gpu_ids)
        assert set(removed[2:]) & set(partial.gpu_ids) == set()

    def test_restricted_to(self, cloud_cluster):
        subset = cloud_cluster.gpu_ids[:16]
        restricted = cloud_cluster.restricted_to(subset)
        assert restricted.num_gpus == 16
        assert set(restricted.gpu_ids) == set(subset)

    def test_duplicate_gpu_ids_rejected(self, cloud_cluster):
        gpus = list(cloud_cluster.gpus[:2]) + [cloud_cluster.gpus[0]]
        with pytest.raises(ConfigurationError):
            Cluster(nodes=cloud_cluster.nodes, gpus=gpus, network=cloud_cluster.network)

    def test_describe_mentions_types(self, cloud_cluster):
        description = cloud_cluster.describe()
        for gpu_type in ("A40", "A6000", "A5000", "3090Ti"):
            assert gpu_type in description


class TestStateKey:
    """``Cluster.state_key`` tells apart the cluster states the scheduler can see."""

    def _state(self, removed=(), bandwidth_scale=1.0):
        from repro.faults import ClusterFaultState, FaultEvent, FaultKind

        state = ClusterFaultState(make_two_datacenter_cluster(inter_dc_gbps=5.0, seed=0))
        if removed:
            state.apply(FaultEvent(time=1.0, kind=FaultKind.NODE_CRASH, gpu_ids=tuple(removed)))
        if bandwidth_scale != 1.0:
            state.apply(
                FaultEvent(
                    time=2.0, kind=FaultKind.LINK_DEGRADATION, bandwidth_scale=bandwidth_scale
                )
            )
        return state

    def test_separately_built_views_match(self):
        for removed, scale in (((), 1.0), ((4, 6, 7), 1.0), ((), 0.5), ((1,), 0.5)):
            a = self._state(removed, scale).current_cluster()
            b = self._state(removed, scale).current_cluster()
            assert a is not b
            assert a.state_key() == b.state_key()
            assert hash(a.state_key()) == hash(b.state_key())

    def test_removed_gpu_changes_the_key(self):
        pristine = self._state().current_cluster()
        assert pristine.without_gpus([4]).state_key() != pristine.state_key()
        # Reviving the GPU restores the pristine key.
        revived = _crashed_then_revived(pristine, (4,), (4,)).current_cluster()
        assert revived.state_key() == pristine.state_key()

    def test_brownout_changes_the_key(self):
        pristine = self._state().current_cluster()
        brownout = self._state(bandwidth_scale=0.5).current_cluster()
        assert brownout.gpu_ids == pristine.gpu_ids
        assert brownout.state_key() != pristine.state_key()
        # Two brownout networks scaled separately from the pristine one agree.
        again = pristine.network.scaled(bandwidth_scale=0.5)
        assert again is not brownout.network
        assert again.state_key() == brownout.network.state_key()

    def test_network_key_is_computed_once(self):
        network = make_two_datacenter_cluster(seed=0).network
        assert network.state_key() is network.state_key()
